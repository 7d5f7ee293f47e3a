(* Byte identity of the three persistent and wire formats.  One md5 over
   every message kind's frame (traced and untraced), a code-cache file
   image before and after a compacting close, and a fixed archive: a
   change to a codec, the checksum or the framing that moves any byte
   changes the digest.  The constant was recorded before the byte paths
   were rewritten to checksum in place, and recorded again when store
   frames gained a header checksum in their trailer's high half (file
   version 2): the messages and the archive did not move. *)

module Message = Tessera_protocol.Message
module Tracectx = Tessera_protocol.Tracectx
module Store = Tessera_cache.Store
module Archive = Tessera_collect.Archive
module Dictionary = Tessera_collect.Dictionary
module Record = Tessera_collect.Record
module Features = Tessera_features.Features
module Modifier = Tessera_modifiers.Modifier
module Plan = Tessera_opt.Plan
module Prng = Tessera_util.Prng

let trace = { Tracectx.trace_id = 0x1234_5678; span_id = 42 }

(* every f64 class the codec must carry bit for bit *)
let features =
  Array.append
    [| 0.0; -0.0; 1.0; -1.5; 1e-310; 1e300; infinity; neg_infinity; nan |]
    (Array.init (Features.dim - 9) (fun i -> float_of_int (i * i) /. 7.0))

let messages =
  List.concat_map
    (fun trace ->
      [
        Message.Predict { level = Plan.Hot; features; trace };
        Message.Predict { level = Plan.Cold; features = [||]; trace };
        Message.Prediction
          { modifier = Modifier.of_disabled [ 0; 17; 57 ]; trace };
      ])
    [ Tracectx.none; trace ]
  @ [
      Message.Init { model_name = "H3" };
      Message.Init_ok;
      Message.Ping;
      Message.Pong;
      Message.Shutdown;
      Message.Error_msg "boom";
      Message.Stats_req;
      Message.Stats_text (String.make 300 's');
      Message.Overloaded;
    ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* the appended image, then the compacted one *)
let store_images () =
  let path = Filename.temp_file "tessera_bytes" ".tscc" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let s = Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:false in
      Store.add s 1L "alpha";
      Store.add s Int64.min_int "";
      Store.add s (-2L) (String.init 200 (fun i -> Char.chr (i * 7 land 0xff)));
      Store.add s 1L "gamma";
      let appended = read_file path in
      Store.close s;
      [ appended; read_file path ])

let archive () =
  let rng = Prng.create 18L in
  let dictionary = Dictionary.create () in
  for i = 0 to 4 do
    ignore (Dictionary.intern dictionary (Printf.sprintf "M.m%d()V" i))
  done;
  let record i =
    let r =
      Record.make ~sig_id:(i mod 5)
        ~features:(Features.of_array (Array.init Features.dim (fun j -> (i + j) * 3)))
        ~level:(Prng.choose rng Plan.levels)
        ~modifier:(Modifier.random rng ~density:0.3)
        ~compile_cycles:(i * 1000)
    in
    Record.add_sample r ~cycles:(Int64.of_int (i * 77)) ~valid:(i mod 3 <> 0)
  in
  { Archive.benchmark = "bytes"; dictionary; records = List.init 12 record }

let digest () =
  List.map Message.encode messages
  @ store_images ()
  @ [ Archive.to_string (archive ()) ]
  |> List.map (fun s -> Printf.sprintf "%d:%s" (String.length s) s)
  |> String.concat ""
  |> Digest.string |> Digest.to_hex

let test_known_answers () =
  Alcotest.(check string) "md5 over frames, store images and archive"
    "29160930991af79618149a8680095ea4" (digest ())

let suite =
  [
    Alcotest.test_case "frames, store image, archive: known answers" `Quick
      test_known_answers;
  ]
