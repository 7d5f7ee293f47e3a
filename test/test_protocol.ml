module Channel = Tessera_protocol.Channel
module Message = Tessera_protocol.Message
module Tracectx = Tessera_protocol.Tracectx
module Serve = Tessera_protocol.Serve
module Client = Tessera_protocol.Client
module Modifier = Tessera_modifiers.Modifier
module Plan = Tessera_opt.Plan
module Prng = Tessera_util.Prng

let msg_testable = Alcotest.testable Message.pp Message.equal

let roundtrip m =
  let a, b = Channel.pipe_pair () in
  Message.send a m;
  Message.decode_from b

let test_message_roundtrips () =
  List.iter
    (fun m -> Alcotest.check msg_testable "roundtrip" m (roundtrip m))
    [
      Message.Init { model_name = "H3" };
      Message.Init_ok;
      Message.Predict
        { level = Plan.Warm; features = [| 0.0; 0.5; 1.0 |];
          trace = Tracectx.none };
      Message.Predict { level = Plan.Cold; features = [||]; trace = Tracectx.none };
      Message.Prediction
        { modifier = Modifier.of_disabled [ 0; 17; 57 ]; trace = Tracectx.none };
      Message.Ping;
      Message.Pong;
      Message.Shutdown;
      Message.Error_msg "boom";
    ]

let test_message_random_roundtrips () =
  QCheck.Test.make ~count:100 ~name:"random predict frames roundtrip"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let m =
        Message.Predict
          {
            level = Prng.choose rng Plan.levels;
            features = Array.init (Prng.int rng 71) (fun _ -> Prng.float rng 1.0);
            trace = Tracectx.none;
          }
      in
      Message.equal m (roundtrip m))

let test_malformed_detected () =
  let a, b = Channel.pipe_pair () in
  (* unknown tag *)
  Channel.write a "\x2a\x00";
  (match Message.decode_from b with
  | _ -> Alcotest.fail "unknown tag accepted"
  | exception Message.Malformed _ -> ());
  (* truncated payload: predict frame claiming features it lacks *)
  Channel.write a "\x03\x03\x00\x02\x01";
  match Message.decode_from b with
  | _ -> Alcotest.fail "truncated accepted"
  | exception Message.Malformed _ -> ()

let test_server_client_session () =
  let server_ch, client_ch = Channel.pipe_pair () in
  let served = ref 0 in
  let failing = ref false in
  let predict features =
    if !failing then failwith "model exploded";
    incr served;
    Modifier.of_disabled [ Array.length features mod 58 ]
  in
  let engine =
    Serve.create ~make_predictor:(fun _ ~level:_ rows -> Array.map predict rows) ()
  in
  let lockstep = Serve.lockstep engine server_ch in
  let client = Client.connect ~model_name:"test" ~lockstep client_ch in
  Alcotest.(check bool) "ping" true (Client.ping client);
  let m = Client.predict client ~level:Plan.Hot ~features:(Array.make 5 0.1) in
  Alcotest.(check (list int)) "predicted modifier" [ 5 ]
    (Modifier.disabled_indices m);
  Alcotest.(check int) "served one predict" 1 !served;
  (* a predictor exception becomes Error_msg and the client falls back *)
  failing := true;
  Message.send client_ch
    (Message.Predict { level = Plan.Hot; features = [||]; trace = Tracectx.none });
  lockstep ();
  (match Message.decode_from client_ch with
  | Message.Error_msg _ -> ()
  | other -> Alcotest.fail (Format.asprintf "expected error, got %a" Message.pp other));
  (* shutdown ends the session: the connection closes *)
  Message.send client_ch Message.Shutdown;
  lockstep ();
  Alcotest.(check int) "shutdown closes the connection" 0
    (Serve.connection_count engine);
  Alcotest.(check int) "one connection, closed once" 1
    (Serve.counters engine).Serve.conns_closed

let test_fifo_two_process () =
  let dir = Filename.get_temp_dir_name () in
  let path_a = Filename.concat dir (Printf.sprintf "tsr_test_%d.a" (Unix.getpid ())) in
  let path_b = Filename.concat dir (Printf.sprintf "tsr_test_%d.b" (Unix.getpid ())) in
  let open_a, open_b = Channel.fifo_pair ~path_a ~path_b in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with _ -> ()) [ path_a; path_b ])
    (fun () ->
      match Unix.fork () with
      | 0 ->
          (* child: echo server over real named pipes, the pair served as
             one pre-accepted connection *)
          let engine =
            Serve.create
              ~make_predictor:(fun _ ~level:_ rows ->
                Array.map
                  (fun features -> Modifier.of_disabled [ Array.length features ])
                  rows)
              ()
          in
          ignore (Serve.accept engine (open_a ()));
          Unix._exit (if Serve.serve_fds engine ~stop:(fun () -> false) then 0 else 1)
      | pid ->
          let ch = open_b () in
          let client = Client.connect ~model_name:"fifo" ch in
          let m = Client.predict client ~level:Plan.Cold ~features:(Array.make 7 0.0) in
          Alcotest.(check (list int)) "fifo prediction" [ 7 ]
            (Modifier.disabled_indices m);
          Client.shutdown client;
          let _, status = Unix.waitpid [] pid in
          Alcotest.(check bool) "server exited" true (status = Unix.WEXITED 0))

let test_channel_close () =
  let a, b = Channel.pipe_pair () in
  Channel.close a;
  Alcotest.check_raises "read after close" Channel.Closed (fun () ->
      ignore (Channel.read_exact b 1))

(* a descriptor read copies out only the bytes it read: a 64 KiB cap must
   not cost a 64 KiB buffer per call *)
let test_read_avail_allocation () =
  let r, w = Unix.pipe ~cloexec:true () in
  let ch = Channel.of_fds r w in
  Fun.protect
    ~finally:(fun () -> Channel.close ch)
    (fun () ->
      Channel.write ch "warm!";
      Alcotest.(check string) "warm-up read" "warm!" (Channel.read_avail ch 65536);
      Channel.write ch "hello";
      Gc.minor ();
      let _, _, major0 = Gc.counters () in
      let got = Channel.read_avail ch 65536 in
      let _, _, major1 = Gc.counters () in
      Alcotest.(check string) "pending bytes" "hello" got;
      Alcotest.(check bool) "under 1024 major words" true
        (major1 -. major0 < 1024.0))

let suite =
  [
    Alcotest.test_case "message roundtrips" `Quick test_message_roundtrips;
    QCheck_alcotest.to_alcotest (test_message_random_roundtrips ());
    Alcotest.test_case "malformed frames detected" `Quick test_malformed_detected;
    Alcotest.test_case "server/client session" `Quick test_server_client_session;
    Alcotest.test_case "two-process FIFO" `Quick test_fifo_two_process;
    Alcotest.test_case "channel close" `Quick test_channel_close;
    Alcotest.test_case "channel: read_avail allocates only what it reads"
      `Quick test_read_avail_allocation;
  ]

(* ------------------------------------------------------------------ *)
(* Trace context                                                       *)
(* ------------------------------------------------------------------ *)

module Codec = Tessera_util.Codec

let test_tracectx_roundtrip () =
  let t = Tracectx.fresh () in
  let c = Tracectx.child t in
  Alcotest.(check bool) "fresh is traced" false (Tracectx.is_none t);
  Alcotest.(check bool) "child keeps the trace id" true
    (c.Tracectx.trace_id = t.Tracectx.trace_id);
  Alcotest.(check bool) "child gets a new span id" true
    (c.Tracectx.span_id <> t.Tracectx.span_id);
  List.iter
    (fun ctx ->
      let buf = Buffer.create 16 in
      Tracectx.write buf ctx;
      let r = Codec.reader_of_string (Buffer.contents buf) in
      Alcotest.(check bool) "write/read_opt roundtrip" true
        (Tracectx.equal ctx (Tracectx.read_opt r)))
    [ t; c ];
  let r = Codec.reader_of_string "" in
  Alcotest.(check bool) "end of payload reads as untraced" true
    (Tracectx.is_none (Tracectx.read_opt r))

let test_traced_message_roundtrips () =
  let ctx = Tracectx.fresh () in
  List.iter
    (fun m -> Alcotest.check msg_testable "traced roundtrip" m (roundtrip m))
    [
      Message.Predict { level = Plan.Warm; features = [| 1.0 |]; trace = ctx };
      Message.Prediction
        { modifier = Modifier.null; trace = Tracectx.child ctx };
    ]

(* A CRC-valid frame whose trailing trace bytes are garbage must decode
   as an untraced request — never a strike.  The frame is hand-built
   here (magic, tag, length varint, payload, CRC-32 LE) so the trace
   bytes can be corrupted while the checksum stays honest. *)
let predict_frame_with_tail tail =
  let payload = Buffer.create 32 in
  Codec.write_varint payload (Plan.level_index Plan.Warm);
  Codec.write_varint payload 2;
  Codec.write_f64 payload 1.5;
  Codec.write_f64 payload 2.5;
  Buffer.add_string payload tail;
  let p = Buffer.contents payload in
  let body = Buffer.create 64 in
  Codec.write_u8 body 3;
  Codec.write_varint body (String.length p);
  Buffer.add_string body p;
  let body = Buffer.contents body in
  let crc = Tessera_util.Crc32.string body in
  let crc_le =
    String.init 4 (fun i ->
        Char.chr
          (Int32.to_int
             (Int32.logand (Int32.shift_right_logical crc (8 * i)) 0xFFl)))
  in
  "\xa7" ^ body ^ crc_le

let test_garbage_trace_degrades () =
  List.iter
    (fun (what, tail) ->
      let frame = predict_frame_with_tail tail in
      match Message.scan frame ~pos:0 with
      | Message.Scan_msg (Message.Predict { features; trace; _ }, consumed) ->
          Alcotest.(check int) (what ^ ": whole frame consumed")
            (String.length frame) consumed;
          Alcotest.(check int) (what ^ ": features intact") 2
            (Array.length features);
          Alcotest.(check bool) (what ^ ": degrades to untraced") true
            (Tracectx.is_none trace)
      | Message.Scan_msg (m, _) ->
          Alcotest.failf "%s: unexpected message %s" what
            (Format.asprintf "%a" Message.pp m)
      | Message.Scan_need_more -> Alcotest.failf "%s: need more" what
      | Message.Scan_bad e -> Alcotest.failf "%s: struck: %s" what e)
    [
      ("truncated varint", "\xff\xff\xff");
      ("zero trace id", "\x00\x05");
      ("half a context", "\x07");
    ]

let suite =
  suite
  @ [
      Alcotest.test_case "trace context roundtrip" `Quick
        test_tracectx_roundtrip;
      Alcotest.test_case "traced messages roundtrip" `Quick
        test_traced_message_roundtrips;
      Alcotest.test_case "garbage trace context degrades to untraced" `Quick
        test_garbage_trace_degrades;
    ]
