module Codec = Tessera_util.Codec
module Crc32 = Tessera_util.Crc32

type t = {
  benchmark : string;
  dictionary : Dictionary.t;
  records : Record.t list;
}

exception Corrupt of string

let magic = "TSRA"

let version = 1

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Codec.write_u8 buf version;
  Codec.write_string buf t.benchmark;
  Dictionary.encode t.dictionary buf;
  Codec.write_varint buf (List.length t.records);
  List.iter (fun r -> Record.encode r buf) t.records;
  (* the body is copied out once; its checksum is computed in place and
     written over the placeholder that ends the archive *)
  let n = Buffer.length buf in
  Codec.write_i64 buf 0L;
  let b = Buffer.to_bytes buf in
  let crc = Crc32.sub (Bytes.unsafe_to_string b) ~pos:0 ~len:n in
  Bytes.set_int64_le b n (Int64.of_int32 crc);
  Bytes.unsafe_to_string b

let of_string s =
  let n_body = String.length s - 8 in
  if n_body < 4 then raise (Corrupt "archive too short");
  let stored = String.get_int64_le s n_body in
  let actual = Int64.of_int32 (Crc32.sub s ~pos:0 ~len:n_body) in
  if not (Int64.equal stored actual) then
    raise (Corrupt (Printf.sprintf "crc mismatch: stored %Lx actual %Lx" stored actual));
  if not (String.starts_with ~prefix:magic s) then raise (Corrupt "bad magic");
  let rd = Codec.reader_of_string s in
  for _ = 1 to 4 do
    ignore (Codec.read_u8 rd) (* skip magic *)
  done;
  let v = Codec.read_u8 ~what:"version" rd in
  if v <> version then raise (Corrupt (Printf.sprintf "unsupported version %d" v));
  try
    let benchmark = Codec.read_string ~what:"benchmark" rd in
    let dictionary = Dictionary.decode rd in
    let n = Codec.read_varint ~what:"record count" rd in
    let records = List.init n (fun _ -> Record.decode rd) in
    (* the reader spans the checksum too: a body that ran short must not
       borrow its bytes *)
    if Codec.reader_pos rd > n_body then raise (Codec.Truncated "records");
    { benchmark; dictionary; records }
  with Codec.Truncated what -> raise (Corrupt ("truncated: " ^ what))

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      of_string s)

let merge archives =
  let dictionary = Dictionary.create () in
  let records = ref [] in
  List.iter
    (fun a ->
      List.iter
        (fun (r : Record.t) ->
          let name = Dictionary.find a.dictionary r.Record.sig_id in
          let sig_id = Dictionary.intern dictionary name in
          records := { r with Record.sig_id } :: !records)
        a.records)
    archives;
  {
    benchmark = String.concat "+" (List.map (fun a -> a.benchmark) archives);
    dictionary;
    records = List.rev !records;
  }

let equal a b =
  (* merge re-interns sig ids in record order, erasing any difference in
     dictionary construction history between otherwise-equal archives *)
  let a = merge [ a ] and b = merge [ b ] in
  String.equal a.benchmark b.benchmark
  && Dictionary.equal a.dictionary b.dictionary
  && List.length a.records = List.length b.records
  && List.for_all2 Record.equal a.records b.records
