module Plan = Tessera_opt.Plan
module Modifier = Tessera_modifiers.Modifier
module Codec = Tessera_util.Codec
module Crc32 = Tessera_util.Crc32

type t =
  | Init of { model_name : string }
  | Init_ok
  | Predict of {
      level : Plan.level;
      features : float array;
      trace : Tracectx.t;
    }
  | Prediction of { modifier : Modifier.t; trace : Tracectx.t }
  | Ping
  | Pong
  | Shutdown
  | Error_msg of string
  | Stats_req
  | Stats_text of string
  | Overloaded

exception Malformed of string

let tag = function
  | Init _ -> 1
  | Init_ok -> 2
  | Predict _ -> 3
  | Prediction _ -> 4
  | Ping -> 5
  | Pong -> 6
  | Shutdown -> 7
  | Error_msg _ -> 8
  | Stats_req -> 9
  | Stats_text _ -> 10
  | Overloaded -> 11

let payload m =
  let buf = Buffer.create 64 in
  (match m with
  | Init { model_name } -> Codec.write_string buf model_name
  | Init_ok | Ping | Pong | Shutdown | Stats_req | Overloaded -> ()
  | Stats_text s -> Codec.write_string buf s
  | Predict { level; features; trace } ->
      Codec.write_varint buf (Plan.level_index level);
      Codec.write_varint buf (Array.length features);
      Array.iter (fun f -> Codec.write_f64 buf f) features;
      (* trailing, optional: pre-tracing decoders never looked past the
         feature vector, so traced frames stay backward compatible *)
      if not (Tracectx.is_none trace) then Tracectx.write buf trace
  | Prediction { modifier; trace } ->
      Codec.write_i64 buf (Modifier.to_bits modifier);
      if not (Tracectx.is_none trace) then Tracectx.write buf trace
  | Error_msg e -> Codec.write_string buf e);
  Buffer.contents buf

let magic = '\xa7'

let crc_bytes crc =
  String.init 4 (fun i ->
      Char.chr
        (Int32.to_int
           (Int32.logand (Int32.shift_right_logical crc (8 * i)) 0xFFl)))

let encode m =
  let p = payload m in
  let hdr = Buffer.create (String.length p + 6) in
  Codec.write_u8 hdr (tag m);
  Codec.write_varint hdr (String.length p);
  Buffer.add_string hdr p;
  let body = Buffer.contents hdr in
  let buf = Buffer.create (String.length body + 5) in
  Buffer.add_char buf magic;
  Buffer.add_string buf body;
  Buffer.add_string buf (crc_bytes (Crc32.string body));
  Buffer.contents buf

(* varints are read byte-by-byte from the channel to find the frame end;
   [raw] accumulates the exact wire bytes for checksum verification *)
let read_varint_from ?deadline ~raw ch =
  let rec go shift acc =
    if shift > 62 then raise (Malformed "frame length varint too long");
    let s = Channel.read_exact ?deadline ch 1 in
    Buffer.add_string raw s;
    let b = Char.code s.[0] in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let max_payload = 1 lsl 20

let of_tagged_payload tag body =
  let r = Codec.reader_of_string body in
  try
    match tag with
    | 1 -> Init { model_name = Codec.read_string ~what:"model name" r }
    | 2 -> Init_ok
    | 3 ->
        let level = Plan.level_of_index (Codec.read_varint ~what:"level" r) in
        let n = Codec.read_varint ~what:"feature count" r in
        if n > 4096 then raise (Malformed "feature vector too long");
        let features = Array.init n (fun _ -> Codec.read_f64 ~what:"feature" r) in
        Predict { level; features; trace = Tracectx.read_opt r }
    | 4 ->
        let modifier = Modifier.of_bits (Codec.read_i64 ~what:"modifier" r) in
        Prediction { modifier; trace = Tracectx.read_opt r }
    | 5 -> Ping
    | 6 -> Pong
    | 7 -> Shutdown
    | 8 -> Error_msg (Codec.read_string ~what:"error" r)
    | 9 -> Stats_req
    | 10 -> Stats_text (Codec.read_string ~what:"stats" r)
    | 11 -> Overloaded
    | t -> raise (Malformed (Printf.sprintf "unknown tag %d" t))
  with
  | Codec.Truncated w -> raise (Malformed ("truncated payload: " ^ w))
  | Invalid_argument w -> raise (Malformed w)

let decode_after_magic ?deadline ch =
  let raw = Buffer.create 32 in
  let tag_s = Channel.read_exact ?deadline ch 1 in
  Buffer.add_string raw tag_s;
  let tag = Char.code tag_s.[0] in
  let len = read_varint_from ?deadline ~raw ch in
  if len > max_payload then raise (Malformed "oversized frame");
  let body = Channel.read_exact ?deadline ch len in
  Buffer.add_string raw body;
  let crc = Channel.read_exact ?deadline ch 4 in
  if not (String.equal crc (crc_bytes (Crc32.string (Buffer.contents raw))))
  then raise (Malformed "frame checksum mismatch");
  of_tagged_payload tag body

(* Incremental decoding over an in-memory byte buffer: what a
   non-blocking connection pump uses.  [scan s ~pos] expects the frame
   magic at [pos] and either yields the message plus the position one
   past its frame, reports that the buffer holds only a frame prefix, or
   rejects the bytes at [pos] (the caller then advances one byte and
   hunts for the next magic). *)
type scan =
  | Scan_msg of t * int
  | Scan_need_more
  | Scan_bad of string

let scan s ~pos =
  let len = String.length s in
  if pos >= len then Scan_need_more
  else if s.[pos] <> magic then Scan_bad "bad frame magic"
  else
    (* varint payload length, bounds-checked byte by byte *)
    let rec varint p shift acc =
      if shift > 62 then Error (Scan_bad "frame length varint too long")
      else if p >= len then Error Scan_need_more
      else
        let b = Char.code s.[p] in
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b land 0x80 = 0 then Ok (acc, p + 1) else varint (p + 1) (shift + 7) acc
    in
    if pos + 1 >= len then Scan_need_more
    else
      let tag = Char.code s.[pos + 1] in
      match varint (pos + 2) 0 0 with
      | Error e -> e
      | Ok (plen, body_pos) ->
          if plen > max_payload then Scan_bad "oversized frame"
          else if body_pos + plen + 4 > len then Scan_need_more
          else
            (* checksum covers tag + length varint + payload *)
            let checked = String.sub s (pos + 1) (body_pos + plen - pos - 1) in
            let crc = String.sub s (body_pos + plen) 4 in
            if not (String.equal crc (crc_bytes (Crc32.string checked))) then
              Scan_bad "frame checksum mismatch"
            else
              let body = String.sub s body_pos plen in
              (match of_tagged_payload tag body with
              | m -> Scan_msg (m, body_pos + plen + 4)
              | exception Malformed w -> Scan_bad w)

let decode_from ?deadline ch =
  let m = Channel.read_exact ?deadline ch 1 in
  if m.[0] <> magic then
    raise (Malformed (Printf.sprintf "bad frame magic 0x%02x" (Char.code m.[0])));
  decode_after_magic ?deadline ch

let send ch m = Channel.write ch (encode m)

let equal a b =
  match (a, b) with
  | Init x, Init y -> x.model_name = y.model_name
  | Init_ok, Init_ok | Ping, Ping | Pong, Pong | Shutdown, Shutdown -> true
  | Predict x, Predict y ->
      x.level = y.level && x.features = y.features
      && Tracectx.equal x.trace y.trace
  | Prediction x, Prediction y ->
      Modifier.equal x.modifier y.modifier && Tracectx.equal x.trace y.trace
  | Error_msg x, Error_msg y -> String.equal x y
  | Stats_req, Stats_req -> true
  | Stats_text x, Stats_text y -> String.equal x y
  | Overloaded, Overloaded -> true
  | _ -> false

let pp fmt = function
  | Init { model_name } -> Format.fprintf fmt "Init(%s)" model_name
  | Init_ok -> Format.fprintf fmt "InitOk"
  | Predict { level; features; trace } ->
      Format.fprintf fmt "Predict(%s, %d features%t)" (Plan.level_name level)
        (Array.length features)
        (fun fmt ->
          if not (Tracectx.is_none trace) then
            Format.fprintf fmt ", %a" Tracectx.pp trace)
  | Prediction { modifier; trace } ->
      Format.fprintf fmt "Prediction(%s%t)" (Modifier.to_string modifier)
        (fun fmt ->
          if not (Tracectx.is_none trace) then
            Format.fprintf fmt ", %a" Tracectx.pp trace)
  | Ping -> Format.fprintf fmt "Ping"
  | Pong -> Format.fprintf fmt "Pong"
  | Shutdown -> Format.fprintf fmt "Shutdown"
  | Error_msg e -> Format.fprintf fmt "Error(%s)" e
  | Stats_req -> Format.fprintf fmt "StatsReq"
  | Stats_text s -> Format.fprintf fmt "StatsText(%d bytes)" (String.length s)
  | Overloaded -> Format.fprintf fmt "Overloaded"
