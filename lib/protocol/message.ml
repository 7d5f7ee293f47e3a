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

let rec varint_size v = if v < 0x80 then 1 else 1 + varint_size (v lsr 7)
let string_size s = varint_size (String.length s) + String.length s

let trace_size (c : Tracectx.t) =
  if Tracectx.is_none c then 0
  else varint_size c.trace_id + varint_size c.span_id

let payload_size = function
  | Init { model_name } -> string_size model_name
  | Init_ok | Ping | Pong | Shutdown | Stats_req | Overloaded -> 0
  | Stats_text s | Error_msg s -> string_size s
  | Predict { level; features; trace } ->
      let n = Array.length features in
      varint_size (Plan.level_index level) + varint_size n + (8 * n)
      + trace_size trace
  | Prediction { trace; _ } -> 8 + trace_size trace

let write_payload buf = function
  | Init { model_name } -> Codec.write_string buf model_name
  | Init_ok | Ping | Pong | Shutdown | Stats_req | Overloaded -> ()
  | Stats_text s -> Codec.write_string buf s
  | Predict { level; features; trace } ->
      Codec.write_varint buf (Plan.level_index level);
      Codec.write_varint buf (Array.length features);
      for i = 0 to Array.length features - 1 do
        Codec.write_f64 buf features.(i)
      done;
      (* trailing, optional: pre-tracing decoders never looked past the
         feature vector, so traced frames stay backward compatible *)
      if not (Tracectx.is_none trace) then Tracectx.write buf trace
  | Prediction { modifier; trace } ->
      Codec.write_i64 buf (Modifier.to_bits modifier);
      if not (Tracectx.is_none trace) then Tracectx.write buf trace
  | Error_msg e -> Codec.write_string buf e

let magic = '\xa7'

(* The frame is built once, into a buffer of its exact size, and
   checksummed where it lies: the CRC over tag, length and payload
   replaces the four placeholder bytes that end the frame. *)
let encode m =
  let plen = payload_size m in
  let size = 2 + varint_size plen + plen + 4 in
  let buf = Buffer.create size in
  Buffer.add_char buf magic;
  Codec.write_u8 buf (tag m);
  Codec.write_varint buf plen;
  write_payload buf m;
  Buffer.add_int32_le buf 0l;
  assert (Buffer.length buf = size);
  let b = Buffer.to_bytes buf in
  let crc = Crc32.sub (Bytes.unsafe_to_string b) ~pos:1 ~len:(size - 5) in
  Bytes.set_int32_le b (size - 4) crc;
  Bytes.unsafe_to_string b

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
          (* a 9-byte varint can decode negative: no frame has that *)
          if plen < 0 || plen > max_payload then Scan_bad "oversized frame"
          else if body_pos + plen + 4 > len then Scan_need_more
          else if
            (* checksum covers tag + length varint + payload *)
            not
              (Int32.equal
                 (String.get_int32_le s (body_pos + plen))
                 (Crc32.sub s ~pos:(pos + 1) ~len:(body_pos + plen - pos - 1)))
          then Scan_bad "frame checksum mismatch"
          else
            match of_tagged_payload tag (String.sub s body_pos plen) with
            | m -> Scan_msg (m, body_pos + plen + 4)
            | exception Malformed w -> Scan_bad w

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
