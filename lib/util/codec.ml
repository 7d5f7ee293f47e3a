type reader = { data : string; mutable pos : int }

exception Truncated of string

let reader_of_string data = { data; pos = 0 }
let reader_pos r = r.pos
let reader_length r = String.length r.data
let at_end r = r.pos >= String.length r.data

let need r n what =
  if r.pos + n > String.length r.data then raise (Truncated what)

let write_u8 buf v =
  if v < 0 || v > 0xff then invalid_arg "Codec.write_u8: out of range";
  Buffer.add_char buf (Char.chr v)

let read_u8 ?(what = "u8") r =
  need r 1 what;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let write_varint buf v =
  if v < 0 then invalid_arg "Codec.write_varint: negative";
  let rec go v =
    if v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7f)));
      go (v lsr 7)
    end
  in
  go v

(* a loop of its own, so a read allocates no closure *)
let rec varint_from r what shift acc =
  if shift > 62 then raise (Truncated (what ^ ": varint too long"));
  need r 1 what;
  let b = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else varint_from r what (shift + 7) acc

let read_varint ?(what = "varint") r = varint_from r what 0 0

let write_i64 buf v = Buffer.add_int64_le buf v

let read_i64 ?(what = "i64") r =
  need r 8 what;
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let write_f64 buf v = write_i64 buf (Int64.bits_of_float v)
let read_f64 ?(what = "f64") r = Int64.float_of_bits (read_i64 ~what r)

let write_string buf s =
  write_varint buf (String.length s);
  Buffer.add_string buf s

let read_string ?(what = "string") r =
  let len = read_varint ~what r in
  need r len what;
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s
