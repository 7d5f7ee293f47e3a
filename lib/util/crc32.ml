(* Slicing-by-8 on native ints.  [table.(k * 256 + b)] is the CRC register
   after byte [b] followed by [k] zero bytes, so one step folds eight
   input bytes with eight independent lookups; the byte loop finishes the
   tail.  Every index is a byte plus a multiple of 256 below 2048, hence
   the unchecked reads. *)
let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let c = t.(i - 256) in
    t.(i) <- (c lsr 8) lxor t.(c land 0xff)
  done;
  t

let[@inline] at k b = Array.unsafe_get table ((k lsl 8) lor (b land 0xff))

let sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.sub";
  let crc = ref 0xFFFF_FFFF and i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let lo = !crc lxor Int32.to_int (String.get_int32_le s !i) in
    let hi = Int32.to_int (String.get_int32_le s (!i + 4)) in
    crc :=
      at 7 lo
      lxor at 6 (lo lsr 8)
      lxor at 5 (lo lsr 16)
      lxor at 4 (lo lsr 24)
      lxor at 3 hi
      lxor at 2 (hi lsr 8)
      lxor at 1 (hi lsr 16)
      lxor at 0 (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    crc := at 0 (!crc lxor Char.code (String.unsafe_get s !i)) lxor (!crc lsr 8);
    incr i
  done;
  Int32.of_int (!crc lxor 0xFFFF_FFFF)

let string s = sub s ~pos:0 ~len:(String.length s)
