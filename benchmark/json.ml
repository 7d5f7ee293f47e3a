(* Printing for the JSON values that Obs.Export parses: the result line,
   the trace file and the baseline all go through [to_string], and the
   self-test reads them back with [Export.parse_json]. *)

type t = Tessera_obs.Export.json =
  | Null
  | Bool of bool
  | Num of float
  | Jstr of string
  | Arr of t list
  | Obj of (string * t) list

(* every digit of a measured value; JSON has no NaN or infinity *)
let number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else invalid_arg "Json.number: not finite"

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num x -> Buffer.add_string b (number x)
  | Jstr s -> Buffer.add_string b (escape s)
  | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          add b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_string b (escape k);
          Buffer.add_string b ": ";
          add b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

let int n = Num (float_of_int n)
