type cmp = Eq | Ne | Lt | Le | Gt | Ge

type shift_dir = Shl | Shr | Ushr

type sync_kind = Monitor_enter | Monitor_exit

type array_kind = Bounds_check | Array_copy | Array_cmp | Array_length

type cast_kind =
  | C_byte
  | C_char
  | C_short
  | C_int
  | C_long
  | C_float
  | C_double
  | C_longdouble
  | C_address
  | C_object
  | C_packed
  | C_zoned
  | C_check

type t =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Neg
  | Shift of shift_dir
  | Or
  | And
  | Xor
  | Inc
  | Compare of cmp
  | Cast of cast_kind
  | Load
  | Loadconst
  | Store
  | New
  | Newarray
  | Newmultiarray
  | Instanceof
  | Synchronization of sync_kind
  | Throw_op
  | Branch_op
  | Call
  | Arrayop of array_kind
  | Mixedop

let group_count = 38

let cast_index = function
  | C_byte -> 0
  | C_char -> 1
  | C_short -> 2
  | C_int -> 3
  | C_long -> 4
  | C_float -> 5
  | C_double -> 6
  | C_longdouble -> 7
  | C_address -> 8
  | C_object -> 9
  | C_packed -> 10
  | C_zoned -> 11
  | C_check -> 12

(* Group layout: ALU 0-11, Cast 12-24, Load/Store 25-27, Memory 28-30,
   JVM 31-33, Branch 34-35, Array ops 36, Mixed 37. *)
let group = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Rem -> 4
  | Neg -> 5
  | Shift _ -> 6
  | Or -> 7
  | And -> 8
  | Xor -> 9
  | Inc -> 10
  | Compare _ -> 11
  | Cast k -> 12 + cast_index k
  | Load -> 25
  | Loadconst -> 26
  | Store -> 27
  | New -> 28
  | Newarray -> 29
  | Newmultiarray -> 30
  | Instanceof -> 31
  | Synchronization _ -> 32
  | Throw_op -> 33
  | Branch_op -> 34
  | Call -> 35
  | Arrayop _ -> 36
  | Mixedop -> 37

let group_names =
  [|
    "add"; "sub"; "mul"; "div"; "rem"; "neg"; "shift"; "or"; "and"; "xor";
    "inc"; "compare"; "cast_byte"; "cast_char"; "cast_short"; "cast_int";
    "cast_long"; "cast_float"; "cast_double"; "cast_longdouble";
    "cast_address"; "cast_object"; "cast_packed"; "cast_zoned"; "cast_check";
    "load"; "loadconst"; "store"; "new"; "newarray"; "newmultiarray";
    "instanceof"; "synchronization"; "throw"; "branch"; "call"; "arrayops";
    "mixedops";
  |]

let group_name i =
  if i < 0 || i >= group_count then invalid_arg "Opcode.group_name";
  group_names.(i)

let cmp_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let shift_name = function Shl -> "shl" | Shr -> "shr" | Ushr -> "ushr"

let sync_name = function
  | Monitor_enter -> "monitorenter"
  | Monitor_exit -> "monitorexit"

let array_name = function
  | Bounds_check -> "boundscheck"
  | Array_copy -> "arraycopy"
  | Array_cmp -> "arraycmp"
  | Array_length -> "arraylength"

let cast_name = function
  | C_byte -> "cast.byte"
  | C_char -> "cast.char"
  | C_short -> "cast.short"
  | C_int -> "cast.int"
  | C_long -> "cast.long"
  | C_float -> "cast.float"
  | C_double -> "cast.double"
  | C_longdouble -> "cast.longdouble"
  | C_address -> "cast.address"
  | C_object -> "cast.object"
  | C_packed -> "cast.packed"
  | C_zoned -> "cast.zoned"
  | C_check -> "cast.check"

let name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | Neg -> "neg"
  | Shift d -> shift_name d
  | Or -> "or"
  | And -> "and"
  | Xor -> "xor"
  | Inc -> "inc"
  | Compare c -> "cmp." ^ cmp_name c
  | Cast k -> cast_name k
  | Load -> "load"
  | Loadconst -> "loadconst"
  | Store -> "store"
  | New -> "new"
  | Newarray -> "newarray"
  | Newmultiarray -> "newmultiarray"
  | Instanceof -> "instanceof"
  | Synchronization s -> sync_name s
  | Throw_op -> "throw"
  | Branch_op -> "branchop"
  | Call -> "call"
  | Arrayop k -> array_name k
  | Mixedop -> "mixedop"

let all_simple =
  [
    Add; Sub; Mul; Div; Rem; Neg; Shift Shl; Shift Shr; Shift Ushr; Or; And;
    Xor; Inc; Compare Eq; Compare Ne; Compare Lt; Compare Le; Compare Gt;
    Compare Ge; Cast C_byte; Cast C_char; Cast C_short; Cast C_int;
    Cast C_long; Cast C_float; Cast C_double; Cast C_longdouble;
    Cast C_address; Cast C_object; Cast C_packed; Cast C_zoned; Cast C_check;
    Load; Loadconst; Store; New; Newarray; Newmultiarray; Instanceof;
    Synchronization Monitor_enter; Synchronization Monitor_exit; Throw_op;
    Branch_op; Call; Arrayop Bounds_check; Arrayop Array_copy;
    Arrayop Array_cmp; Arrayop Array_length; Mixedop;
  ]

module By_name = Hashtbl.Make (String)

let by_name =
  let tbl = By_name.create 64 in
  List.iter (fun op -> By_name.replace tbl (name op) op) all_simple;
  tbl

let of_name s = By_name.find_opt by_name s

let equal (a : t) (b : t) = a = b

let pp fmt t = Format.pp_print_string fmt (name t)

let cast_target = function
  | C_byte -> Some Types.Byte
  | C_char -> Some Types.Char
  | C_short -> Some Types.Short
  | C_int -> Some Types.Int
  | C_long -> Some Types.Long
  | C_float -> Some Types.Float_
  | C_double -> Some Types.Double
  | C_longdouble -> Some Types.Long_double
  | C_address -> Some Types.Address
  | C_object -> Some Types.Object_
  | C_packed -> Some Types.Packed_decimal
  | C_zoned -> Some Types.Zoned_decimal
  | C_check -> None
