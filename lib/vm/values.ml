module Types = Tessera_il.Types

type obj = { class_id : int; fields : t array }

and arr = { elem : Types.t; data : t array }

and t =
  | Int_v of int64
  | Float_v of float
  | Obj_v of obj
  | Arr_v of arr
  | Null_v
  | Void_v

type trap =
  | Div_by_zero
  | Out_of_bounds
  | Null_deref
  | Class_cast
  | User_exception

exception Trap of trap

let trap_name = function
  | Div_by_zero -> "ArithmeticException"
  | Out_of_bounds -> "ArrayIndexOutOfBoundsException"
  | Null_deref -> "NullPointerException"
  | Class_cast -> "ClassCastException"
  | User_exception -> "UserException"

let default ty =
  match ty with
  | Types.Void -> Void_v
  | t when Types.is_floating t -> Float_v 0.0
  | t when Types.is_reference t -> Null_v
  | _ -> Int_v 0L

let[@inline] as_int = function
  | Int_v v -> v
  | Float_v f -> Int64.of_float f
  | Null_v -> 0L
  | Void_v -> 0L
  | Obj_v _ | Arr_v _ -> raise (Trap Null_deref)

let[@inline] as_float = function
  | Float_v f -> f
  | Int_v v -> Int64.to_float v
  | Null_v | Void_v -> 0.0
  | Obj_v _ | Arr_v _ -> raise (Trap Null_deref)

let[@inline] is_truthy = function
  | Int_v v -> v <> 0L
  | Float_v f -> f <> 0.0
  | Obj_v _ | Arr_v _ -> true
  | Null_v | Void_v -> false

let rec equal a b =
  match (a, b) with
  | Int_v x, Int_v y -> Int64.equal x y
  | Float_v x, Float_v y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Null_v, Null_v | Void_v, Void_v -> true
  | Obj_v x, Obj_v y ->
      x.class_id = y.class_id
      && Array.length x.fields = Array.length y.fields
      && Array.for_all2 equal x.fields y.fields
  | Arr_v x, Arr_v y ->
      Types.equal x.elem y.elem
      && Array.length x.data = Array.length y.data
      && Array.for_all2 equal x.data y.data
  | _ -> false

let mix h v = Int64.(add (mul h 0x100000001B3L) v)

let rec checksum = function
  | Int_v v -> mix 1L v
  | Float_v f -> mix 2L (Int64.bits_of_float f)
  | Null_v -> 3L
  | Void_v -> 4L
  | Obj_v o ->
      Array.fold_left (fun acc f -> mix acc (checksum f)) (mix 5L (Int64.of_int o.class_id)) o.fields
  | Arr_v a ->
      Array.fold_left (fun acc f -> mix acc (checksum f)) (mix 6L (Int64.of_int (Types.index a.elem))) a.data

let rec pp fmt = function
  | Int_v v -> Format.fprintf fmt "%Ld" v
  | Float_v f -> Format.fprintf fmt "%h" f
  | Null_v -> Format.fprintf fmt "null"
  | Void_v -> Format.fprintf fmt "void"
  | Obj_v o ->
      Format.fprintf fmt "obj#%d{%a}" o.class_id
        (Format.pp_print_seq ~pp_sep:(fun fmt () -> Format.fprintf fmt ",") pp)
        (Array.to_seq o.fields)
  | Arr_v a ->
      Format.fprintf fmt "arr[%a]"
        (Format.pp_print_seq ~pp_sep:(fun fmt () -> Format.fprintf fmt ",") pp)
        (Array.to_seq a.data)
