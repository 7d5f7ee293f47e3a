module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Classdef = Tessera_il.Classdef
open Values

(* A value already in range comes back as the argument itself, so a
   caller that cannot inline this allocates no second box for it. *)
let[@inline] truncate ty v =
  let r =
    match ty with
    | Types.Byte -> Int64.of_int (Int64.to_int v land 0xff - if Int64.to_int v land 0x80 <> 0 then 0x100 else 0)
    | Types.Char -> Int64.of_int (Int64.to_int v land 0xffff)
    | Types.Short ->
        Int64.of_int
          ((Int64.to_int v land 0xffff) - if Int64.to_int v land 0x8000 <> 0 then 0x10000 else 0)
    | Types.Int ->
        Int64.of_int32 (Int64.to_int32 v)
    | _ -> v
  in
  if Int64.equal r v then v else r

(* integer results: one box for the [int64], one for [Int_v], and
   none at all where truncation changes nothing *)
let store_coerce ty v =
  match v with
  | Int_v x when Types.is_integral ty ->
      let y = truncate ty x in
      if Int64.equal x y then v else Int_v y
  | Int_v x when Types.is_floating ty -> Float_v (Int64.to_float x)
  | Float_v f when Types.is_integral ty ->
      Int_v (truncate ty (Int64.of_float f))
  | v -> v

let fp_binop op a b =
  match op with
  | Opcode.Add -> a +. b
  | Opcode.Sub -> a -. b
  | Opcode.Mul -> a *. b
  | Opcode.Div -> a /. b
  | Opcode.Rem -> Float.rem a b
  | _ -> invalid_arg "Semantics.fp_binop"

let true_v = Int_v 1L
let false_v = Int_v 0L
let[@inline] of_bool r = if r then true_v else false_v

let compare_values c a b =
  let num =
    match (a, b) with
    | Float_v _, _ | _, Float_v _ -> compare (as_float a) (as_float b)
    | Obj_v x, Obj_v y -> if x == y then 0 else compare (checksum a) (checksum b)
    | Arr_v x, Arr_v y -> if x == y then 0 else compare (checksum a) (checksum b)
    | _ -> Int64.compare (as_int a) (as_int b)
  in
  match c with
  | Opcode.Eq -> num = 0
  | Opcode.Ne -> num <> 0
  | Opcode.Lt -> num < 0
  | Opcode.Le -> num <= 0
  | Opcode.Gt -> num > 0
  | Opcode.Ge -> num >= 0

(* -- kernels ------------------------------------------------------------
   A binary operator resolved once with its result type: [code] numbers
   the operator (0..10 the arithmetic, 11..16 the comparisons), and
   [floating] marks arithmetic at a floating type.  Every kernel is
   built here, at start-up, so looking one up allocates nothing, and
   [binop] runs on them too: the tree walker and the flat loop share one
   definition of integer arithmetic. *)

type kernel = { code : int; op : Opcode.t; ty : Types.t; floating : bool }

let ops =
  Opcode.
    [|
      Add; Sub; Mul; Div; Rem; Or; And; Xor; Shift Shl; Shift Shr; Shift Ushr;
      Compare Eq; Compare Ne; Compare Lt; Compare Le; Compare Gt; Compare Ge;
    |]

let first_compare = 11

let op_code = function
  | Opcode.Add -> 0
  | Opcode.Sub -> 1
  | Opcode.Mul -> 2
  | Opcode.Div -> 3
  | Opcode.Rem -> 4
  | Opcode.Or -> 5
  | Opcode.And -> 6
  | Opcode.Xor -> 7
  | Opcode.Shift Opcode.Shl -> 8
  | Opcode.Shift Opcode.Shr -> 9
  | Opcode.Shift Opcode.Ushr -> 10
  | Opcode.Compare Opcode.Eq -> 11
  | Opcode.Compare Opcode.Ne -> 12
  | Opcode.Compare Opcode.Lt -> 13
  | Opcode.Compare Opcode.Le -> 14
  | Opcode.Compare Opcode.Gt -> 15
  | Opcode.Compare Opcode.Ge -> 16
  | _ -> -1

let kernels =
  Array.init
    (Array.length ops * Types.count)
    (fun i ->
      let code = i / Types.count and ty = Types.of_index (i mod Types.count) in
      Some
        {
          code;
          op = ops.(code);
          ty;
          floating = code < first_compare && Types.is_floating ty;
        })

let kernel op ty =
  let code = op_code op in
  if code < 0 then None else kernels.((code * Types.count) + Types.index ty)

let kernel_op k = k.op
let kernel_ty k = k.ty

(* the arithmetic of codes 0..10, on integers *)
let[@inline] int_op code (a : int64) (b : int64) =
  match code with
  | 0 -> Int64.add a b
  | 1 -> Int64.sub a b
  | 2 -> Int64.mul a b
  | 3 -> if Int64.equal b 0L then raise (Trap Div_by_zero) else Int64.div a b
  | 4 -> if Int64.equal b 0L then raise (Trap Div_by_zero) else Int64.rem a b
  | 5 -> Int64.logor a b
  | 6 -> Int64.logand a b
  | 7 -> Int64.logxor a b
  | 8 -> Int64.shift_left a (Int64.to_int (Int64.logand b 63L))
  | 9 -> Int64.shift_right a (Int64.to_int (Int64.logand b 63L))
  | _ -> Int64.shift_right_logical a (Int64.to_int (Int64.logand b 63L))

(* the comparisons of codes 11..16, on two integers *)
let[@inline] int_test code (a : int64) (b : int64) =
  match code with
  | 11 -> a = b
  | 12 -> a <> b
  | 13 -> a < b
  | 14 -> a <= b
  | 15 -> a > b
  | _ -> a >= b

(* Two integers under an integer kernel take its own code.  Otherwise:
   floating arithmetic on the operands read as floats, the comparison
   of [compare_values], or the arithmetic on the operands read as
   integers. *)
let apply k a b =
  match (a, b) with
  | Int_v x, Int_v y when not k.floating ->
      if k.code >= first_compare then of_bool (int_test k.code x y)
      else Int_v (truncate k.ty (int_op k.code x y))
  | _ -> (
      if k.floating then Float_v (fp_binop k.op (as_float a) (as_float b))
      else
        match k.op with
        | Opcode.Compare c -> of_bool (compare_values c a b)
        | _ -> Int_v (truncate k.ty (int_op k.code (as_int a) (as_int b))))

let test k a b =
  match (a, b) with
  | Int_v x, Int_v y when k.code >= first_compare -> int_test k.code x y
  | _ -> is_truthy (apply k a b)

let binop op ty a b =
  match kernel op ty with
  | Some k -> apply k a b
  | None -> invalid_arg "Semantics.binop: not a binary operator"

let neg ty v =
  if Types.is_floating ty then Float_v (-.as_float v)
  else Int_v (truncate ty (Int64.neg (as_int v)))

let inc ty v d = Int_v (truncate ty (Int64.add (as_int v) d))

let checkcast ~classes class_id v =
  match v with
  | Null_v | Arr_v _ -> v
  | Obj_v o ->
      if class_id < 0 || Classdef.is_subclass classes o.class_id class_id then v
      else raise (Trap Class_cast)
  | other -> other

let cast kind ty v =
  match kind with
  | Opcode.C_check -> v (* engines route through [checkcast] *)
  | Opcode.C_address | Opcode.C_object -> v
  | _ ->
      let target =
        match Opcode.cast_target kind with Some t -> t | None -> ty
      in
      if Types.is_floating target then Float_v (as_float v)
      else Int_v (truncate target (as_int v))

let as_obj = function
  | Obj_v o -> o
  | Null_v -> raise (Trap Null_deref)
  | _ -> raise (Trap Class_cast)

let as_arr = function
  | Arr_v a -> a
  | Null_v -> raise (Trap Null_deref)
  | _ -> raise (Trap Class_cast)

let field_load objv i =
  let o = as_obj objv in
  if i < 0 || i >= Array.length o.fields then raise (Trap Out_of_bounds);
  o.fields.(i)

let field_store objv i v =
  let o = as_obj objv in
  if i < 0 || i >= Array.length o.fields then raise (Trap Out_of_bounds);
  o.fields.(i) <- v

(* an [int64] length or index as a native int, trapping outside
   [0, limit]: compared before it converts, since [Int64.to_int] drops
   the top bit and would read [Int64.min_int + 1024] as 1024 *)
let[@inline] within ~limit (x : int64) =
  if x < 0L || x > Int64.of_int limit then raise (Trap Out_of_bounds);
  Int64.to_int x

(* the index of an element access, after the array's own null and
   class checks *)
let[@inline] index_in a idxv =
  within ~limit:(Array.length a.data - 1) (as_int idxv)

let elem_load arrv idxv =
  let a = as_arr arrv in
  Array.unsafe_get a.data (index_in a idxv)

let elem_store arrv idxv v =
  let a = as_arr arrv in
  Array.unsafe_set a.data (index_in a idxv) (store_coerce a.elem v)

let bounds_check arrv idxv = ignore (index_in (as_arr arrv) idxv : int)

let array_copy srcv dstv lenv =
  let src = as_arr srcv and dst = as_arr dstv in
  let len =
    within
      ~limit:(min (Array.length src.data) (Array.length dst.data))
      (as_int lenv)
  in
  Array.blit src.data 0 dst.data 0 len;
  len

let array_cmp av bv =
  let a = as_arr av and b = as_arr bv in
  let n = min (Array.length a.data) (Array.length b.data) in
  let rec go i =
    if i = n then (compare (Array.length a.data) (Array.length b.data), i)
    else
      let c = compare (checksum a.data.(i)) (checksum b.data.(i)) in
      if c <> 0 then (c, i + 1) else go (i + 1)
  in
  let c, inspected = go 0 in
  (Int_v (Int64.of_int c), inspected)

let array_length v = Int_v (Int64.of_int (Array.length (as_arr v).data))

let new_obj ~classes class_id =
  if class_id < 0 || class_id >= Array.length classes then
    raise (Trap Class_cast);
  let fields = Array.map default classes.(class_id).Classdef.fields in
  Obj_v { class_id; fields }

let max_array_length = 1 lsl 20

let new_array ~elem lenv =
  let len = within ~limit:max_array_length (as_int lenv) in
  Arr_v { elem; data = Array.make len (default elem) }

let new_multiarray ~elem d1v d2v =
  let x1 = as_int d1v and x2 = as_int d2v in
  (* each dimension is bounded before they multiply: 2^32 * 2^31
     overflows to 0 *)
  let d1 = within ~limit:max_array_length x1
  and d2 = within ~limit:max_array_length x2 in
  if d1 * max 1 d2 > max_array_length then raise (Trap Out_of_bounds);
  let inner () = Arr_v { elem; data = Array.make d2 (default elem) } in
  Arr_v { elem = Types.Address; data = Array.init d1 (fun _ -> inner ()) }

let instanceof ~classes class_id v =
  let r =
    match v with
    | Obj_v o -> Classdef.is_subclass classes o.class_id class_id
    | _ -> false
  in
  of_bool r

let monitor = function
  | Null_v -> raise (Trap Null_deref)
  | _ -> ()

let shallow = function
  | Int_v v -> v
  | Float_v f -> Int64.bits_of_float f
  | Null_v -> 0L
  | Void_v -> 1L
  | Obj_v o -> Int64.of_int ((o.class_id * 31) + Array.length o.fields)
  | Arr_v a -> Int64.of_int (Array.length a.data)

let mixed ty args =
  let h =
    Array.fold_left
      (fun acc v -> Int64.(add (mul acc 0x100000001B3L) (shallow v)))
      0xCBF29CE484222325L args
  in
  if Types.is_floating ty then
    Float_v (Int64.to_float (Int64.shift_right_logical h 16) /. 1e6)
  else if Types.equal ty Types.Void then Void_v
  else Int_v (truncate ty h)
