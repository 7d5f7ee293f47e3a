type flags = int

let flag_none = 0
let flag_stack_alloc = 1
let flag_no_bounds_check = 2
let flag_no_null_check = 4
let flag_sync_elided = 8
let flag_no_overflow = 16
let flag_rematerialized = 32

type t = {
  uid : int;
  op : Opcode.t;
  ty : Types.t;
  args : t array;
  sym : int;
  const : int64;
  flags : flags;
}

(* atomic: programs are generated concurrently by evaluation-pool
   domains, and uids must stay unique across them *)
let counter = Atomic.make 0

let fresh_uid () = Atomic.fetch_and_add counter 1 + 1

let mk ?(sym = -1) ?(const = 0L) ?(flags = flag_none) op ty args =
  { uid = fresh_uid (); op; ty; args; sym; const; flags }

let same_args a b =
  a == b || (Array.length a = Array.length b && Array.for_all2 ( == ) a b)

let with_args n args =
  if same_args n.args args then n else { n with uid = fresh_uid (); args }

let with_flags n flags =
  if n.flags lor flags = n.flags then n else { n with flags = n.flags lor flags }
let with_type n ty = { n with uid = fresh_uid (); ty }
let has_flag n f = n.flags land f <> 0

let iconst ty v = mk ~const:v Opcode.Loadconst ty [||]
let fconst ty v = mk ~const:(Int64.bits_of_float v) Opcode.Loadconst ty [||]
let load_sym ty s = mk ~sym:s Opcode.Load ty [||]
let store_sym s v = mk ~sym:s Opcode.Store Types.Void [| v |]
let binop op ty a b = mk op ty [| a; b |]
let call ty ~callee args = mk ~sym:callee Opcode.Call ty args

let const_float n = Int64.float_of_bits n.const

(* The walks below are plain recursion over the child arrays: no
   closure, no intermediate array, nothing allocated per node. *)
let rec size n =
  let args = n.args in
  let s = ref 1 in
  for i = 0 to Array.length args - 1 do
    s := !s + size (Array.unsafe_get args i)
  done;
  !s

let rec fold f acc n =
  let args = n.args in
  let acc = ref (f acc n) in
  for i = 0 to Array.length args - 1 do
    acc := fold f !acc (Array.unsafe_get args i)
  done;
  !acc

let rec exists p n = p n || exists_from p n.args 0

and exists_from p args i =
  i < Array.length args
  && (exists p (Array.unsafe_get args i) || exists_from p args (i + 1))

(* [args] is copied only once a child actually changes *)
let rec map_bottom_up f n =
  let args = n.args in
  let out = ref args in
  for i = 0 to Array.length args - 1 do
    let k = Array.unsafe_get args i in
    let k' = map_bottom_up f k in
    if k' != k then begin
      if !out == args then out := Array.copy args;
      Array.unsafe_set !out i k'
    end
  done;
  let n =
    if !out == args then n else { n with uid = fresh_uid (); args = !out }
  in
  f n

let rec structural_equal a b =
  Opcode.equal a.op b.op && Types.equal a.ty b.ty && a.sym = b.sym
  && Int64.equal a.const b.const
  && Array.length a.args = Array.length b.args
  && Array.for_all2 structural_equal a.args b.args

(* A node's own hash is [Hashtbl.hash (Opcode.name op, Types.index ty,
   sym, const)], computed without building that tuple, boxing [const] or
   concatenating a comparison's name: the steps of the runtime's
   MurmurHash3-based [caml_hash] over the tuple, spelled out on 32-bit
   words.  The test suite checks it against [Hashtbl.hash] itself. *)
let mask32 = 0xffff_ffff
let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

let mix h d =
  let d = rotl32 ((d * 0xcc9e2d51) land mask32) 15 in
  let h = rotl32 (h lxor ((d * 0x1b873593) land mask32)) 13 in
  ((h * 5) + 0xe6546b64) land mask32

(* an immediate is mixed as its tagged 64-bit word folded to 32 bits *)
let mix_int h i =
  mix h ((i asr 31) lxor (i asr 62) lxor ((i lsl 1) lor 1) land mask32)

(* little-endian 32-bit words, then the 1-3 byte tail, then the length *)
let mix_string h s =
  let len = String.length s in
  let byte i = Char.code (String.unsafe_get s i) in
  let h = ref h in
  let i = ref 0 in
  while !i + 4 <= len do
    let j = !i in
    h :=
      mix !h
        (byte j lor (byte (j + 1) lsl 8) lor (byte (j + 2) lsl 16)
        lor (byte (j + 3) lsl 24));
    i := j + 4
  done;
  let j = !i in
  (match len - j with
  | 3 -> h := mix !h ((byte (j + 2) lsl 16) lor (byte (j + 1) lsl 8) lor byte j)
  | 2 -> h := mix !h ((byte (j + 1) lsl 8) lor byte j)
  | 1 -> h := mix !h (byte j)
  | _ -> ());
  !h lxor len

let final_mix h =
  let h = h lxor (h lsr 16) in
  let h = (h * 0x85ebca6b) land mask32 in
  let h = h lxor (h lsr 13) in
  let h = (h * 0xc2b2ae35) land mask32 in
  h lxor (h lsr 16)

(* header word of a 4-field, tag-0 block *)
let tuple4_header = 4 lsl 10

let compare_names =
  Array.map
    (fun c -> Opcode.name (Opcode.Compare c))
    Opcode.[| Eq; Ne; Lt; Le; Gt; Ge |]

let static_name = function
  | Opcode.Compare c ->
      compare_names.(match c with
                     | Opcode.Eq -> 0
                     | Opcode.Ne -> 1
                     | Opcode.Lt -> 2
                     | Opcode.Le -> 3
                     | Opcode.Gt -> 4
                     | Opcode.Ge -> 5)
  | op -> Opcode.name op

let local_hash n =
  let h = mix_string (mix 0 tuple4_header) (static_name n.op) in
  let h = mix_int (mix_int h (Types.index n.ty)) n.sym in
  (* an int64 mixes its two 32-bit halves xor-ed *)
  let c = n.const in
  let h =
    mix h
      (Int64.to_int (Int64.logxor c (Int64.shift_right_logical c 32))
      land mask32)
  in
  final_mix h land 0x3fff_ffff

let rec structural_hash n =
  let args = n.args in
  let h = ref (local_hash n) in
  for i = 0 to Array.length args - 1 do
    h := (!h * 31) + structural_hash (Array.unsafe_get args i)
  done;
  !h

let is_pure n =
  match n.op with
  | Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Neg | Opcode.Shift _
  | Opcode.Or | Opcode.And | Opcode.Xor | Opcode.Compare _ | Opcode.Loadconst
  | Opcode.Instanceof | Opcode.Branch_op | Opcode.Mixedop ->
      true
  | Opcode.Cast k -> not (k = Opcode.C_check)
  | Opcode.Div | Opcode.Rem ->
      (* Integer division traps on zero; FP division does not. *)
      Types.is_floating n.ty
      || (Array.length n.args = 2
         && n.args.(1).op = Opcode.Loadconst
         && not (Int64.equal n.args.(1).const 0L))
  | Opcode.Load -> Array.length n.args = 0 (* locals cannot trap *)
  | Opcode.Arrayop Opcode.Array_length -> true
  | Opcode.Arrayop _ -> false
  | Opcode.Inc | Opcode.Store | Opcode.New | Opcode.Newarray
  | Opcode.Newmultiarray | Opcode.Synchronization _ | Opcode.Throw_op
  | Opcode.Call ->
      false

let rec subtree_pure n = is_pure n && Array.for_all subtree_pure n.args

let rec pp fmt n =
  if Array.length n.args = 0 then
    match n.op with
    | Opcode.Loadconst ->
        if Types.is_floating n.ty then
          Format.fprintf fmt "(%a %a %h)" Opcode.pp n.op Types.pp n.ty
            (const_float n)
        else
          Format.fprintf fmt "(%a %a %Ld)" Opcode.pp n.op Types.pp n.ty n.const
    | Opcode.Load -> Format.fprintf fmt "(load %a $%d)" Types.pp n.ty n.sym
    | _ -> Format.fprintf fmt "(%a %a)" Opcode.pp n.op Types.pp n.ty
  else begin
    Format.fprintf fmt "(%a %a" Opcode.pp n.op Types.pp n.ty;
    if n.sym >= 0 then Format.fprintf fmt " $%d" n.sym;
    Array.iter (fun k -> Format.fprintf fmt " %a" pp k) n.args;
    Format.fprintf fmt ")"
  end
