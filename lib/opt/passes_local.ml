module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Node = Tessera_il.Node
module Meth = Tessera_il.Meth
module Values = Tessera_vm.Values
module Semantics = Tessera_vm.Semantics

let rewrite f m = Treeutil.map_method_nodes (Node.map_bottom_up f) m

let is_const (n : Node.t) = n.Node.op = Opcode.Loadconst

let const_value (n : Node.t) =
  if Types.is_floating n.Node.ty then Values.Float_v (Node.const_float n)
  else Values.Int_v n.Node.const

let of_value ty (v : Values.t) =
  match v with
  | Values.Int_v x -> Some (Node.iconst ty x)
  | Values.Float_v f -> Some (Node.fconst ty f)
  | _ -> None

let int_const (n : Node.t) =
  if is_const n && not (Types.is_floating n.Node.ty) then Some n.Node.const
  else None

(* Fold a binop/neg node when its children are constants; [want] selects
   which result types a given folding pass is responsible for. *)
let fold_node ~want (n : Node.t) =
  if not (want n.Node.ty) then n
  else
    match n.Node.op with
    | (Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Div | Opcode.Rem
      | Opcode.Or | Opcode.And | Opcode.Xor | Opcode.Shift _ | Opcode.Compare _)
      when Array.length n.Node.args = 2
           && is_const n.Node.args.(0)
           && is_const n.Node.args.(1) -> (
        match
          Semantics.binop n.Node.op n.Node.ty
            (const_value n.Node.args.(0))
            (const_value n.Node.args.(1))
        with
        | v -> Option.value ~default:n (of_value n.Node.ty v)
        | exception Values.Trap _ -> n)
    | Opcode.Neg when is_const n.Node.args.(0) ->
        Option.value ~default:n
          (of_value n.Node.ty (Semantics.neg n.Node.ty (const_value n.Node.args.(0))))
    | Opcode.Cast k when k <> Opcode.C_check && is_const n.Node.args.(0) -> (
        match Semantics.cast k n.Node.ty (const_value n.Node.args.(0)) with
        | v -> Option.value ~default:n (of_value n.Node.ty v)
        | exception Values.Trap _ -> n)
    | _ -> n

let native_scalar ty =
  match ty with
  | Types.Byte | Types.Char | Types.Short | Types.Int | Types.Long
  | Types.Float_ | Types.Double ->
      true
  | _ -> false

let decimal ty =
  match ty with Types.Packed_decimal | Types.Zoned_decimal -> true | _ -> false

let const_fold m = rewrite (fold_node ~want:native_scalar) m

let packed_fold m = rewrite (fold_node ~want:decimal) m

let longdouble_narrow m =
  rewrite
    (fun (n : Node.t) ->
      match n.Node.op with
      | Opcode.Cast (Opcode.C_float | Opcode.C_double | Opcode.C_longdouble)
        when Types.is_floating n.Node.args.(0).Node.ty ->
          (* Floating conversions are exact in the value model. *)
          n.Node.args.(0)
      | _ -> fold_node ~want:(Types.equal Types.Long_double) n)
    m

let same_ty (n : Node.t) (k : Node.t) = Types.equal n.Node.ty k.Node.ty

(* the first and second operands; read only where the opcode has them *)
let arg0 (n : Node.t) = n.Node.args.(0)
let arg1 (n : Node.t) = n.Node.args.(1)

let simplify m =
  rewrite
    (fun (n : Node.t) ->
      match n.Node.op with
      | Opcode.Add when Types.is_integral n.Node.ty -> (
          match (int_const (arg0 n), int_const (arg1 n)) with
          | _, Some 0L when same_ty n (arg0 n) -> arg0 n
          | Some 0L, _ when same_ty n (arg1 n) -> arg1 n
          | _ -> n)
      | Opcode.Sub when Types.is_integral n.Node.ty -> (
          match int_const (arg1 n) with
          | Some 0L when same_ty n (arg0 n) -> arg0 n
          | _ -> n)
      | Opcode.Mul -> (
          match (int_const (arg0 n), int_const (arg1 n)) with
          | _, Some 1L when same_ty n (arg0 n) -> arg0 n
          | Some 1L, _ when same_ty n (arg1 n) -> arg1 n
          | _, Some 0L
            when Types.is_integral n.Node.ty && Node.subtree_pure (arg0 n) ->
              Node.iconst n.Node.ty 0L
          | Some 0L, _
            when Types.is_integral n.Node.ty && Node.subtree_pure (arg1 n) ->
              Node.iconst n.Node.ty 0L
          | _ ->
              if
                Types.is_floating n.Node.ty
                && is_const (arg1 n)
                && Node.const_float (arg1 n) = 1.0
              then arg0 n
              else n)
      | Opcode.Div -> (
          match int_const (arg1 n) with
          | Some 1L when Types.is_integral n.Node.ty && same_ty n (arg0 n) ->
              arg0 n
          | _ ->
              if
                Types.is_floating n.Node.ty
                && is_const (arg1 n)
                && Node.const_float (arg1 n) = 1.0
              then arg0 n
              else n)
      | Opcode.Shift _ when Types.is_integral n.Node.ty -> (
          match int_const (arg1 n) with
          | Some 0L when same_ty n (arg0 n) -> arg0 n
          | _ -> n)
      | Opcode.Or | Opcode.Xor -> (
          match (int_const (arg0 n), int_const (arg1 n)) with
          | _, Some 0L when same_ty n (arg0 n) -> arg0 n
          | Some 0L, _ when same_ty n (arg1 n) -> arg1 n
          | _ -> n)
      | Opcode.And -> (
          match (int_const (arg0 n), int_const (arg1 n)) with
          | _, Some 0L when Node.subtree_pure (arg0 n) ->
              Node.iconst n.Node.ty 0L
          | Some 0L, _ when Node.subtree_pure (arg1 n) ->
              Node.iconst n.Node.ty 0L
          | _ -> n)
      | Opcode.Neg -> (
          match (arg0 n).Node.op with
          | Opcode.Neg
            when same_ty n (arg0 n).Node.args.(0) && same_ty n (arg0 n) ->
              (arg0 n).Node.args.(0)
          | _ -> n)
      | Opcode.Cast k when k <> Opcode.C_check -> (
          match Opcode.cast_target k with
          | Some target
            when Types.equal target (arg0 n).Node.ty
                 && Types.is_reference target ->
              arg0 n
          | _ -> n)
      | _ -> n)
    m

(* a binary node whose operands are one pure expression twice *)
let self_pair (n : Node.t) =
  Array.length n.Node.args = 2
  && Node.structural_equal n.Node.args.(0) n.Node.args.(1)
  && Node.subtree_pure n.Node.args.(0)

let bitop_simplify m =
  let rec simplify (n : Node.t) =
    match n.Node.op with
    | (Opcode.And | Opcode.Or)
      when Types.is_integral n.Node.ty
           && self_pair n
           && same_ty n n.Node.args.(0) ->
        n.Node.args.(0)
    | Opcode.Xor when Types.is_integral n.Node.ty && self_pair n ->
        Node.iconst n.Node.ty 0L
    | Opcode.Sub when Types.is_integral n.Node.ty && self_pair n ->
        (* x - x = 0; exact in modular arithmetic *)
        Node.iconst n.Node.ty 0L
    | Opcode.Compare rel
      when Types.is_integral n.Node.args.(0).Node.ty && self_pair n ->
        (* comparisons of a value with itself fold (integers only: NaN
           breaks reflexivity for floating point) *)
        let r =
          match rel with
          | Opcode.Eq | Opcode.Le | Opcode.Ge -> 1L
          | Opcode.Ne | Opcode.Lt | Opcode.Gt -> 0L
        in
        Node.iconst n.Node.ty r
    | (Opcode.And | Opcode.Or | Opcode.Xor)
      when Types.is_integral n.Node.ty -> (
        (* (x op c1) op c2 = x op (c1 op c2): bitwise ops commute with
           the storage-width truncation of sign-extended operands *)
        let inner = n.Node.args.(0) in
        match (int_const n.Node.args.(1), inner.Node.op) with
        | Some c2, op
          when op = n.Node.op
               && Types.equal inner.Node.ty n.Node.ty
               && Array.length inner.Node.args = 2 -> (
            match int_const inner.Node.args.(1) with
            | Some c1 ->
                let f =
                  match n.Node.op with
                  | Opcode.And -> Int64.logand
                  | Opcode.Or -> Int64.logor
                  | _ -> Int64.logxor
                in
                (* the reassociated node may fold again: [(or c c)]
                   when [x] is itself the constant *)
                simplify
                  (Node.binop n.Node.op n.Node.ty inner.Node.args.(0)
                     (Node.iconst n.Node.ty
                        (Semantics.truncate n.Node.ty (f c1 c2))))
            | None -> n)
        | _ -> n)
    | _ -> n
  in
  rewrite simplify m

let log2_exact v =
  if Int64.compare v 1L > 0 && Int64.logand v (Int64.sub v 1L) = 0L then begin
    let rec go k x = if Int64.equal x 1L then k else go (k + 1) (Int64.shift_right_logical x 1) in
    Some (go 0 v)
  end
  else None

let strength_reduce m =
  rewrite
    (fun (n : Node.t) ->
      match n.Node.op with
      | Opcode.Mul when Types.is_integral n.Node.ty -> (
          let shift_of x other =
            match int_const x with
            | Some v -> (
                match log2_exact v with
                | Some k ->
                    Some
                      (Node.binop (Opcode.Shift Opcode.Shl) n.Node.ty other
                         (Node.iconst n.Node.ty (Int64.of_int k)))
                | None -> None)
            | None -> None
          in
          match shift_of n.Node.args.(1) n.Node.args.(0) with
          | Some r -> r
          | None -> (
              match shift_of n.Node.args.(0) n.Node.args.(1) with
              | Some r -> r
              | None -> n))
      | _ -> n)
    m

let reassociate m =
  rewrite
    (fun (n : Node.t) ->
      match n.Node.op with
      | (Opcode.Add | Opcode.Sub) when Types.is_integral n.Node.ty -> (
          match int_const n.Node.args.(1) with
          | Some c2 -> (
              let inner = n.Node.args.(0) in
              if not (same_ty n inner) then n
              else
                match inner.Node.op with
                | (Opcode.Add | Opcode.Sub)
                  when Types.equal inner.Node.ty n.Node.ty -> (
                    match int_const inner.Node.args.(1) with
                    | Some c1 ->
                        let sign op = if op = Opcode.Sub then Int64.neg else Fun.id in
                        let total =
                          Int64.add (sign inner.Node.op c1) (sign n.Node.op c2)
                        in
                        Node.binop Opcode.Add n.Node.ty inner.Node.args.(0)
                          (Node.iconst n.Node.ty total)
                    | None -> n)
                | _ -> n)
          | None -> n)
      | _ -> n)
    m

let sign_ext_elim m =
  rewrite
    (fun (n : Node.t) ->
      match n.Node.op with
      | Opcode.Loadconst when Types.is_integral n.Node.ty ->
          let t = Semantics.truncate n.Node.ty n.Node.const in
          if Int64.equal t n.Node.const then n else Node.iconst n.Node.ty t
      | Opcode.Cast k when k <> Opcode.C_check -> (
          let child = n.Node.args.(0) in
          match child.Node.op with
          | Opcode.Cast k' when k' = k -> child
          | _ -> n)
      | _ -> n)
    m

let peephole_shift m =
  rewrite
    (fun (n : Node.t) ->
      match n.Node.op with
      | Opcode.Shift d when Types.is_integral n.Node.ty -> (
          let inner = n.Node.args.(0) in
          match (inner.Node.op, int_const n.Node.args.(1)) with
          | Opcode.Shift d', Some b
            when d' = d
                 && Types.equal inner.Node.ty n.Node.ty
                 && (d = Opcode.Shl
                    || Types.equal n.Node.ty Types.Long) -> (
              match int_const inner.Node.args.(1) with
              | Some a
                when Int64.compare a 0L >= 0
                     && Int64.compare b 0L >= 0
                     && Int64.compare (Int64.add a b) 63L <= 0 ->
                  Node.binop (Opcode.Shift d) n.Node.ty inner.Node.args.(0)
                    (Node.iconst n.Node.ty (Int64.add a b))
              | _ -> n)
          | _ -> n)
      | _ -> n)
    m

let invert = function
  | Opcode.Eq -> Opcode.Ne
  | Opcode.Ne -> Opcode.Eq
  | Opcode.Lt -> Opcode.Ge
  | Opcode.Le -> Opcode.Gt
  | Opcode.Gt -> Opcode.Le
  | Opcode.Ge -> Opcode.Lt

let peephole_compare m =
  rewrite
    (fun (n : Node.t) ->
      match n.Node.op with
      | Opcode.Compare rel when Types.is_integral n.Node.ty -> (
          let inner = n.Node.args.(0) in
          match (int_const n.Node.args.(1), inner.Node.op) with
          | Some 0L, Opcode.Compare irel -> (
              match rel with
              | Opcode.Ne when same_ty n inner -> inner
              | Opcode.Eq ->
                  Node.binop
                    (Opcode.Compare (invert irel))
                    n.Node.ty inner.Node.args.(0) inner.Node.args.(1)
              | _ -> n)
          | _ -> n)
      | _ -> n)
    m

let induction_var m =
  Meth.with_blocks m
    (Array.map
       (fun b ->
         Treeutil.filter_map_stmts
           (fun (s : Node.t) ->
             match s.Node.op with
             | Opcode.Store when Array.length s.Node.args = 1 -> (
                 let rhs = s.Node.args.(0) in
                 let sym_ty = m.Meth.symbols.(s.Node.sym).Tessera_il.Symbol.ty in
                 if not (Types.is_integral sym_ty && Types.equal rhs.Node.ty sym_ty)
                 then Some s
                 else
                   let mk_inc delta =
                     Node.mk ~sym:s.Node.sym ~const:delta Opcode.Inc Types.Void [||]
                   in
                   match rhs.Node.op with
                   | Opcode.Add -> (
                       let self (k : Node.t) =
                         k.Node.op = Opcode.Load
                         && Array.length k.Node.args = 0
                         && k.Node.sym = s.Node.sym
                       in
                       match
                         ( self rhs.Node.args.(0),
                           int_const rhs.Node.args.(1),
                           self rhs.Node.args.(1),
                           int_const rhs.Node.args.(0) )
                       with
                       | true, Some c, _, _ -> Some (mk_inc c)
                       | _, _, true, Some c -> Some (mk_inc c)
                       | _ -> Some s)
                   | Opcode.Sub -> (
                       let self (k : Node.t) =
                         k.Node.op = Opcode.Load
                         && Array.length k.Node.args = 0
                         && k.Node.sym = s.Node.sym
                       in
                       match (self rhs.Node.args.(0), int_const rhs.Node.args.(1)) with
                       | true, Some c -> Some (mk_inc (Int64.neg c))
                       | _ -> Some s)
                   | _ -> Some s)
             | _ -> Some s)
           b)
       m.Meth.blocks)

let mixed_fold m =
  rewrite
    (fun (n : Node.t) ->
      match n.Node.op with
      | Opcode.Mixedop
        when (not (Types.equal n.Node.ty Types.Void))
             && Array.length n.Node.args > 0
             && Array.for_all is_const n.Node.args ->
          let v = Semantics.mixed n.Node.ty (Array.map const_value n.Node.args) in
          Option.value ~default:n (of_value n.Node.ty v)
      | _ -> n)
    m

let decimal_cast_removal m =
  rewrite
    (fun (n : Node.t) ->
      match n.Node.op with
      | Opcode.Cast (Opcode.C_packed | Opcode.C_zoned)
        when decimal n.Node.args.(0).Node.ty ->
          (* both decimal types are 64-bit fixed point in the value model,
             so conversions between them are the identity *)
          n.Node.args.(0)
      | _ -> n)
    m

let checkcast_reduce m =
  rewrite
    (fun (n : Node.t) ->
      match n.Node.op with
      | Opcode.Cast Opcode.C_check -> (
          let child = n.Node.args.(0) in
          match child.Node.op with
          | Opcode.New when child.Node.sym = n.Node.sym -> child
          | _ -> n)
      | _ -> n)
    m

let instanceof_fold m =
  rewrite
    (fun (n : Node.t) ->
      match n.Node.op with
      | Opcode.Instanceof -> (
          let child = n.Node.args.(0) in
          match child.Node.op with
          | Opcode.New when child.Node.sym = n.Node.sym ->
              (* exact class always conforms to itself; the allocation is
                 unobservable and may be elided *)
              Node.iconst n.Node.ty 1L
          | _ -> n)
      | _ -> n)
    m

let arraylength_fold m =
  rewrite
    (fun (n : Node.t) ->
      match n.Node.op with
      | Opcode.Arrayop Opcode.Array_length -> (
          let child = n.Node.args.(0) in
          match (child.Node.op, child.Node.args) with
          | Opcode.Newarray, [| len |] -> (
              match int_const len with
              | Some c
                when Int64.compare c 0L >= 0
                     && Int64.to_int c <= 1 lsl 20 ->
                  Node.iconst n.Node.ty c
              | _ -> n)
          | _ -> n)
      | _ -> n)
    m
