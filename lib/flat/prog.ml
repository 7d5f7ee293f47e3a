(* Flat bytecode form of a method: a single instruction array with
   resolved jump offsets, a constant pool of prebuilt values, and
   precomputed cycle charges.  [Lower] produces it, for interpreted
   methods and for compiled code; this module holds the form itself,
   its verifier and the superinstruction pass. *)

module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Values = Tessera_vm.Values
module Semantics = Tessera_vm.Semantics

type instr =
  (* fuel-event carriers: each mirrors exactly one fuel decrement of the
     tree walker (block entry or node pre-order visit) *)
  | Enter  (** block entry: fuel only, no charge *)
  | Begin of int  (** interior-node prologue: fuel + charge *)
  | Charge of int  (** charge without fuel (the If-terminator's 1 cycle) *)
  (* leaves: fuel + charge + push, in one dispatch *)
  | Const of int * int  (** charge, pool index *)
  | Load_local of int * int  (** charge, slot *)
  | Inc_local of int * int * int64 * Types.t  (** charge, slot, delta, ty *)
  | New_obj of int * int  (** charge, class id *)
  | Void_leaf of int  (** 0-arg Throw_op / Synchronization: push Void *)
  (* post-order actions: operands on the stack, no fuel/charge of their
     own (their node's charge was taken by the matching [Begin]) *)
  | Store_local of int * Types.t
  | Field_load of int
  | Field_store of int
  | Elem_load
  | Elem_store
  | Binop of Semantics.kernel  (** the operator resolved with its type *)
  | Negate of Types.t
  | Cast_to of Opcode.cast_kind * Types.t
  | Checkcast of int
  | New_arr of Types.t
  | New_multi of Types.t
  | Instance_of of int
  | Monitor
  | Drop_void  (** 1-arg Throw_op: replace top with Void *)
  | Invoke of int * int  (** callee, argc; charges the call overhead *)
  | Mixed of int * Types.t  (** argc, ty *)
  | Bounds_chk
  | Arr_copy
  | Arr_cmp
  | Arr_len
  | Pop  (** statement-result discard *)
  (* control *)
  | Jmp of int
  | Cond_br of int * int  (** pop; branch to fst if truthy else snd *)
  | Ret_void
  | Ret_val
  | Raise_user
  (* interpreted code's superinstructions: each executes the exact
     observable sequence of its two halves in one dispatch.  The fused
     instruction replaces the first slot; the second slot stays in place
     (never executed, never a jump target) so offsets need no
     relocation.  The pair selection is the static fusion table measured
     by [bench flat] — see [fuse]. *)
  | F_enter_begin of int
  | F_begin_begin of int * int
  | F_begin_load of int * int * int
  | F_begin_const of int * int * int
  | F_load_load of int * int * int * int
  | F_load_binop of int * int * Semantics.kernel
  | F_const_binop of int * int * Semantics.kernel
  | F_load_store of int * int * int * Types.t
  | F_binop_store of Semantics.kernel * int * Types.t
  | F_store_pop of int * Types.t
  | F_inc_pop of int * int * int64 * Types.t
  | F_pop_begin of int
  | F_load_const of int * int * int * int
  | F_load_begin of int * int * int
  | F_binop_binop of Semantics.kernel * Semantics.kernel
  (* compiled code: one instruction per IL node, each one fuel event
     and one charge of its static cost (the first operand), then the
     action of its interpreted namesake, without the Void a statement
     leaves in interpreted code.  [Const], [Load_local] and [New_obj]
     already carry their cost and serve both forms. *)
  | C_inc_local of int * int * int64 * Types.t
  | C_store_local of int * int * Types.t
  | C_field_load of int * int
  | C_field_store of int * int
  | C_elem_load of int
  | C_elem_store of int
  | C_binop of int * Semantics.kernel
  | C_negate of int * Types.t
  | C_cast_to of int * Opcode.cast_kind * Types.t
  | C_checkcast of int * int
  | C_new_arr of int * Types.t
  | C_new_multi of int * Types.t
  | C_instance_of of int * int
  | C_monitor of int  (** pops the monitored object *)
  | C_invoke of int * int * int * bool  (** charge, callee, argc, pushes *)
  | C_mixed of int * int * Types.t * bool  (** charge, argc, ty, pushes *)
  | C_bounds_chk of int
  | C_arr_copy of int
  | C_arr_cmp of int
  | C_arr_len of int
  | C_pop of int
  | C_jmp of int * int
  | C_br_false of int * int
  | C_ret_void of int
  | C_ret_val of int
  | C_raise of int
  (* compiled code's superinstructions, [fuse]'s table for compiled
     code: runs of compiled opcodes in one dispatch, each keeping its
     halves' fuel events, charges and trap points in order; the slots
     after the first keep the original instructions, as above. *)
  | K_cmp_br of int * Semantics.kernel * int * int * int * int
      (** compare, [C_br_false], [C_jmp]: charge, kernel, branch charge
          and false target, jump charge and true target *)
  | K_load_const_binop of int * int * int * int * int * Semantics.kernel
      (** [Load_local], [Const], [C_binop]: charge and slot, charge and
          pool index, charge and kernel *)
  | K_binop_binop of int * Semantics.kernel * int * Semantics.kernel

type t = {
  method_name : string;
  instrs : instr array;
  pool : Values.t array;  (** prebuilt constants (Int_v / Float_v) *)
  block_of_pc : int array;  (** pc -> owning block, for trap dispatch *)
  block_entry : int array;  (** block id -> entry pc *)
  handler_of_block : int array;  (** -1 when the block has no handler *)
  local_types : Types.t array;
  local_is_arg : bool array;
  ret : Types.t;
  sync_charge : int;  (** prologue charge: frame set-up, monitor entry *)
  max_stack : int;  (** verified operand-stack bound *)
  fused_pairs : int;  (** superinstruction sites (0 in the base form) *)
}

let code_size p = Array.length p.instrs

(* -- instruction kinds (for pair counting) ---------------------------- *)

let kind = function
  | Enter -> 0
  | Begin _ -> 1
  | Charge _ -> 2
  | Const _ -> 3
  | Load_local _ -> 4
  | Inc_local _ -> 5
  | New_obj _ -> 6
  | Void_leaf _ -> 7
  | Store_local _ -> 8
  | Field_load _ -> 9
  | Field_store _ -> 10
  | Elem_load -> 11
  | Elem_store -> 12
  | Binop _ -> 13
  | Negate _ -> 14
  | Cast_to _ -> 15
  | Checkcast _ -> 16
  | New_arr _ -> 17
  | New_multi _ -> 18
  | Instance_of _ -> 19
  | Monitor -> 20
  | Drop_void -> 21
  | Invoke _ -> 22
  | Mixed _ -> 23
  | Bounds_chk -> 24
  | Arr_copy -> 25
  | Arr_cmp -> 26
  | Arr_len -> 27
  | Pop -> 28
  | Jmp _ -> 29
  | Cond_br _ -> 30
  | Ret_void -> 31
  | Ret_val -> 32
  | Raise_user -> 33
  | F_enter_begin _ -> 34
  | F_begin_begin _ -> 35
  | F_begin_load _ -> 36
  | F_begin_const _ -> 37
  | F_load_load _ -> 38
  | F_load_binop _ -> 39
  | F_const_binop _ -> 40
  | F_load_store _ -> 41
  | F_binop_store _ -> 42
  | F_store_pop _ -> 43
  | F_inc_pop _ -> 44
  | F_pop_begin _ -> 45
  | F_load_const _ -> 46
  | F_load_begin _ -> 47
  | F_binop_binop _ -> 48
  | C_inc_local _ -> 49
  | C_store_local _ -> 50
  | C_field_load _ -> 51
  | C_field_store _ -> 52
  | C_elem_load _ -> 53
  | C_elem_store _ -> 54
  | C_binop _ -> 55
  | C_negate _ -> 56
  | C_cast_to _ -> 57
  | C_checkcast _ -> 58
  | C_new_arr _ -> 59
  | C_new_multi _ -> 60
  | C_instance_of _ -> 61
  | C_monitor _ -> 62
  | C_invoke _ -> 63
  | C_mixed _ -> 64
  | C_bounds_chk _ -> 65
  | C_arr_copy _ -> 66
  | C_arr_cmp _ -> 67
  | C_arr_len _ -> 68
  | C_pop _ -> 69
  | C_jmp _ -> 70
  | C_br_false _ -> 71
  | C_ret_void _ -> 72
  | C_ret_val _ -> 73
  | C_raise _ -> 74
  | K_cmp_br _ -> 75
  | K_load_const_binop _ -> 76
  | K_binop_binop _ -> 77

let kind_count = 78

let kind_name = function
  | 0 -> "enter"
  | 1 -> "begin"
  | 2 -> "charge"
  | 3 -> "const"
  | 4 -> "load_local"
  | 5 -> "inc_local"
  | 6 -> "new_obj"
  | 7 -> "void_leaf"
  | 8 -> "store_local"
  | 9 -> "field_load"
  | 10 -> "field_store"
  | 11 -> "elem_load"
  | 12 -> "elem_store"
  | 13 -> "binop"
  | 14 -> "negate"
  | 15 -> "cast_to"
  | 16 -> "checkcast"
  | 17 -> "new_arr"
  | 18 -> "new_multi"
  | 19 -> "instance_of"
  | 20 -> "monitor"
  | 21 -> "drop_void"
  | 22 -> "invoke"
  | 23 -> "mixed"
  | 24 -> "bounds_chk"
  | 25 -> "arr_copy"
  | 26 -> "arr_cmp"
  | 27 -> "arr_len"
  | 28 -> "pop"
  | 29 -> "jmp"
  | 30 -> "cond_br"
  | 31 -> "ret_void"
  | 32 -> "ret_val"
  | 33 -> "raise_user"
  | 34 -> "f_enter_begin"
  | 35 -> "f_begin_begin"
  | 36 -> "f_begin_load"
  | 37 -> "f_begin_const"
  | 38 -> "f_load_load"
  | 39 -> "f_load_binop"
  | 40 -> "f_const_binop"
  | 41 -> "f_load_store"
  | 42 -> "f_binop_store"
  | 43 -> "f_store_pop"
  | 44 -> "f_inc_pop"
  | 45 -> "f_pop_begin"
  | 46 -> "f_load_const"
  | 47 -> "f_load_begin"
  | 48 -> "f_binop_binop"
  (* a compiled opcode is named after the action it carries *)
  | 49 -> "inc_local"
  | 50 -> "store_local"
  | 51 -> "field_load"
  | 52 -> "field_store"
  | 53 -> "elem_load"
  | 54 -> "elem_store"
  | 55 -> "binop"
  | 56 -> "negate"
  | 57 -> "cast_to"
  | 58 -> "checkcast"
  | 59 -> "new_arr"
  | 60 -> "new_multi"
  | 61 -> "instance_of"
  | 62 -> "monitor"
  | 63 -> "invoke"
  | 64 -> "mixed"
  | 65 -> "bounds_chk"
  | 66 -> "arr_copy"
  | 67 -> "arr_cmp"
  | 68 -> "arr_len"
  | 69 -> "pop"
  | 70 -> "jmp"
  | 71 -> "br_false"
  | 72 -> "ret_void"
  | 73 -> "ret_val"
  | 74 -> "raise_user"
  | 75 -> "k_cmp_br"
  | 76 -> "k_load_const_binop"
  | 77 -> "k_binop_binop"
  | _ -> "?"

let is_fused i =
  let k = kind i in
  (k >= 34 && k < 49) || k >= 75

let is_compiled_op i =
  let k = kind i in
  k >= 49 && k < 75

(* A superinstruction occupies the slots of the instructions it fuses:
   the fused op, then the dead slots of its other halves, skipped at
   execution and verification time. *)
let width = function
  | K_cmp_br _ | K_load_const_binop _ -> 3
  | i -> if is_fused i then 2 else 1

(* the instruction a superinstruction's first slot held before [fuse] *)
let first_half = function
  | F_enter_begin _ -> Enter
  | F_begin_begin (c, _) | F_begin_load (c, _, _) | F_begin_const (c, _, _) ->
      Begin c
  | F_load_load (c, s, _, _)
  | F_load_const (c, s, _, _)
  | F_load_begin (c, s, _)
  | F_load_binop (c, s, _)
  | F_load_store (c, s, _, _)
  | K_load_const_binop (c, s, _, _, _, _) ->
      Load_local (c, s)
  | F_const_binop (c, k, _) -> Const (c, k)
  | F_binop_store (k, _, _) | F_binop_binop (k, _) -> Binop k
  | F_store_pop (s, ty) -> Store_local (s, ty)
  | F_inc_pop (c, s, d, ty) -> Inc_local (c, s, d, ty)
  | F_pop_begin _ -> Pop
  | K_cmp_br (c, k, _, _, _, _) | K_binop_binop (c, k, _, _) -> C_binop (c, k)
  | i -> i

(* [block_of_pc] of blocks laid out in order from pc 0: each pc belongs
   to the last block entered at or before it (-1 before any) *)
let owner_blocks ~code_size block_entry =
  let owner = Array.make code_size (-1) in
  Array.iteri
    (fun b e -> if e >= 0 && e < code_size then owner.(e) <- b)
    block_entry;
  for pc = 1 to code_size - 1 do
    if owner.(pc) < 0 then owner.(pc) <- owner.(pc - 1)
  done;
  owner

(* -- verifier -------------------------------------------------------
   Mirrors [Il.Validate]'s role for tree IL: structural soundness of the
   flat form, checked after lowering and after decoding a cache entry.  Also computes the exact
   operand-stack bound so the interpreter can allocate a fixed-size
   stack with no overflow check. *)

(* pops, pushes *)
let stack_io = function
  | Enter | Begin _ | Charge _ -> (0, 0)
  | Const _ | Load_local _ | Inc_local _ | New_obj _ | Void_leaf _ -> (0, 1)
  | Store_local _ | Field_load _ | Negate _ | Cast_to _ | Checkcast _
  | New_arr _ | Instance_of _ | Monitor | Drop_void | Arr_len ->
      (1, 1)
  | Field_store _ | Elem_load | Binop _ | New_multi _ | Arr_cmp | Bounds_chk
    ->
      (2, 1)
  | Elem_store | Arr_copy -> (3, 1)
  | Invoke (_, argc) | Mixed (argc, _) -> (argc, 1)
  | Pop -> (1, 0)
  | Jmp _ -> (0, 0)
  | Cond_br _ -> (1, 0)
  | Ret_void | Raise_user -> (0, 0)
  | Ret_val -> (1, 0)
  | F_enter_begin _ | F_begin_begin _ | F_inc_pop _ -> (0, 0)
  | F_begin_load _ | F_begin_const _ | F_load_store _ -> (0, 1)
  | F_load_load _ | F_load_const _ -> (0, 2)
  | F_load_begin _ -> (0, 1)
  | F_load_binop _ | F_const_binop _ -> (1, 1)
  | F_binop_store _ -> (2, 1)
  | F_binop_binop _ -> (3, 1)
  | F_store_pop _ | F_pop_begin _ -> (1, 0)
  | C_inc_local _ | C_jmp _ | C_ret_void _ | C_raise _ -> (0, 0)
  | C_store_local _ | C_monitor _ | C_pop _ | C_br_false _ | C_ret_val _ ->
      (1, 0)
  | C_field_load _ | C_negate _ | C_cast_to _ | C_checkcast _ | C_new_arr _
  | C_instance_of _ | C_arr_len _ ->
      (1, 1)
  | C_field_store _ | C_bounds_chk _ -> (2, 0)
  | C_elem_load _ | C_binop _ | C_new_multi _ | C_arr_cmp _ -> (2, 1)
  | C_elem_store _ | C_arr_copy _ -> (3, 0)
  | C_invoke (_, _, argc, pushes) | C_mixed (_, argc, _, pushes) ->
      (argc, if pushes then 1 else 0)
  | K_cmp_br _ -> (2, 0)
  | K_load_const_binop _ -> (0, 1)
  | K_binop_binop _ -> (3, 1)

let is_terminator = function
  | Jmp _ | Cond_br _ | Ret_void | Ret_val | Raise_user | C_jmp _
  | C_ret_void _ | C_ret_val _ | C_raise _ | K_cmp_br _ ->
      true
  | _ -> false

let verify p =
  let n = Array.length p.instrs in
  let nb = Array.length p.block_entry in
  let nloc = Array.length p.local_types in
  let npool = Array.length p.pool in
  let err fmt = Printf.ksprintf (fun s -> Error (p.method_name ^ ": " ^ s)) fmt in
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  try
    if n = 0 then bad "empty code";
    (* execution starts at pc 0: with the blocks' entries rising from
       there, every pc lies in one block and is checked below *)
    if nb = 0 || p.block_entry.(0) <> 0 then bad "block 0 does not start at pc 0";
    if Array.length p.block_of_pc <> n then bad "block_of_pc length";
    if Array.length p.handler_of_block <> nb then bad "handler_of_block length";
    if Array.length p.local_is_arg <> nloc then bad "local_is_arg length";
    let entry_set = Array.make n false in
    Array.iteri
      (fun b e ->
        if e < 0 || e >= n then bad "block %d entry %d out of range" b e;
        entry_set.(e) <- true)
      p.block_entry;
    Array.iteri
      (fun b h ->
        if h < -1 || h >= nb then bad "block %d handler %d out of range" b h)
      p.handler_of_block;
    let check_slot what s =
      if s < 0 || s >= nloc then bad "%s: slot %d out of range" what s
    in
    let check_pool k =
      if k < 0 || k >= npool then bad "pool index %d out of range" k
    in
    let check_target t =
      if t < 0 || t >= n then bad "jump target %d out of range" t;
      if not entry_set.(t) then bad "jump target %d is not a block entry" t
    in
    let check_operands = function
      | Const (_, k) | F_begin_const (_, _, k) -> check_pool k
      | Load_local (_, s) | Inc_local (_, s, _, _) | Store_local (s, _)
      | F_store_pop (s, _) | F_inc_pop (_, s, _, _) | F_begin_load (_, _, s)
      | F_load_binop (_, s, _) | F_load_begin (_, s, _)
      | C_inc_local (_, s, _, _) | C_store_local (_, s, _) ->
          check_slot "local" s
      | F_load_const (_, s, _, k) | K_load_const_binop (_, s, _, k, _, _) ->
          check_slot "local" s;
          check_pool k
      | F_load_load (_, s1, _, s2) | F_load_store (_, s1, s2, _) ->
          check_slot "local" s1;
          check_slot "local" s2
      | F_binop_store (_, s, _) -> check_slot "local" s
      | F_const_binop (_, k, _) -> check_pool k
      | Invoke (_, argc) | Mixed (argc, _) | C_invoke (_, _, argc, _)
      | C_mixed (_, argc, _, _) ->
          if argc < 0 then bad "negative arity"
      | Jmp t | C_jmp (_, t) | C_br_false (_, t) -> check_target t
      | Cond_br (t, f) | K_cmp_br (_, _, _, f, _, t) ->
          check_target t;
          check_target f
      | _ -> ()
    in
    let max_depth = ref 0 in
    for b = 0 to nb - 1 do
      let start = p.block_entry.(b) in
      let stop = if b + 1 < nb then p.block_entry.(b + 1) else n in
      if stop <= start then bad "block %d is empty" b;
      let depth = ref 0 in
      let i = ref start in
      let terminated = ref false in
      while !i < stop do
        if !terminated then bad "code after terminator in block %d" b;
        let ins = p.instrs.(!i) in
        if p.block_of_pc.(!i) <> b then bad "block_of_pc mismatch at %d" !i;
        check_operands ins;
        let pops, pushes = stack_io ins in
        if !depth < pops then bad "stack underflow at %d" !i;
        depth := !depth - pops + pushes;
        if !depth > !max_depth then max_depth := !depth;
        if is_terminator ins then begin
          terminated := true;
          if !depth <> 0 then bad "nonzero stack depth (%d) at terminator" !depth
        end;
        (match ins with
        | C_br_false _ when !depth <> 0 ->
            bad "nonzero stack depth (%d) at branch" !depth
        | _ -> ());
        i := !i + width ins
      done;
      if not !terminated then bad "block %d does not end in a terminator" b
    done;
    Ok !max_depth
  with Bad s -> err "%s" s

(* -- superinstruction fusion ----------------------------------------
   Two static tables, each measured: `bench flat` counts the executed
   (kind, next kind) pairs at the loop's dispatch head ([Interp.census])
   over the standard workload mix.  The interpreted table is the
   fifteen hottest pairs of unfused interpreted code; the compiled table
   comes from the census of unfused compiled code at the hot level,
   where a [C_binop] is a quarter of all dispatches (nearly all of them
   integer) and a comparison, [C_br_false] and [C_jmp] end most blocks
   (see DESIGN.md §12).  A superinstruction lies within one block, so no
   jump lands on one of its dead slots: every branch lands on a block
   entry, and blocks are laid out in order.  The pass looks at each pair
   once and at a third slot only after a pair that begins a triple, and
   rewrites the array as it goes: it writes only the slot it has just
   read, so it never reads a slot it has rewritten.  It allocates only
   the superinstructions it writes ([Enter], which no table entry
   produces, stands for none). *)

let is_compare k =
  match Semantics.kernel_op k with Opcode.Compare _ -> true | _ -> false

let fuse_in_place p =
  let code = p.instrs and owner = p.block_of_pc in
  let n = Array.length code in
  (* the instruction two slots after [pc] if it lies in [pc]'s block *)
  let third pc =
    if pc + 2 < n && owner.(pc + 2) = owner.(pc) then code.(pc + 2) else Enter
  in
  let fused = ref 0 in
  let pc = ref 0 in
  while !pc < n - 1 do
    let i = !pc in
    let super =
      if owner.(i + 1) <> owner.(i) then Enter
      else
        match (code.(i), code.(i + 1)) with
        (* compiled code *)
        | C_binop (c1, k), C_br_false (c2, f) when is_compare k -> (
            match third i with
            | C_jmp (c3, t) -> K_cmp_br (c1, k, c2, f, c3, t)
            | _ -> Enter)
        | C_binop (c1, k1), C_binop (c2, k2) -> K_binop_binop (c1, k1, c2, k2)
        | Load_local (c1, s), Const (c2, kk) -> (
            match third i with
            (* a comparison is left to [K_cmp_br], which builds no boolean *)
            | C_binop (c3, k) when not (is_compare k) ->
                K_load_const_binop (c1, s, c2, kk, c3, k)
            | _ -> F_load_const (c1, s, c2, kk))
        (* interpreted code *)
        | Enter, Begin c -> F_enter_begin c
        | Begin c1, Begin c2 -> F_begin_begin (c1, c2)
        | Begin c1, Load_local (c2, s) -> F_begin_load (c1, c2, s)
        | Begin c1, Const (c2, k) -> F_begin_const (c1, c2, k)
        | Load_local (c1, s1), Load_local (c2, s2) -> F_load_load (c1, s1, c2, s2)
        | Load_local (c, s), Binop k -> F_load_binop (c, s, k)
        | Const (c, kk), Binop k -> F_const_binop (c, kk, k)
        | Load_local (c, src), Store_local (dst, dty) -> F_load_store (c, src, dst, dty)
        | Binop k, Store_local (dst, dty) -> F_binop_store (k, dst, dty)
        | Store_local (s, ty), Pop -> F_store_pop (s, ty)
        | Inc_local (c, s, d, ty), Pop -> F_inc_pop (c, s, d, ty)
        | Pop, Begin c -> F_pop_begin c
        | Load_local (c1, s), Begin c2 -> F_load_begin (c1, s, c2)
        | Binop k1, Binop k2 -> F_binop_binop (k1, k2)
        | _ -> Enter
    in
    match super with
    | Enter -> incr pc
    | super ->
        code.(i) <- super;
        incr fused;
        pc := i + width super
  done;
  { p with fused_pairs = p.fused_pairs + !fused }

let fuse p = fuse_in_place { p with instrs = Array.copy p.instrs }
