(** Flat bytecode form of a method: a single instruction array with
    resolved jump offsets, a constant pool, and precomputed cycle
    charges.  It is the one form code runs in: {!Lower.of_meth} lowers
    interpreted methods to it, with a fuel/charge event sequence
    bit-identical to the tree walker [Vm.Interp.run]; {!Lower.compile},
    the code generator, emits compiled code in it, and the code cache
    stores that program.  [fuse] rewrites the hottest runs of
    instructions (two static tables, one for interpreted and one for
    compiled code, chosen from [bench flat]'s census) into
    superinstructions that keep the exact observable sequence in fewer
    dispatches.  Every binary operator in it is resolved to its
    {!Tessera_vm.Semantics.kernel}. *)

module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Values = Tessera_vm.Values

type instr =
  | Enter
  | Begin of int
  | Charge of int
  | Const of int * int
  | Load_local of int * int
  | Inc_local of int * int * int64 * Types.t
  | New_obj of int * int
  | Void_leaf of int
  | Store_local of int * Types.t
  | Field_load of int
  | Field_store of int
  | Elem_load
  | Elem_store
  | Binop of Tessera_vm.Semantics.kernel
  | Negate of Types.t
  | Cast_to of Opcode.cast_kind * Types.t
  | Checkcast of int
  | New_arr of Types.t
  | New_multi of Types.t
  | Instance_of of int
  | Monitor
  | Drop_void
  | Invoke of int * int
  | Mixed of int * Types.t
  | Bounds_chk
  | Arr_copy
  | Arr_cmp
  | Arr_len
  | Pop
  | Jmp of int
  | Cond_br of int * int
  | Ret_void
  | Ret_val
  | Raise_user
  | F_enter_begin of int
  | F_begin_begin of int * int
  | F_begin_load of int * int * int
  | F_begin_const of int * int * int
  | F_load_load of int * int * int * int
  | F_load_binop of int * int * Tessera_vm.Semantics.kernel
  | F_const_binop of int * int * Tessera_vm.Semantics.kernel
  | F_load_store of int * int * int * Types.t
  | F_binop_store of Tessera_vm.Semantics.kernel * int * Types.t
  | F_store_pop of int * Types.t
  | F_inc_pop of int * int * int64 * Types.t
  | F_pop_begin of int
  | F_load_const of int * int * int * int
  | F_load_begin of int * int * int
  | F_binop_binop of Tessera_vm.Semantics.kernel * Tessera_vm.Semantics.kernel
  | C_inc_local of int * int * int64 * Types.t
  | C_store_local of int * int * Types.t
  | C_field_load of int * int
  | C_field_store of int * int
  | C_elem_load of int
  | C_elem_store of int
  | C_binop of int * Tessera_vm.Semantics.kernel
  | C_negate of int * Types.t
  | C_cast_to of int * Opcode.cast_kind * Types.t
  | C_checkcast of int * int
  | C_new_arr of int * Types.t
  | C_new_multi of int * Types.t
  | C_instance_of of int * int
  | C_monitor of int
  | C_invoke of int * int * int * bool
  | C_mixed of int * int * Types.t * bool
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
      (** Compiled code's opcodes ({!Lower.compile}): the first operand
          is the static cost, charged after one fuel event and before
          the action of the interpreted namesake; none pushes a
          statement's Void.  [C_invoke] and [C_mixed] push their result
          only when the flag is set.  A binary operator, interpreted
          ([Binop] and its superinstructions) or compiled, carries its
          {!Tessera_vm.Semantics.kernel}, resolved when the program is
          built. *)
  | K_cmp_br of int * Tessera_vm.Semantics.kernel * int * int * int * int
  | K_load_const_binop of int * int * int * int * int * Tessera_vm.Semantics.kernel
  | K_binop_binop of
      int * Tessera_vm.Semantics.kernel * int * Tessera_vm.Semantics.kernel
      (** Compiled code's superinstructions ({!fuse}): [K_cmp_br] is a
          comparison, [C_br_false] and [C_jmp] (charge, kernel, branch
          charge and false target, jump charge and true target), which
          builds no boolean; [K_load_const_binop] and [K_binop_binop]
          are what they name, each half's operands in order. *)

type t = {
  method_name : string;
  instrs : instr array;
  pool : Values.t array;
  block_of_pc : int array;
  block_entry : int array;
  handler_of_block : int array;
  local_types : Types.t array;
  local_is_arg : bool array;
  ret : Types.t;
  sync_charge : int;
  max_stack : int;
  fused_pairs : int;
}

val owner_blocks : code_size:int -> int array -> int array
(** The [block_of_pc] of code whose blocks are laid out in order from pc
    0, given their [block_entry]: every pc belongs to the last block
    entered at or before it ([-1] before the first entry).  Entries out
    of range are ignored; {!verify} rejects what this cannot express. *)

val fuse : t -> t
(** Apply the superinstruction pass to a verified program: the
    interpreted table (pairs) and the compiled table (pairs and
    triples).  Only instructions within one block fuse, so no
    jump lands on a dead slot; a superinstruction keeps the slots of
    the instructions it replaces (the ones after the first become dead
    padding, holding their original instructions) so no offsets move;
    [fused_pairs] counts the rewritten sites.  Allocates the copy of the
    array and the superinstructions it writes, nothing per instruction
    scanned. *)

val fuse_in_place : t -> t
(** {!fuse} without the copy: rewrites the program's own instruction
    array, so only for a program that nothing else holds (one just
    lowered or decoded). *)

val first_half : instr -> instr
(** The instruction a superinstruction's first slot held before {!fuse}
    (any other instruction is itself): mapped over a fused program's
    slots, it gives back the unfused program.  The code cache writes
    programs through it, so an entry's bytes do not depend on the
    fusion tables. *)

val verify : t -> (int, string) result
(** Structural soundness: block 0 starts at pc 0 and the blocks' entries
    rise from there, jump targets land on block entries, operand indices
    are in range, every block ends in a terminator, and the operand
    stack never underflows and is empty at block boundaries and after a
    [C_br_false].  Returns the maximum operand-stack depth on success.
    A superinstruction's dead slots are not looked at. *)

val code_size : t -> int

val width : instr -> int
(** The slots an instruction occupies: 2 or 3 for a superinstruction
    of two or three instructions (the slots after the first are dead
    padding), else 1. *)

val is_fused : instr -> bool
(** A superinstruction ({!fuse}). *)

val is_compiled_op : instr -> bool
(** One of compiled code's [C_] opcodes. *)

val kind : instr -> int
(** Dense instruction-kind index, for the dynamic pair census
    ({!Interp.census}) and the code cache's instruction tags. *)

val kind_count : int

val kind_name : int -> string
(** A compiled opcode shares its name with the interpreted action it
    carries ([C_binop] is ["binop"]), so profiles file both under one
    opcode. *)

val stack_io : instr -> int * int
(** (pops, pushes) of an instruction, as used by the verifier. *)
