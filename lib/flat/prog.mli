(** Flat bytecode form of a method: a single instruction array with
    resolved jump offsets, a constant pool, and precomputed cycle
    charges.  It is the one form code runs in: {!Lower.of_meth} lowers
    interpreted methods to it, with a fuel/charge event sequence
    bit-identical to the tree walker [Vm.Interp.run]; {!Lower.compile},
    the code generator, emits compiled code in it, and the code cache
    stores that program.  [fuse] rewrites the hottest instruction pairs
    (a static table measured by [bench flat]) into superinstructions
    that keep the exact observable sequence while halving dispatch
    overhead on those pairs. *)

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
  | Binop of Opcode.t * Types.t
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
  | F_load_binop of int * int * Opcode.t * Types.t
  | F_const_binop of int * int * Opcode.t * Types.t
  | F_load_store of int * int * int * Types.t
  | F_binop_store of Opcode.t * Types.t * int * Types.t
  | F_store_pop of int * Types.t
  | F_inc_pop of int * int * int64 * Types.t
  | F_pop_begin of int
  | F_load_const of int * int * int * int
  | F_load_begin of int * int * int
  | F_binop_binop of Opcode.t * Types.t * Opcode.t * Types.t
  | C_inc_local of int * int * int64 * Types.t
  | C_store_local of int * int * Types.t
  | C_field_load of int * int
  | C_field_store of int * int
  | C_elem_load of int
  | C_elem_store of int
  | C_binop of int * Opcode.t * Types.t
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
          only when the flag is set. *)

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
(** Apply the superinstruction pass to a verified program.  Only pairs
    within one block fuse, so no jump lands on a second slot; fused
    pairs keep their two slots (the second becomes dead padding) so no
    offsets move; [fused_pairs] counts the rewritten sites. *)

val verify : t -> (int, string) result
(** Structural soundness: block 0 starts at pc 0 and the blocks' entries
    rise from there, jump targets land on block entries, operand indices
    are in range, every block ends in a terminator, and the operand
    stack never underflows and is empty at block boundaries and after a
    [C_br_false].  Returns the maximum operand-stack depth on success.
    A superinstruction's second slot (dead padding) is not looked at. *)

val code_size : t -> int

val width : instr -> int
(** 2 for superinstructions (their second slot is dead padding), else 1. *)

val is_fused : instr -> bool
(** A superinstruction ({!fuse}). *)

val is_compiled_op : instr -> bool
(** One of compiled code's [C_] opcodes. *)

val kind : instr -> int
(** Dense instruction-kind index, for the dynamic pair census. *)

val kind_count : int

val kind_name : int -> string
(** A compiled opcode shares its name with the interpreted action it
    carries ([C_binop] is ["binop"]), so profiles file both under one
    opcode. *)

val stack_io : instr -> int * int
(** (pops, pushes) of an instruction, as used by the verifier. *)
