(** Flat bytecode form of a method.

    [of_meth] lowers tree IL into a single instruction array with
    resolved jump offsets, a constant pool, and precomputed cycle
    charges, such that executing it under {!Interp.run} produces a
    fuel/charge event sequence bit-identical to the tree walker
    [Vm.Interp.run] — same results, same charged cycles, same
    out-of-fuel point.  [of_compiled] translates compiled code one to
    one: each [Isa] instruction becomes one flat instruction that takes
    one fuel event and one charge of its static cost, then acts.
    [fuse] rewrites the hottest instruction pairs (a static table
    measured by [bench flat]) into superinstructions that keep the
    exact observable sequence while halving dispatch overhead on those
    pairs. *)

module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Meth = Tessera_il.Meth
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
      (** Compiled code's opcodes ({!of_compiled}): the first operand is
          the static cost, charged after one fuel event and before the
          action of the interpreted namesake; none pushes a statement's
          Void.  [C_invoke] and [C_mixed] push their result only when
          the flag is set. *)

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

val of_meth : Meth.t -> t
(** Lower a method to its (unfused) flat form.  Runs {!verify}, checks
    that every block starts with [Enter], and raises [Invalid_argument]
    if the lowering is unsound — which would indicate a bug, as
    validated IL always lowers cleanly. *)

val of_compiled : Tessera_codegen.Isa.compiled -> t
(** Translate compiled code to its (unfused) flat form, one flat
    instruction per [Isa] instruction (so [code_size] equals the [Isa]
    code's length and flat pcs are [Isa] pcs): running it under
    {!Interp.run} charges the code's static costs with one fuel event
    per [Isa] instruction, after a prologue charge of the frame set-up
    (plus monitor entry for synchronized methods).  Runs {!verify} and
    raises [Invalid_argument] on malformed code. *)

val fuse : t -> t
(** Apply the superinstruction pass.  Fused pairs keep their two slots
    (the second becomes dead padding) so no offsets move;
    [fused_pairs] counts the rewritten sites. *)

val verify : t -> (int, string) result
(** Structural soundness: jump targets land on block entries, operand
    indices are in range, every block ends in a terminator, and the
    operand stack never underflows and is empty at block boundaries
    and after a [C_br_false].  Returns the maximum operand-stack depth
    on success. *)

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
