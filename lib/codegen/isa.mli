(** The target instruction set.

    "Native code" in the simulation is a compact stack-machine program:
    close enough to a real back end that instruction count and shape are
    determined by the optimized IL, while keeping lowering simple and
    provably semantics-preserving.  Per-instruction cycle costs are
    computed once at code-generation time (including optimization-flag
    discounts and register-allocation quality) and stored alongside the
    instructions.  The code cache stores this form; the engine runs it
    on the flat loop after [Tessera_flat.Prog.of_compiled] translates
    it. *)

module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode

type instr =
  | Const of Types.t * int64
  | Load_local of int
  | Store_local of int * Types.t
  | Inc_local of int * int64 * Types.t
  | Field_load of int
  | Field_store of int
  | Elem_load
  | Elem_store
  | Binop of Opcode.t * Types.t
  | Negate of Types.t
  | Cast_to of Opcode.cast_kind * Types.t
  | Checkcast of int
  | New_obj of int
  | New_arr of Types.t
  | New_multi of Types.t
  | Instance_of of int
  | Monitor of bool  (** [true] when a monitored object is on the stack *)
  | Invoke of int * int * Types.t  (** callee id, arg count, return type *)
  | Mixed_op of int * Types.t  (** operand count, result type *)
  | Bounds_chk
  | Arr_copy
  | Arr_cmp
  | Arr_len
  | Pop
  | Jump of int  (** absolute pc *)
  | Jump_if_false of int
  | Ret of bool  (** [true] when a return value is on the stack *)
  | Throw_instr

type compiled = {
  method_name : string;
  instrs : instr array;
  costs : int array;  (** static cycles per instruction *)
  block_of_pc : int array;  (** source block of each pc, for handlers *)
  block_start : int array;  (** entry pc of each source block *)
  handler_of_block : int array;  (** handler block id or -1 *)
  local_types : Types.t array;
  ret : Types.t;
  nargs : int;
  sync_method : bool;
  quality : Tessera_vm.Cost.codegen_quality;
  code_size : int;  (** = Array.length instrs; a code-bloat measure *)
}

val pp_instr : Format.formatter -> instr -> unit
val pp : Format.formatter -> compiled -> unit
