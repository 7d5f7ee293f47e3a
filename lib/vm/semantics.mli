(** Value-level operational semantics, shared verbatim by the tree
    interpreter and the flat dispatch loop (which runs compiled code
    too) so the two cannot diverge: the differential property
    [interp(m) = flat(codegen(m))] reduces to both loops sequencing
    these primitives identically.  The flat form resolves each binary
    operator to its {!kernel} when it is built, and [binop] runs on the
    same kernels. *)

module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode

val truncate : Types.t -> int64 -> int64
(** Wrap an integer into the storage width of an integral type (sign
    behaviour matches the JVM: byte/short/int sign-extend, char
    zero-extends; other types keep all 64 bits).  A value already in
    range comes back as the argument itself. *)

val binop : Opcode.t -> Types.t -> Values.t -> Values.t -> Values.t
(** Arithmetic/logic/compare.  Integer [Div]/[Rem] by zero raises
    [Trap Div_by_zero]; results are truncated to the node type.  Runs
    the operator's {!kernel}; raises [Invalid_argument] on an opcode
    that is not binary. *)

(** {1 Kernels}

    A binary operator resolved once with its result type.  The flat
    form keeps the kernel in its instruction, so the loop does not
    decide the operator and the type again at each execution, and
    [binop] runs on the same kernels: both interpreters share one
    definition of integer arithmetic. *)

type kernel

val kernel : Opcode.t -> Types.t -> kernel option
(** The kernel of an arithmetic, logic, shift or comparison operator at
    a type; [None] for opcodes that are not binary.  Allocates nothing:
    every kernel is built at start-up. *)

val kernel_op : kernel -> Opcode.t
val kernel_ty : kernel -> Types.t

val apply : kernel -> Values.t -> Values.t -> Values.t
(** [apply k a b] is [binop (kernel_op k) (kernel_ty k) a b]; two
    [Int_v] operands of an integer kernel take its own code. *)

val test : kernel -> Values.t -> Values.t -> bool
(** [test k a b] is [Values.is_truthy (apply k a b)]; a comparison of two
    [Int_v] builds no value. *)

val neg : Types.t -> Values.t -> Values.t

val inc : Types.t -> Values.t -> int64 -> Values.t
(** [inc ty v d]: the local increment, [v + d] truncated to [ty]. *)

val cast : Opcode.cast_kind -> Types.t -> Values.t -> Values.t
(** Numeric conversions and reference reinterpretation.  [C_check] is the
    identity here; engines must route checkcasts through {!checkcast}. *)

val checkcast :
  classes:Tessera_il.Classdef.t array -> int -> Values.t -> Values.t
(** Raises [Trap Class_cast] when a non-null object is not an instance of
    the class; null and arrays pass. *)

val field_load : Values.t -> int -> Values.t
(** [field_load obj i]; raises [Trap Null_deref] / [Trap Out_of_bounds]. *)

val field_store : Values.t -> int -> Values.t -> unit

val elem_load : Values.t -> Values.t -> Values.t
(** Array element read with implicit null and bounds checks. *)

val elem_store : Values.t -> Values.t -> Values.t -> unit

val bounds_check : Values.t -> Values.t -> unit

val array_copy : Values.t -> Values.t -> Values.t -> int
(** Returns the element count actually copied (for dynamic cycle
    charging). *)

val array_cmp : Values.t -> Values.t -> Values.t * int
(** Lexicographic comparison; also returns elements inspected. *)

val array_length : Values.t -> Values.t

val new_obj : classes:Tessera_il.Classdef.t array -> int -> Values.t

val new_array : elem:Types.t -> Values.t -> Values.t
(** Raises [Trap Out_of_bounds] for negative or absurd (>2^20) lengths. *)

val new_multiarray : elem:Types.t -> Values.t -> Values.t -> Values.t
(** Raises [Trap Out_of_bounds] when a dimension is negative or either
    dimension, or their product, exceeds 2^20. *)

val instanceof : classes:Tessera_il.Classdef.t array -> int -> Values.t -> Values.t

val monitor : Values.t -> unit
(** Null check of the monitored object (single-threaded simulation). *)

val mixed : Types.t -> Values.t array -> Values.t
(** Deterministic stand-in for unclassified intrinsics: hashes the shallow
    shape of its operands into the result type. *)

val store_coerce : Types.t -> Values.t -> Values.t
(** Truncation performed by stores into a typed location.  Returns its
    argument itself when truncation changes nothing. *)
