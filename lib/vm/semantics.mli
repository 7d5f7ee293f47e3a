(** Value-level operational semantics, shared verbatim by the tree
    interpreter and the flat dispatch loop (which runs compiled code
    too) so the two cannot diverge: the differential property
    [interp(m) = flat(codegen(m))] reduces to both loops sequencing
    these primitives identically. *)

module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode

val binop : Opcode.t -> Types.t -> Values.t -> Values.t -> Values.t
(** Arithmetic/logic/compare.  Integer [Div]/[Rem] by zero raises
    [Trap Div_by_zero]; results are truncated to the node type. *)

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
