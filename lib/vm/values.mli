(** Runtime values of the simulated JVM.

    Integral types (including the BCD decimal types, which Tessera models
    as 64-bit fixed-point integers) are carried as [int64] and truncated
    to their storage width on stores and casts ([Semantics.truncate]);
    floating types are carried as [float]. *)

type obj = { class_id : int; fields : t array }

and arr = { elem : Tessera_il.Types.t; data : t array }

and t =
  | Int_v of int64
  | Float_v of float
  | Obj_v of obj
  | Arr_v of arr
  | Null_v
  | Void_v

type trap =
  | Div_by_zero
  | Out_of_bounds
  | Null_deref
  | Class_cast
  | User_exception

exception Trap of trap

val trap_name : trap -> string

val default : Tessera_il.Types.t -> t
(** Zero / null / unit value of a type. *)

val as_int : t -> int64
(** Coerces; [Null_v] reads as [0L] so comparisons against null work.
    Raises [Trap Null_deref] on object/array values used as numbers. *)

val as_float : t -> float

val is_truthy : t -> bool
(** Branch condition: nonzero / non-null. *)

val equal : t -> t -> bool
(** Structural equality; object identity for [Obj_v]/[Arr_v] is replaced
    by deep structural comparison with cycle-unsafe recursion (the
    workload generator never builds cyclic graphs). *)

val checksum : t -> int64
(** Deterministic digest used by differential tests to compare executions
    across engines. *)

val pp : Format.formatter -> t -> unit
