(** The catalogue of controllable code transformations.

    The paper's Testarossa build exposes {b 58 distinct transformations}
    whose enablement a compilation-plan modifier controls (Section 5:
    bit i of a modifier enables/disables transformation i, and the search
    space is 2^58).  This module is the single source of truth for that
    numbering: modifiers, plans, the strategy-control protocol and the
    learned models all refer to transformations by their index here.

    Before running a transformation the pass manager consults
    {!entry.applicable} on the method's traits — mirroring the compiler's
    behaviour of "checking for method characteristics that might make the
    transformation meaningless" (e.g. loop transformations on loop-free
    methods). *)

module Meth = Tessera_il.Meth
module Program = Tessera_il.Program

type ctx = { program : Program.t }

(** Compile-effort class; the manager converts it to simulated cycles. *)
type weight = Cheap | Medium | Expensive | Very_expensive

(** Cheap method summary driving applicability checks. *)
type traits = {
  nodes : int;
  has_loops : bool;
  has_allocs : bool;
  has_sync : bool;
  has_arrays : bool;
  has_handlers : bool;
  has_calls : bool;
  has_casts : bool;
  has_decimals : bool;
  has_longdouble : bool;
  has_fp : bool;
  has_objects : bool;
  has_mixed : bool;
  has_heap_loads : bool;
  has_throws : bool;
  uses_bigdecimal : bool;
  uses_unsafe : bool;
}

val traits_of : Meth.t -> traits
(** One walk over the method's blocks and trees; allocates only the
    result. *)

type entry = {
  index : int;
  name : string;
  weight : weight;
  applicable : traits -> bool;
  run : ctx -> Meth.t -> Meth.t;
  quality_hint : int;
      (** back-end quality levels contributed when this transformation
          runs (register-allocation / scheduling hints) *)
}

val count : int
(** 58. *)

val all : entry array
(** [all.(i).index = i]. *)

val by_name : string -> entry option

val weight_cycles : weight -> int * int
(** [(base, per_node)] simulated compile cycles of one application. *)

val check_cycles : int
(** Cycles charged for an applicability check that skips the pass. *)
