(** Method feature extraction (Section 4.1 of the paper).

    A feature vector has 71 numerical attributes, extracted from the
    compiler just prior to the optimization stage:

    - {b 19 scalar features} (Table 1): 4 counters (exception handlers,
      arguments, temporaries, tree nodes) and 15 binary attributes
      (constructor/final/protected/public/static/synchronized, the three
      loop attributes, allocates-dynamic-memory, unsafe symbols,
      uses-BigDecimal, virtual-method-overridden, strict floating point,
      uses floating point);
    - {b 14 type-distribution features} (Table 2), counted with 16-bit
      saturating counters;
    - {b 38 operation-distribution features} (Table 3), counted with 8-bit
      saturating counters.

    The distributions are computed in a single pass over the tree-based
    representation of the method.

    On top of the paper's 71 attributes this implementation appends
    {!analysis_count} dataflow-derived components from
    {!Tessera_analysis.Summary} (live-slot pressure, provably-constant
    expression fraction, pure-call share, loop-nest depth, reaching-def
    density), each saturated to a byte. *)

type t = private int array
(** Always of length {!dim}; component order is scalars, then type
    distributions, then operation distributions, then the
    analysis-derived components. *)

val dim : int
(** 76: the paper's 71 plus {!analysis_count}. *)

val scalar_count : int
(** 19. *)

val analysis_count : int
(** 5 dataflow-analysis components appended after the distributions. *)

val extract : ?program:Tessera_il.Program.t -> Tessera_il.Meth.t -> t
(** Deterministic; does not modify the method.  [program] enables the
    interprocedural pure-call-share component (0 when absent). *)

val get : t -> int -> int

val to_array : t -> int array
(** Fresh copy. *)

val of_array : int array -> t
(** Validates the length. *)

val component_name : int -> string
(** Human-readable name of a feature index, e.g. ["treeNodes"],
    ["type:double"], ["op:loadconst"],
    ["dataflow:live_slot_pressure"]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Lexicographic — the order used to aggregate experiment records per
    unique feature vector during ranking (Section 6). *)

val hash : t -> int
val pp : Format.formatter -> t -> unit

(** {1 Loop attributes}

    The loop scalar features come from thresholds on loop structure:
    "may have loops" is the presence of a backward branch; the
    many-iteration attributes come from loop-count thresholds and
    nesting. *)

val many_iteration_nest_threshold : int
(** Nesting depth at or above which loops are classified many-iteration
    (2: a nested loop multiplies trip counts). *)

type loop_attributes = {
  may_have_loops : bool;  (** component 11, [mayHaveLoops] *)
  many_iteration_loops : bool;  (** component 10, [manyIterationLoops] *)
  may_have_many_iteration_loops : bool;
      (** component 12, [mayHaveManyIterationLoops] *)
}

val loop_attributes : Tessera_il.Meth.t -> loop_attributes
(** The three loop scalars of {!extract}, without the distributions or
    the dataflow components: loop detection plus the backward-branch
    test, a small fraction of a full extraction.  The JIT's trigger
    ladder reads only these. *)
