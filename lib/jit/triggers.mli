(** Compilation triggers.

    For each optimization level Testarossa uses three distinct compilation
    triggers, keyed on loop structure: methods that contain loops compile
    sooner than loop-free methods, and sooner still when the loops may
    iterate many times (footnote 6 of the paper).  The trigger value
    [T_h] also normalizes compilation cost in the ranking function,
    Eq. (2). *)

type loop_class = No_loops | Has_loops | Many_iterations

val loop_class_of : Tessera_il.Meth.t -> loop_class
(** From {!Tessera_features.Features.loop_attributes} alone: the same
    class as [loop_class_of_features (Features.extract m)], without the
    dataflow analyses a full extraction runs. *)

val loop_class_of_features : Tessera_features.Features.t -> loop_class
(** Same classification from an already-extracted feature vector. *)

val trigger : Tessera_opt.Plan.level -> loop_class -> int
(** Invocation count at which a method becomes eligible for compilation
    at the level. *)

val sample_promote_cycles : int64
(** Accumulated-execution-cycle threshold at which the sampling mechanism
    promotes a method regardless of its invocation count (methods that
    "spend a significant amount of time during fewer invocations"). *)

val failure_backoff : int -> int
(** [failure_backoff attempts] multiplies a method's compilation trigger
    after [attempts] consecutive failed compilations ([2^attempts],
    capped at 64): a method whose compilations keep failing is retried
    ever more reluctantly until quarantine. *)
