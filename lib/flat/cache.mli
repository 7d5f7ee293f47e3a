(** Instrumented lowering to flat form. *)

val flatten : Tessera_il.Meth.t -> Prog.t
(** [Lower.of_meth] inside a [flatten] trace span, counted by the
    [flat_flatten_total] counter of the default metrics registry.
    Uncached: engines keep their own per-method memo. *)
