(** The pass manager: applies a compilation plan, optionally filtered by a
    plan modifier, charging simulated compile cycles per application. *)

module Meth = Tessera_il.Meth
module Program = Tessera_il.Program

type result = {
  meth : Meth.t;  (** optimized method IR *)
  quality : Tessera_vm.Cost.codegen_quality;
  opt_cycles : int;  (** cycles spent in the optimizer *)
  front_cycles : int;  (** IL generation (charged per compilation) *)
  back_cycles : int;  (** code generation, grows with final IR size *)
  applied : int list;  (** catalogue indices actually executed, in order *)
  skipped_inapplicable : int list;
  disabled : int list;  (** applications suppressed by the modifier *)
  initial_nodes : int;  (** IL nodes of the input method *)
  final_nodes : int;  (** IL nodes of [meth] *)
}

val total_cycles : result -> int
(** Front + optimizer + back cycles: the "compilation time" of the
    paper's figures. *)

type pass_audit =
  pass_index:int ->
  pass_name:string ->
  before:Meth.t ->
  after:Meth.t ->
  unit
(** Called after each executed pass with the method before and after.
    Must not raise in production paths (the engine quarantines compile
    failures); the lint auditor collects instead. *)

val lint_hook : (Program.t -> pass_audit) option ref
(** Global fallback audit factory, consulted by {!optimize} when no
    explicit [?audit] is given.  Set by [Tessera_analysis.Lint.install]
    — a dependency inversion, since the analysis library sits above
    this one. *)

val optimize :
  ?enabled:(int -> bool) ->
  ?validate:bool ->
  ?audit:pass_audit ->
  ?quality_floor:Tessera_vm.Cost.codegen_quality ->
  program:Program.t ->
  plan:int list ->
  Meth.t ->
  result
(** A pass that changes nothing hands back its input itself ([==]), and
    the method's {!Catalog.traits} are taken again only when a pass
    returned a new method.  [audit] still sees every executed pass, with
    [after == before] when it changed nothing.

    [enabled i] says whether catalogue transformation [i] is enabled (the
    modifier bit of Section 5); defaults to all-enabled.  [validate]
    checks IR well-formedness after every pass and raises on violation —
    used by tests to pinpoint a faulty transformation.  [audit] observes
    every executed pass (before/after); when omitted, {!lint_hook}
    supplies one if installed.  [quality_floor] is the minimum back-end
    tier regardless of which hint transformations ran — the higher
    optimization levels ship with a stronger baseline register allocator
    that plan modifiers cannot turn off. *)
