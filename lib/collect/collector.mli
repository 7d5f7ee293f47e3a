(** Data collection (Section 4): runs a benchmark under an instrumented
    engine, exploring compilation-plan modifiers per method and producing
    a binary archive of experiment records.

    The flow mirrors Figure 2 of the paper: the VM's adaptive heuristics
    still decide {e when} to compile and at {e which} level; the strategy
    control draws the next pre-computed modifier for that level from the
    queue and the JIT compiles with it.  Instrumented enter/exit samples
    (with TSC-drift discard) accumulate into the record of the method's
    current compiled version.  After a computed per-method invocation
    threshold — targeting 0.25 virtual milliseconds of accumulated
    running time between compilations, clamped to [10, 2000] (the
    paper's 10 ms and [50, 50000], scaled to this simulation's ~100x
    smaller invocation volumes) — the collector requests a
    recompilation at the method's current level,
    moving exploration to the next modifier.  A method whose queue is
    exhausted is never recompiled again; when every queue is exhausted the
    collection terminates gracefully. *)

module Plan = Tessera_opt.Plan
module Values = Tessera_vm.Values
module Program = Tessera_il.Program

(** Parameters of the compilation-forking collector ({!search} [Fork]).

    The trunk run is a plain adaptive execution (null modifiers); every
    first compilation of a method at a collected level marks a {e fork
    point}.  A collection runs in two phases.  First the trunk runs its
    whole invocation budget: at the first entry-invocation boundary
    where a fork point's install has landed, the collector keeps one
    snapshot of the trunk ({!Tessera_jit.Engine.snapshot}) and queues one
    {e branch} per candidate modifier.  Then one pool on [jobs] domains
    runs every branch of the collection, each on a fresh engine restored
    from its fork point's snapshot: the branch recompiles the method
    with its candidate and executes up to [uses_per_modifier] entry
    invocations on its private clock, producing one record — so a single
    warm run yields the full (method × modifier) training matrix instead
    of one modifier per recompilation.  Records come in decision order,
    then candidate order, whatever [jobs] is.

    A branch that raises fails the whole collection with the exception
    of the lowest-indexed failing branch (decision order, then candidate
    order), raised only after the trunk has used up its budget and every
    branch has run. *)
type fork_params = {
  strategy : Tessera_modifiers.Queue_ctrl.strategy;
      (** generates the candidate set per level
          ({!Tessera_modifiers.Queue_ctrl.generate}); the null modifier
          is always prepended *)
  fanout : int;
      (** candidates (beyond null) measured per fork point; [0] means
          the strategy's full sequence *)
  jobs : int;
      (** domains of the one branch pool (branches are independent) *)
  reexec : bool;
      (** measure branches from a {e re-executed} fork point (a fresh
          engine replayed to the same entry boundary, in the same pool)
          instead of a snapshot.  Slower but snapshot-free: by engine
          determinism the resulting archive must be record-for-record
          identical, which is the differential oracle validating
          snapshot/restore *)
}

val fork_defaults : Tessera_modifiers.Queue_ctrl.strategy -> fork_params
(** [{ strategy; fanout = 0; jobs = 1; reexec = false }] *)

(** How the modifier space is explored. *)
type search =
  | Queue of Tessera_modifiers.Queue_ctrl.strategy
      (** the paper's pre-computed queues (randomized / Eq.-1 progressive) *)
  | Guided of Tessera_modifiers.Guided.params
      (** the paper's future work: per-method hill climbing on the Eq.-2
          ranking value observed during collection *)
  | Fork of fork_params
      (** compilation forking: every candidate measured from a snapshot
          of one warm run (DESIGN.md §15) *)

type config = {
  levels : Plan.level list;  (** levels explored (paper: cold, warm, hot) *)
  search : search;
  uses_per_modifier : int;
  seed : int64;
  max_entry_invocations : int;  (** run budget *)
  target : Tessera_vm.Target.t;  (** back end the data is collected on *)
  fuel_per_invocation : int;
      (** per-invocation fuel budget of every engine the collector
          creates (trunk, branches, replays) *)
}

val default_config : config

type stats = {
  entry_invocations : int;  (** trunk invocations only *)
  records : int;
  discarded_samples : int;
  compilations : int;  (** trunk compilations only *)
  forks : int;  (** fork points expanded (0 for sweep searches) *)
  branches : int;  (** branches run across all fork points *)
  branch_invocations : int;  (** entry invocations executed in branches *)
  skipped_decisions : int;
      (** fork points never expanded because the trunk install was still
          pending when the invocation budget ran out *)
}

val run :
  ?config:config ->
  program:Program.t ->
  benchmark:string ->
  entry_args:(int -> Values.t array) ->
  unit ->
  Archive.t * stats
