(** The execution engine: a simulated JVM tying together the interpreter,
    the JIT compiler, the adaptive compilation controller, and an
    asynchronous compilation thread.

    Timing model: the application runs on a virtual core whose cycles are
    the {!Tessera_vm.Clock}.  Compilations run on a separate compilation
    thread: a request made at time [t] starts when the thread is free,
    takes the compilation's simulated cycles, and the new code installs at
    completion time — until then the method keeps running in its previous
    implementation (usually the interpreter).  A configurable contention
    factor charges a fraction of each compilation to the application
    thread, modelling shared pipeline/cache resources ("the compiler
    competes with the application for the same resources"). *)

module Program = Tessera_il.Program
module Values = Tessera_vm.Values
module Plan = Tessera_opt.Plan
module Modifier = Tessera_modifiers.Modifier

type impl = Interpreted | Compiled of Compiler.compilation

type method_state = {
  mutable impl : impl;
  mutable pending : (Compiler.compilation * int64) option;
      (** compiled code waiting for its install time *)
  mutable invocations : int;
  mutable acc_cycles : int64;  (** accumulated inclusive execution cycles *)
  mutable compile_count : int;
  mutable failed_attempts : int;
      (** consecutive failed compilation attempts; reset on success *)
  mutable no_more : bool;
      (** controller gave up on recompiling this (including quarantine
          after repeated compilation failures) *)
  mutable loop_cls : Triggers.loop_class option;
      (** cached; from {!Triggers.loop_class_of}, never a full extraction *)
  mutable features : Tessera_features.Features.t option;
      (** cached by {!features} *)
}

type config = {
  async_compile : bool;
  instrument : bool;  (** per-invocation TSC enter/exit instrumentation *)
  contention : float;  (** fraction of compile cycles charged to the app *)
  trigger_scale : float;
      (** multiplier on the adaptive controller's level-up triggers; data
          collection raises it so methods dwell at each level long enough
          to explore modifiers there *)
  target : Tessera_vm.Target.t;
      (** the back-end the JIT generates code for (platform-sensitivity
          studies deploy the same models on different targets) *)
  fuel_per_invocation : int;
  clock_seed : int64;
  adaptive : bool;  (** run the built-in adaptive controller *)
  compile_cycle_budget : int option;
      (** when set, a compilation whose simulated cycles exceed the
          budget is not installed; the engine degrades the method to the
          next-lower plan level (and ultimately the interpreter) *)
  code_cache : Tessera_cache.Codecache.t option;
      (** persistent compiled-code cache: every compilation request
          first looks up (method IL fingerprint, target, level,
          modifier); a hit installs immediately for 2,000 cycles (the
          simulated cost of relocating AOT code into the code heap,
          small next to any compilation) and counts as a {e cache hit},
          not a compilation; every successful compilation is written
          back.  Corrupt or stale entries are dropped by the cache layer
          and simply recompile *)
}

val default_config : config

type t

type callbacks = {
  choose_modifier : (t -> meth_id:int -> level:Plan.level -> Modifier.t option) option;
      (** consulted before each compilation; [None] from the callback
          means "do not compile now and stop recompiling this method".
          Unset: always the null modifier. *)
  on_compiled : (t -> meth_id:int -> Compiler.compilation -> unit) option;
  on_sample : (t -> meth_id:int -> cycles:int64 -> valid:bool -> unit) option;
      (** per-invocation instrumentation sample with {e exclusive} (self)
          cycles — callee time is reported against the callees; [valid] is
          false when the enter/exit processor ids differ (TSC-drift
          discard) *)
  post_invoke : (t -> meth_id:int -> unit) option;
      (** extra controller logic (data collection uses this to trigger
          fixed-threshold recompilations) *)
  pre_compile : (t -> meth_id:int -> level:Plan.level -> unit) option;
      (** run just before each compilation; raising aborts that
          compilation and exercises the failure/quarantine paths (the
          fault injector hooks in here) *)
}

val no_callbacks : callbacks

val create : ?config:config -> ?callbacks:callbacks -> Program.t -> t

val program : t -> Program.t
val state : t -> int -> method_state
val clock_now : t -> int64

val features : t -> int -> Tessera_features.Features.t
(** [features t meth_id] is [Features.extract ~program] of the method,
    extracted at its first request and then memoized for the engine's
    lifetime.  Only readers ask: the model query ([choose_modifier]) and
    the data collectors' [on_compiled].  Compilation and cache loads
    extract nothing, so an engine with neither reader never extracts.
    Snapshots carry the memo, so forked branches inherit it.  The memo
    is per engine, never per process: each start-up pays for the
    extractions its readers need. *)

(** {1 Compilation forking}

    The engine is a deterministic simulation: its entire future is a
    function of the virtual clock (cycles, core, migration RNG), the
    per-method states (installed code, pending installs, trigger
    counters, the loop-class and feature memos), the compilation-thread
    horizon, and the per-engine flat-form memo.  {!snapshot} deep-copies
    exactly that state, and {!restore} rewinds an engine to it — so a
    data collector can keep a snapshot at each compile decision point
    and later start one branch per candidate modifier from it, each a
    fresh engine ([create] over the same program and config, then
    [restore]), measuring every candidate from a single warm run
    ("compilation forking", see DESIGN.md §15).

    Metrics and trace output are observables, not simulation inputs:
    they are {e not} captured or rolled back (a restored engine keeps
    its monotonic counters).  A snapshot is independent of the engine
    it came from, which may run on; one snapshot may seed any number of
    engines, and every [restore] copies the state afresh. *)

type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Rewind [t] to [snapshot].  The snapshot must come from an engine
    over the same program (raises [Invalid_argument] otherwise). *)

val claim_trace_source : t -> unit
(** Re-register this engine's clock as the calling domain's trace cycle
    source ({!Tessera_obs.Trace.set_cycle_source}).  [create] claims
    it implicitly; a trunk engine re-claims after branch engines were
    created on the same domain. *)

val invoke_entry : t -> Values.t array -> (Values.t, Values.trap) result
(** One invocation of the program's entry method, with trap capture and a
    fresh fuel budget. *)

val invoke_method : t -> int -> Values.t array -> (Values.t, Values.trap) result
(** Invoke an arbitrary method from outside (used by tests/examples). *)

val request_compile :
  t -> meth_id:int -> level:Plan.level -> ?modifier:Modifier.t -> unit -> unit
(** Explicit compilation request (the controller's and collector's tool).
    Consults [choose_modifier] only when [modifier] is not given; a
    [choose_modifier] that raises falls back to the default (null
    modifier) plan.  A compilation that raises leaves the method on its
    current implementation, counts a failure, and quarantines the method
    after two consecutive failures; one that exceeds
    [compile_cycle_budget] is degraded level by level toward the
    interpreter.  Never raises. *)

(** {1 Metrics}

    Every aggregate counter below lives in a per-engine
    {!Tessera_obs.Metrics} registry (one simulated JVM, one registry) —
    the accessors are thin compatibility wrappers reading that single
    surface.  {!metrics} exposes the registry itself for Prometheus-style
    exposition ([tessera_run --metrics-out], the server's [Stats]
    request). *)

val metrics : t -> Tessera_obs.Metrics.t
(** The engine's registry: [jit_compilations_total],
    [jit_compile_cycles_total], [jit_compile_failures_total],
    [jit_budget_rejections_total], [jit_degraded_compiles_total],
    [jit_quarantined_methods_total], [jit_modifier_fallbacks_total],
    [jit_cache_hits_total], per-level [jit_compilations_<level>_total],
    the [jit_compile_queue_depth] gauge, and the [jit_compilation_cycles]
    histogram. *)

val app_cycles : t -> int64
val total_compile_cycles : t -> int64
val compile_count : t -> int
val compiles_by_level : t -> (Plan.level * int) list
val methods_compiled : t -> int

(** {1 Degradation metrics} *)

val compile_failures : t -> int
(** Compilations that raised (including injected faults). *)

val budget_rejections : t -> int
(** Compilations rejected for exceeding [compile_cycle_budget]. *)

val degraded_compiles : t -> int
(** Budget rejections that retried at a lower plan level. *)

val quarantined_methods : t -> int
(** Methods pinned to their current implementation after repeated
    failures (or an unaffordable cold plan). *)

val modifier_fallbacks : t -> int
(** Compilations that used the default plan because [choose_modifier]
    raised. *)

(** {1 Code-cache metrics} *)

val cache_hits : t -> int
(** Compilation requests satisfied from the persistent code cache (AOT
    loads); 0 when no cache is configured. *)

val cache_counters : t -> Tessera_cache.Store.counters option
(** The configured cache's own hit/miss/evict/stale/corrupt counters. *)
