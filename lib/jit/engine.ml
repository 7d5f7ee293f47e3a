module Program = Tessera_il.Program
module Meth = Tessera_il.Meth
module Values = Tessera_vm.Values
module Clock = Tessera_vm.Clock
module Interp = Tessera_vm.Interp
module Plan = Tessera_opt.Plan
module Modifier = Tessera_modifiers.Modifier
module Features = Tessera_features.Features
module Codecache = Tessera_cache.Codecache
module Flat_interp = Tessera_flat.Interp
module Trace = Tessera_obs.Trace
module Metrics = Tessera_obs.Metrics

type impl = Interpreted | Compiled of Compiler.compilation

type method_state = {
  mutable impl : impl;
  mutable pending : (Compiler.compilation * int64) option;
  mutable invocations : int;
  mutable acc_cycles : int64;
  mutable compile_count : int;
  mutable failed_attempts : int;
  mutable no_more : bool;
  mutable loop_cls : Triggers.loop_class option;
  mutable features : Features.t option;
}

type config = {
  async_compile : bool;
  instrument : bool;
  contention : float;
  trigger_scale : float;  (** multiplier on adaptive level-up triggers *)
  target : Tessera_vm.Target.t;  (** back-end the JIT generates code for *)
  fuel_per_invocation : int;
  clock_seed : int64;
  adaptive : bool;
  compile_cycle_budget : int option;
  code_cache : Codecache.t option;  (** persistent compiled-code cache *)
}

let default_config =
  {
    async_compile = true;
    instrument = false;
    contention = 0.02;
    trigger_scale = 1.0;
    target = Tessera_vm.Target.zircon;
    fuel_per_invocation = 200_000_000;
    clock_seed = 0xC10CL;
    adaptive = true;
    compile_cycle_budget = None;
    code_cache = None;
  }

(* parallel compilation threads: the queue drains this many times
   faster, while compilation-time metrics still count total cycles *)
let compile_threads = 2

(* failed compilation attempts tolerated per method before it is
   quarantined to its current implementation *)
let max_compile_attempts = 2

(* cycles charged per cache hit: the simulated cost of relocating AOT
   code into the code heap, small next to any compilation *)
let aot_load_cycles = 2_000

type t = {
  program : Program.t;
  clock : Clock.t;
  states : method_state array;
  config : config;
  callbacks : callbacks;
  mutable compile_thread_free : int64;
  mutable pending_count : int;  (** methods queued for async install *)
  (* every aggregate counter lives in the per-engine metrics registry —
     the one surface every reporter (CLI, server stats, tests) reads;
     the .mli accessors below are thin wrappers over it *)
  metrics : Metrics.t;
  m_compilations : Metrics.counter;
  m_compile_cycles : Metrics.counter;
  m_compile_failures : Metrics.counter;
  m_budget_rejections : Metrics.counter;
  m_degraded : Metrics.counter;
  m_quarantined : Metrics.counter;
  m_modifier_fallbacks : Metrics.counter;
  m_cache_hits : Metrics.counter;
  m_by_level : Metrics.counter array;
  m_queue_depth : Metrics.gauge;
  m_compile_hist : Metrics.histogram;
  fuel : int ref;
  (* lazily flattened tree IL of each interpreted method.  Per-engine
     (not process-wide) so that same-seed engines produce byte-identical
     traces: each run flattens at the same virtual-cycle points. *)
  flat_forms : Tessera_flat.Prog.t option array;
  (* cycles consumed by direct callees of the currently-executing method,
     for exclusive (self-time) instrumentation samples *)
  mutable callee_acc : int64 ref;
}

and callbacks = {
  choose_modifier : (t -> meth_id:int -> level:Plan.level -> Modifier.t option) option;
  on_compiled : (t -> meth_id:int -> Compiler.compilation -> unit) option;
  on_sample : (t -> meth_id:int -> cycles:int64 -> valid:bool -> unit) option;
  post_invoke : (t -> meth_id:int -> unit) option;
  pre_compile : (t -> meth_id:int -> level:Plan.level -> unit) option;
}

let no_callbacks =
  {
    choose_modifier = None;
    on_compiled = None;
    on_sample = None;
    post_invoke = None;
    pre_compile = None;
  }

let create ?(config = default_config) ?(callbacks = no_callbacks) program =
  let clock = Clock.create ~seed:config.clock_seed () in
  (* events from clock-less subsystems (cache, protocol, faults) stamp
     with this engine's virtual time; last-created engine wins, which is
     right for the sequential runs the harness does *)
  Trace.set_cycle_source (fun () -> Clock.now clock);
  let metrics = Metrics.create () in
  let counter name help = Metrics.counter metrics ~help name in
  {
    program;
    clock;
    states =
      Array.init (Program.method_count program) (fun _ ->
          {
            impl = Interpreted;
            pending = None;
            invocations = 0;
            acc_cycles = 0L;
            compile_count = 0;
            failed_attempts = 0;
            no_more = false;
            loop_cls = None;
            features = None;
          });
    config;
    callbacks;
    compile_thread_free = 0L;
    pending_count = 0;
    metrics;
    m_compilations =
      counter "jit_compilations_total" "successful JIT compilations installed";
    m_compile_cycles =
      counter "jit_compile_cycles_total"
        "total simulated cycles spent in the compiler";
    m_compile_failures =
      counter "jit_compile_failures_total"
        "compilations that raised (including injected faults)";
    m_budget_rejections =
      counter "jit_budget_rejections_total"
        "compilations rejected for exceeding the cycle budget";
    m_degraded =
      counter "jit_degraded_compiles_total"
        "budget rejections retried at a lower plan level";
    m_quarantined =
      counter "jit_quarantined_methods_total"
        "methods pinned to their current implementation";
    m_modifier_fallbacks =
      counter "jit_modifier_fallbacks_total"
        "compilations on the default plan because the predictor raised";
    m_cache_hits =
      counter "jit_cache_hits_total"
        "compilation requests satisfied by the persistent code cache";
    m_by_level =
      Array.map
        (fun level ->
          counter
            (Printf.sprintf "jit_compilations_%s_total" (Plan.level_name level))
            (Printf.sprintf "compilations at the %s level"
               (Plan.level_name level)))
        Plan.levels;
    m_queue_depth =
      Metrics.gauge metrics
        ~help:"methods with compiled code awaiting async install"
        "jit_compile_queue_depth";
    m_compile_hist =
      Metrics.histogram metrics
        ~help:"simulated cycles per compiler run" "jit_compilation_cycles";
    fuel = ref 0;
    flat_forms = Array.make (Program.method_count program) None;
    callee_acc = ref 0L;
  }

let program t = t.program
let state t i = t.states.(i)
let clock_now t = Clock.now t.clock
let metrics t = t.metrics

let claim_trace_source t = Trace.set_cycle_source (fun () -> Clock.now t.clock)

(* ------------------------------------------------------------------ *)
(* Compilation forking: snapshot / restore of the deterministic state   *)
(* ------------------------------------------------------------------ *)

(* Everything the simulation's future depends on: the virtual clock
   (cycles, core, migration schedule, RNG), every method's state
   (implementation, pending install, trigger counters, loop-class and
   feature memos), the compilation thread, the fuel/self-time
   accumulators, and the flat-form memo (flattening points are
   per-engine so same-seed engines stay byte-identical).  Metrics and
   trace state are observables, not inputs, and are deliberately NOT
   part of a snapshot: restoring never rolls a monotonic counter
   backwards. *)
type snapshot = {
  snap_clock : Clock.t;
  snap_states : method_state array;
  snap_compile_thread_free : int64;
  snap_pending_count : int;
  snap_fuel : int;
  snap_callee_acc : int64;
  snap_flat_forms : Tessera_flat.Prog.t option array;
}

(* method_state fields hold immutable values (compilations, levels,
   feature vectors), so a record copy is a deep copy of the
   deterministic state *)
let copy_method_state (st : method_state) = { st with impl = st.impl }

let snapshot t =
  {
    snap_clock = Clock.copy t.clock;
    snap_states = Array.map copy_method_state t.states;
    snap_compile_thread_free = t.compile_thread_free;
    snap_pending_count = t.pending_count;
    snap_fuel = !(t.fuel);
    snap_callee_acc = !(t.callee_acc);
    snap_flat_forms = Array.copy t.flat_forms;
  }

(* restore copies out of the snapshot again, so one snapshot can seed
   any number of forked branches *)
let restore t snap =
  if Array.length t.states <> Array.length snap.snap_states then
    invalid_arg "Engine.restore: snapshot from a different program";
  Clock.restore t.clock snap.snap_clock;
  Array.iteri
    (fun i st -> t.states.(i) <- copy_method_state st)
    snap.snap_states;
  t.compile_thread_free <- snap.snap_compile_thread_free;
  t.pending_count <- snap.snap_pending_count;
  Metrics.set_gauge t.m_queue_depth (float_of_int t.pending_count);
  t.fuel := snap.snap_fuel;
  t.callee_acc <- ref snap.snap_callee_acc;
  Array.blit snap.snap_flat_forms 0 t.flat_forms 0 (Array.length t.flat_forms)

let meth_name t meth_id = (Program.meth t.program meth_id).Meth.name

let impl_level_name = function
  | Interpreted -> "interpreter"
  | Compiled c -> Plan.level_name c.Compiler.level

(* shared arg prefix of every jit trace event *)
let targs t meth_id rest = ("meth", Trace.Str (meth_name t meth_id)) :: rest

let loop_class t meth_id =
  let st = t.states.(meth_id) in
  match st.loop_cls with
  | Some c -> c
  | None ->
      let c = Triggers.loop_class_of (Program.meth t.program meth_id) in
      st.loop_cls <- Some c;
      c

(* A method's IL never changes inside an engine, so its feature vector
   is extracted at most once, by whichever reader asks first: the model
   query or a collector.  Compilation itself reads none. *)
let features t meth_id =
  let st = t.states.(meth_id) in
  match st.features with
  | Some f -> f
  | None ->
      let f =
        Features.extract ~program:t.program (Program.meth t.program meth_id)
      in
      st.features <- Some f;
      f

(* Every install site goes through here.  The method never runs
   interpreted again, so its flattened tree IL is dropped. *)
let set_compiled t meth_id st comp =
  st.impl <- Compiled comp;
  st.pending <- None;
  t.flat_forms.(meth_id) <- None

let install_if_ready t meth_id st =
  match st.pending with
  | Some (comp, at) when Int64.compare (Clock.now t.clock) at >= 0 ->
      let prev = st.impl in
      set_compiled t meth_id st comp;
      t.pending_count <- t.pending_count - 1;
      Metrics.set_gauge t.m_queue_depth (float_of_int t.pending_count);
      if !Trace.enabled then begin
        let now = Clock.now t.clock in
        let level = Plan.level_name comp.Compiler.level in
        Trace.instant ~cycles:now ~cat:"jit"
          ~args:
            (targs t meth_id
               [
                 ("level", Trace.Str level);
                 ("queue_wait", Trace.Int (Int64.sub now at));
               ])
          "install";
        Trace.instant ~cycles:now ~cat:"jit"
          ~args:
            (targs t meth_id
               [
                 ("from", Trace.Str (impl_level_name prev));
                 ("level", Trace.Str level);
               ])
          "promote";
        Trace.counter ~cycles:now ~cat:"jit" "compile_queue_depth"
          t.pending_count
      end
  | _ -> ()

let lower_level = function
  | Plan.Scorching -> Some Plan.Very_hot
  | Plan.Very_hot -> Some Plan.Hot
  | Plan.Hot -> Some Plan.Warm
  | Plan.Warm -> Some Plan.Cold
  | Plan.Cold -> None

let quarantine t meth_id st =
  if not st.no_more then begin
    st.no_more <- true;
    Metrics.inc t.m_quarantined;
    if !Trace.enabled then
      Trace.instant ~cycles:(Clock.now t.clock) ~cat:"jit"
        ~args:(targs t meth_id [])
        "quarantine"
  end

let cache_key t ~meth_id ~level ~modifier =
  Codecache.fingerprint ~target:t.config.target ~level ~modifier
    (Program.meth t.program meth_id)

(* An AOT load: cached code installs immediately (no compilation thread,
   no contention) for a small fixed cycle charge.  It is not a
   compilation — compile_count, per-level counts, and [on_compiled] are
   untouched, which is what lets a warm run report zero compilations. *)
let install_cached t ~meth_id (st : method_state) comp =
  Metrics.inc t.m_cache_hits;
  st.failed_attempts <- 0;
  Clock.advance t.clock aot_load_cycles;
  let prev = st.impl in
  set_compiled t meth_id st comp;
  if !Trace.enabled then begin
    let now = Clock.now t.clock in
    let level = Plan.level_name comp.Compiler.level in
    Trace.instant ~cycles:now ~cat:"jit"
      ~args:
        (targs t meth_id
           [
             ("level", Trace.Str level);
             ("modifier", Trace.Str (Modifier.to_string comp.Compiler.modifier));
           ])
      "cache_hit";
    Trace.instant ~cycles:now ~cat:"jit"
      ~args:
        (targs t meth_id
           [ ("from", Trace.Str (impl_level_name prev)); ("level", Trace.Str level) ])
      "promote"
  end

let install t ~meth_id ~level ~write_back (st : method_state) comp =
  (match write_back with
  | Some (cache, key) ->
      (* whatever we just paid to compile is the warm start of the next
         run (a cache failure must never fail the engine) *)
      (try Codecache.store cache ~key comp with _ -> ())
  | None -> ());
  Metrics.inc t.m_compilations;
  Metrics.inc t.m_by_level.(Plan.level_index level);
  st.compile_count <- st.compile_count + 1;
  st.failed_attempts <- 0;
  if t.config.async_compile then begin
    let now = Clock.now t.clock in
    let start =
      if Int64.compare t.compile_thread_free now > 0 then t.compile_thread_free
      else now
    in
    let duration = comp.Compiler.compile_cycles / compile_threads in
    let finish = Int64.add start (Int64.of_int duration) in
    t.compile_thread_free <- finish;
    st.pending <- Some (comp, finish);
    t.pending_count <- t.pending_count + 1;
    Metrics.set_gauge t.m_queue_depth (float_of_int t.pending_count);
    if !Trace.enabled then begin
      Trace.instant ~cycles:now ~cat:"jit"
        ~args:
          (targs t meth_id
             [
               ("level", Trace.Str (Plan.level_name level));
               ("ready_at", Trace.Int finish);
             ])
        "queue_enqueue";
      Trace.counter ~cycles:now ~cat:"jit" "compile_queue_depth"
        t.pending_count
    end
  end
  else begin
    Clock.advance t.clock comp.Compiler.compile_cycles;
    let prev = st.impl in
    set_compiled t meth_id st comp;
    if !Trace.enabled then
      Trace.instant ~cycles:(Clock.now t.clock) ~cat:"jit"
        ~args:
          (targs t meth_id
             [
               ("from", Trace.Str (impl_level_name prev));
               ("level", Trace.Str (Plan.level_name level));
             ])
        "promote"
  end;
  match t.callbacks.on_compiled with
  | Some f -> f t ~meth_id comp
  | None -> ()

(* A compilation that raises never takes the engine down: the method
   keeps its current implementation (usually the interpreter), the
   failure is counted, and after [max_compile_attempts] failures the
   method is quarantined ([no_more]).  A compilation that exceeds the
   cycle budget degrades down the plan ladder
   (scorching → … → cold → interpreter). *)
let rec do_compile t ~meth_id ~level ~modifier =
  match t.config.code_cache with
  | None -> do_compile_miss t ~meth_id ~level ~modifier ~write_back:None
  | Some cache -> (
      (* one key per compilation: the lookup's key is also the store's *)
      let key = cache_key t ~meth_id ~level ~modifier in
      match
        Codecache.lookup cache ~key ~level ~modifier
          ~methods:(Program.method_count t.program)
      with
      | Some entry ->
          (* lookup-before-compile: the cache already holds code for
             exactly this (method IL, target, level, modifier) *)
          install_cached t ~meth_id t.states.(meth_id) entry
      | None ->
          if !Trace.enabled then
            Trace.instant ~cycles:(Clock.now t.clock) ~cat:"jit"
              ~args:
                (targs t meth_id [ ("level", Trace.Str (Plan.level_name level)) ])
              "cache_miss";
          do_compile_miss t ~meth_id ~level ~modifier
            ~write_back:(Some (cache, key)))

and do_compile_miss t ~meth_id ~level ~modifier ~write_back =
  let st = t.states.(meth_id) in
  let tracing = !Trace.enabled in
  if tracing then
    Trace.span_begin ~cycles:(Clock.now t.clock) ~cat:"jit"
      ~args:
        (targs t meth_id
           [
             ("level", Trace.Str (Plan.level_name level));
             ("modifier", Trace.Str (Modifier.to_string modifier));
           ])
      "compile";
  match
    (match t.callbacks.pre_compile with
    | Some f -> f t ~meth_id ~level
    | None -> ());
    Compiler.compile ~modifier ~target:t.config.target ~program:t.program
      ~level (Program.meth t.program meth_id)
  with
  | exception _ ->
      if tracing then
        Trace.span_end ~cycles:(Clock.now t.clock) ~cat:"jit"
          ~args:(targs t meth_id [ ("ok", Trace.Str "false") ])
          "compile";
      Metrics.inc t.m_compile_failures;
      st.failed_attempts <- st.failed_attempts + 1;
      if st.failed_attempts >= max_compile_attempts then
        quarantine t meth_id st
  | comp -> (
      (* the compiler ran either way: its cycles are spent and part of
         them steal application cycles *)
      Metrics.add t.m_compile_cycles comp.Compiler.compile_cycles;
      Metrics.observe t.m_compile_hist
        (float_of_int comp.Compiler.compile_cycles);
      Clock.advance t.clock
        (int_of_float
           (t.config.contention *. float_of_int comp.Compiler.compile_cycles));
      if tracing then
        Trace.span_end ~cycles:(Clock.now t.clock) ~cat:"jit"
          ~args:
            (targs t meth_id
               [
                 ( "compile_cycles",
                   Trace.Int (Int64.of_int comp.Compiler.compile_cycles) );
               ])
          "compile";
      match t.config.compile_cycle_budget with
      | Some budget when comp.Compiler.compile_cycles > budget -> (
          Metrics.inc t.m_budget_rejections;
          if tracing then
            Trace.instant ~cycles:(Clock.now t.clock) ~cat:"jit"
              ~args:
                (targs t meth_id
                   [ ("level", Trace.Str (Plan.level_name level)) ])
              "budget_reject";
          let current_level_index =
            match st.impl with
            | Compiled c -> Some (Plan.level_index c.Compiler.level)
            | Interpreted -> None
          in
          match lower_level level with
          | Some l
            when current_level_index = None
                 || Option.get current_level_index < Plan.level_index l ->
              Metrics.inc t.m_degraded;
              if tracing then
                Trace.instant ~cycles:(Clock.now t.clock) ~cat:"jit"
                  ~args:
                    (targs t meth_id
                       [
                         ("from", Trace.Str (Plan.level_name level));
                         ("level", Trace.Str (Plan.level_name l));
                       ])
                  "degrade";
              do_compile t ~meth_id ~level:l ~modifier
          | Some _ ->
              (* the ladder only leads to levels the method already runs
                 at: re-promotion can't beat the budget, so back off and
                 eventually stop trying *)
              st.failed_attempts <- st.failed_attempts + 1;
              if st.failed_attempts >= max_compile_attempts then
                quarantine t meth_id st
          | None ->
              (* even the cold plan blows the budget: stay interpreted *)
              quarantine t meth_id st)
      | _ -> install t ~meth_id ~level ~write_back st comp)

let request_compile t ~meth_id ~level ?modifier () =
  let st = t.states.(meth_id) in
  if st.pending <> None then ()
  else
    match modifier with
    | Some m -> do_compile t ~meth_id ~level ~modifier:m
    | None -> (
        match t.callbacks.choose_modifier with
        | None -> do_compile t ~meth_id ~level ~modifier:Modifier.null
        | Some choose -> (
            match choose t ~meth_id ~level with
            | Some m -> do_compile t ~meth_id ~level ~modifier:m
            | None -> st.no_more <- true
            | exception _ ->
                (* a failing predictor must not stop compilation: fall
                   back to the paper's default plan *)
                Metrics.inc t.m_modifier_fallbacks;
                if !Trace.enabled then
                  Trace.instant ~cycles:(Clock.now t.clock) ~cat:"jit"
                    ~args:
                      (targs t meth_id
                         [ ("level", Trace.Str (Plan.level_name level)) ])
                    "modifier_fallback";
                do_compile t ~meth_id ~level ~modifier:Modifier.null))

let next_level st =
  match st.impl with
  | Interpreted -> Some Plan.Cold
  | Compiled c -> (
      match c.Compiler.level with
      | Plan.Cold -> Some Plan.Warm
      | Plan.Warm -> Some Plan.Hot
      | Plan.Hot -> Some Plan.Very_hot
      | Plan.Very_hot -> Some Plan.Scorching
      | Plan.Scorching -> None)

let adaptive_controller t meth_id =
  let st = t.states.(meth_id) in
  if st.no_more || st.pending <> None then ()
  else
    match next_level st with
    | None -> ()
    | Some level ->
        let cls = loop_class t meth_id in
        let threshold =
          int_of_float
            (t.config.trigger_scale
            *. float_of_int (Triggers.trigger level cls))
          * Triggers.failure_backoff st.failed_attempts
        in
        let promoted_by_sampling =
          Int64.compare st.acc_cycles Triggers.sample_promote_cycles >= 0
          && level <> Plan.Scorching
        in
        if st.invocations >= threshold || promoted_by_sampling then
          request_compile t ~meth_id ~level ()

let instrumentation_overhead = 35 (* cycles per TR_jitPTTMethod{Enter,Exit} *)

(* registered on the default registry (idempotent by name) so the flat
   tier shows up in every metrics exposition alongside jit_* counters *)
let m_flatten =
  Metrics.counter Metrics.default ~help:"Methods lowered to flat form"
    "flat_flatten_total"

(* The fused flat form of what the method runs now: its installed code,
   or its tree IL while interpreted, lowered at its first run (inside a
   [flatten] span) and memoized per engine.  Flattening charges nothing,
   so when it happens never moves a cycle. *)
let flat_form t meth_id st =
  match st.impl with
  | Compiled comp -> comp.Compiler.code
  | Interpreted -> (
      match t.flat_forms.(meth_id) with
      | Some p -> p
      | None ->
          let m = Program.meth t.program meth_id in
          if !Trace.enabled then
            Trace.span_begin ~cat:"flat"
              ~args:[ ("method", Trace.Str m.Meth.name) ]
              "flatten";
          let p = Tessera_flat.Lower.of_meth m in
          Metrics.inc m_flatten;
          if !Trace.enabled then
            Trace.span_end ~cat:"flat"
              ~args:
                [
                  ( "code_size",
                    Trace.Int (Int64.of_int (Tessera_flat.Prog.code_size p)) );
                ]
              "flatten";
          let p = Tessera_flat.Prog.fuse p in
          t.flat_forms.(meth_id) <- Some p;
          p)

let rec invoke t meth_id args =
  let st = t.states.(meth_id) in
  install_if_ready t meth_id st;
  st.invocations <- st.invocations + 1;
  if t.config.instrument then Clock.advance t.clock instrumentation_overhead;
  let enter_cycles, enter_cpu = Clock.read_tsc t.clock in
  let charge n = Clock.advance t.clock n in
  let parent_acc = t.callee_acc in
  let my_acc = ref 0L in
  t.callee_acc <- my_acc;
  let account () =
    if t.config.instrument then Clock.advance t.clock instrumentation_overhead;
    let exit_cycles, exit_cpu = Clock.read_tsc t.clock in
    let delta = Int64.sub exit_cycles enter_cycles in
    (* self time: callee cycles are reported against the callees *)
    let exclusive = Int64.sub delta !my_acc in
    t.callee_acc <- parent_acc;
    parent_acc := Int64.add !parent_acc delta;
    st.acc_cycles <- Int64.add st.acc_cycles delta;
    (match t.callbacks.on_sample with
    | Some f when t.config.instrument ->
        f t ~meth_id ~cycles:exclusive ~valid:(enter_cpu = exit_cpu)
    | _ -> ());
    if t.config.adaptive then adaptive_controller t meth_id;
    match t.callbacks.post_invoke with Some f -> f t ~meth_id | None -> ()
  in
  let result =
    try
      Flat_interp.run
        {
          Interp.classes = t.program.Program.classes;
          charge;
          invoke = (fun id args -> invoke t id args);
          fuel = t.fuel;
        }
        (flat_form t meth_id st) args
    with e ->
      account ();
      raise e
  in
  account ();
  result

let invoke_method t meth_id args =
  t.fuel := t.config.fuel_per_invocation;
  match invoke t meth_id args with
  | v -> Ok v
  | exception Values.Trap k -> Error k

let invoke_entry t args = invoke_method t t.program.Program.entry args

let app_cycles t = Clock.now t.clock

(* the aggregate counters live in the metrics registry; these accessors
   are compatibility wrappers over that single surface *)
let total_compile_cycles t = Int64.of_int (Metrics.counter_value t.m_compile_cycles)
let compile_count t = Metrics.counter_value t.m_compilations
let compile_failures t = Metrics.counter_value t.m_compile_failures
let budget_rejections t = Metrics.counter_value t.m_budget_rejections
let degraded_compiles t = Metrics.counter_value t.m_degraded
let quarantined_methods t = Metrics.counter_value t.m_quarantined
let modifier_fallbacks t = Metrics.counter_value t.m_modifier_fallbacks
let cache_hits t = Metrics.counter_value t.m_cache_hits
let cache_counters t = Option.map Codecache.counters t.config.code_cache

let compiles_by_level t =
  Array.to_list
    (Array.mapi
       (fun i c -> (Plan.level_of_index i, Metrics.counter_value c))
       t.m_by_level)
  |> List.filter (fun (_, c) -> c > 0)

let methods_compiled t =
  Array.fold_left
    (fun acc (st : method_state) -> if st.compile_count > 0 then acc + 1 else acc)
    0 t.states
