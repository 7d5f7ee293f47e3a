(* Run a benchmark (or a .tir program) on the simulated JVM, optionally
   with a learned model set steering the JIT, and print the metrics.

   With --fault-spec the model is consulted over the real wire protocol
   (an in-memory pipe pair) through the resilient client, with a
   deterministic fault injector perturbing both directions — the
   permanent regression harness for the failure model. *)

open Cmdliner
module Harness = Tessera_harness
module Suites = Tessera_workloads.Suites
module Engine = Tessera_jit.Engine
module Values = Tessera_vm.Values
module Channel = Tessera_protocol.Channel
module Serve = Tessera_protocol.Serve
module Client = Tessera_protocol.Client
module Spec = Tessera_faults.Spec
module Injector = Tessera_faults.Injector
module Modifier = Tessera_modifiers.Modifier
module Codecache = Tessera_cache.Codecache
module Trace = Tessera_obs.Trace
module Profile = Tessera_obs.Profile
module Metrics = Tessera_obs.Metrics
module Export = Tessera_obs.Export
module Fileio = Tessera_util.Fileio

(* In-process deployment of the paper's two-process setup: engine →
   resilient client → faulty in-memory pipes → serving engine →
   predictor, advanced in lockstep. *)
let faulty_pipeline ~spec ~seed ~predictor =
  let server_raw, client_raw = Channel.pipe_pair () in
  let server_inj = Injector.create ~spec ~seed () in
  let client_inj =
    Injector.create ~spec:(Spec.no_crash spec) ~seed:(Int64.add seed 1L) ()
  in
  let jit_inj = Injector.create ~spec ~seed:(Int64.add seed 2L) () in
  let server_ch = Injector.wrap_channel server_inj server_raw in
  let client_ch = Injector.wrap_channel client_inj client_raw in
  let server = Serve.create ~make_predictor:(fun _ -> predictor) () in
  let lockstep = Serve.lockstep server server_ch in
  let client = Client.connect ~model_name:"faulty" ~lockstep client_ch in
  (client, server_inj, client_inj, jit_inj)

let run_target ~fmt ~model_dir ~iterations ~tir ~fault_spec ~fault_seed
    ~compile_budget ~code_cache_dir ~code_cache_mb ~code_cache_readonly
    ~trace_out ~metrics_out ~profile_out target =
  let program =
    if tir then Tessera_lang.Parser.load_program target
    else
      match Suites.find target with
      | Some b ->
          Tessera_workloads.Generate.program b.Suites.profile
      | None -> failwith (Printf.sprintf "unknown benchmark %S" target)
  in
  let iteration_invocations =
    if tir then 1
    else
      match Suites.find target with
      | Some b -> b.Suites.iteration_invocations
      | None -> 1
  in
  let spec = fault_spec in
  let modelset =
    Option.map (fun dir -> Harness.Modelset.load ~name:"cli" ~dir) model_dir
  in
  let callbacks, report_faults =
    match spec with
    | None ->
        let callbacks =
          match modelset with
          | None -> Engine.no_callbacks
          | Some ms ->
              {
                Engine.no_callbacks with
                Engine.choose_modifier =
                  Some (Harness.Modelset.choose_modifier ms);
              }
        in
        (callbacks, fun _engine -> ())
    | Some spec ->
        let predictor =
          match modelset with
          | Some ms -> Harness.Modelset.server_batch_predictor ms
          | None -> fun ~level:_ rows -> Array.map (fun _ -> Modifier.null) rows
        in
        let seed = Int64.of_int fault_seed in
        let client, server_inj, client_inj, jit_inj =
          faulty_pipeline ~spec ~seed ~predictor
        in
        let choose engine ~meth_id ~level =
          let features =
            Array.map float_of_int
              (Engine.features engine meth_id :> int array)
          in
          Some (Client.predict client ~level ~features)
        in
        let pre_compile =
          if spec.Spec.compile_fail > 0.0 then
            Some (fun _ ~meth_id ~level:_ -> Injector.compile_fault jit_inj ~meth_id)
          else None
        in
        let callbacks =
          {
            Engine.no_callbacks with
            Engine.choose_modifier = Some choose;
            pre_compile;
          }
        in
        let report engine =
          Format.fprintf fmt "fault spec         : %s (seed %d)\n"
            (Spec.to_string spec) fault_seed;
          Format.fprintf fmt "  server injector  : %a@." Injector.pp_stats
            (Injector.stats server_inj);
          Format.fprintf fmt "  client injector  : %a@." Injector.pp_stats
            (Injector.stats client_inj);
          Format.fprintf fmt "  client counters  : %a@." Client.pp_counters
            (Client.counters client);
          Format.fprintf fmt "  breaker state    : %s\n"
            (Client.breaker_name (Client.breaker_state client));
          Format.fprintf fmt
            "  jit degradation  : compile_failures=%d budget_rejections=%d \
             degraded=%d quarantined=%d modifier_fallbacks=%d\n"
            (Engine.compile_failures engine)
            (Engine.budget_rejections engine)
            (Engine.degraded_compiles engine)
            (Engine.quarantined_methods engine)
            (Engine.modifier_fallbacks engine)
        in
        (callbacks, report)
  in
  let cache =
    Option.map
      (fun dir ->
        Codecache.create ~dir ~capacity_mb:code_cache_mb
          ~readonly:code_cache_readonly ())
      code_cache_dir
  in
  let config =
    {
      Engine.default_config with
      Engine.compile_cycle_budget = compile_budget;
      code_cache = cache;
    }
  in
  let engine = Engine.create ~config ~callbacks program in
  let traps = ref 0 in
  for it = 0 to iterations - 1 do
    for k = 0 to iteration_invocations - 1 do
      match
        Engine.invoke_entry engine
          [| Values.Int_v (Int64.of_int ((it * 31) + k)) |]
      with
      | Ok _ -> ()
      | Error _ -> incr traps
    done
  done;
  Format.fprintf fmt "application cycles : %Ld (%.2f virtual ms)\n"
    (Engine.app_cycles engine)
    (Int64.to_float (Engine.app_cycles engine)
    /. float_of_int Tessera_vm.Cost.cycles_per_ms);
  Format.fprintf fmt "compilation cycles : %Ld\n" (Engine.total_compile_cycles engine);
  Format.fprintf fmt "compilations       : %d (%d methods)\n"
    (Engine.compile_count engine)
    (Engine.methods_compiled engine);
  List.iter
    (fun (level, count) ->
      Format.fprintf fmt "  %-10s %d\n" (Tessera_opt.Plan.level_name level) count)
    (Engine.compiles_by_level engine);
  (match cache with
  | Some c ->
      Format.fprintf fmt "aot cache loads    : %d\n" (Engine.cache_hits engine);
      Format.fprintf fmt "code cache         : %a (%d entries, %d bytes%s)@."
        Codecache.pp_counters (Codecache.counters c) (Codecache.entry_count c)
        (Codecache.byte_size c)
        (if Codecache.readonly c then ", readonly" else "");
      Codecache.close c
  | None -> ());
  report_faults engine;
  if !traps > 0 then Format.fprintf fmt "uncaught exceptions: %d\n" !traps;
  (match trace_out with
  | Some path ->
      Fileio.atomic_write ~path (Export.chrome_json (Trace.events ()));
      Format.fprintf fmt "trace              : %s (%d events, %d dropped)\n" path
        (Trace.length ()) (Trace.dropped ())
  | None -> ());
  (match profile_out with
  | Some path ->
      Fileio.atomic_write ~path (Profile.to_json ());
      Format.fprintf fmt
        "profile            : %s (%d samples, %d sites, %d dropped, period \
         %d)\n"
        path (Profile.total_samples ()) (Profile.site_count ())
        (Profile.dropped_samples ()) (Profile.period ());
      Profile.report fmt
  | None -> ());
  (match metrics_out with
  | Some path ->
      (* engine registry first, then the process-wide default registry
         (model-server counters live there when the protocol is used) *)
      let text =
        Metrics.expose (Engine.metrics engine) ^ Metrics.expose Metrics.default
      in
      Fileio.atomic_write ~path text;
      Format.fprintf fmt "metrics            : %s\n" path
  | None -> ())

let run targets jobs model_dir iterations tir fault_spec fault_seed
    compile_budget code_cache_dir code_cache_mb code_cache_readonly trace_out
    metrics_out profile_out =
  (* tracing must be live before the engine exists: Engine.create emits
     nothing itself, but it registers its clock as the trace cycle
     source, and the very first invocation already compiles *)
  if trace_out <> None then Trace.enable ();
  (* same for the sampling profiler: the first invocation already charges
     cycles through the interpreter's profiled charge closure *)
  if profile_out <> None then Profile.enable ();
  let multi = List.length targets > 1 in
  let jobs =
    (* the code-cache store and the trace/metrics/profile output files
       are shared across targets, so concurrent targets would race on
       them (and the profiler's credit counter is single-domain) *)
    if
      multi && jobs <> 1
      && (code_cache_dir <> None || trace_out <> None || metrics_out <> None
         || profile_out <> None)
    then begin
      prerr_endline
        "tessera_run: --code-cache/--trace-out/--metrics-out/--profile-out \
         are shared across targets; forcing -j 1";
      1
    end
    else jobs
  in
  (* each target renders its report into its own buffer, so -j N output
     is printed whole, in command-line order, never interleaved *)
  let reports =
    Tessera_util.Pool.run_list ~jobs
      (fun target ->
        let buf = Buffer.create 1024 in
        let fmt = Format.formatter_of_buffer buf in
        if multi then Format.fprintf fmt "=== %s ===@." target;
        run_target ~fmt ~model_dir ~iterations ~tir ~fault_spec ~fault_seed
          ~compile_budget ~code_cache_dir ~code_cache_mb ~code_cache_readonly
          ~trace_out ~metrics_out ~profile_out target;
        Format.pp_print_flush fmt ();
        Buffer.contents buf)
      targets
  in
  List.iter print_string reports;
  0

let targets =
  Arg.(non_empty & pos_all string [] & info [] ~docv:"TARGET"
         ~doc:"Benchmark name(s) (e.g. compress) or path(s) to .tir files \
               with --tir; several targets run on a domain pool (see -j).")

let jobs =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Run multiple targets on N domains (default 1; results are \
               identical for every N, printed in command-line order).")

let model_dir =
  Arg.(value & opt (some dir) None & info [ "model" ] ~docv:"DIR"
         ~doc:"Model-set directory (from tessera_train); omit for the \
               unmodified compiler.")

let iterations =
  Arg.(value & opt int 1 & info [ "n"; "iterations" ] ~docv:"N"
         ~doc:"Benchmark iterations (1 = start-up run, 10 = throughput run).")

let tir =
  Arg.(value & flag & info [ "tir" ] ~doc:"Treat TARGET as a .tir program file.")

let spec_conv =
  Arg.conv
    ( (fun s ->
        match Spec.parse s with Ok v -> Ok v | Error e -> Error (`Msg e)),
      fun fmt s -> Format.pp_print_string fmt (Spec.to_string s) )

let fault_spec =
  Arg.(value & opt (some spec_conv) None & info [ "fault-spec" ] ~docv:"SPEC"
         ~doc:"Route predictions through the wire protocol with injected \
               faults, e.g. drop:0.01,corrupt:0.005,crash_after:200. See \
               tessera.faults for the full syntax.")

let fault_seed =
  Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"N"
         ~doc:"PRNG seed of the fault injectors.")

let compile_budget =
  Arg.(value & opt (some int) None & info [ "compile-budget" ] ~docv:"CYCLES"
         ~doc:"Per-compilation cycle budget; compilations over budget are \
               degraded to lower plan levels (and ultimately the \
               interpreter).")

let code_cache_dir =
  Arg.(value & opt (some string) None & info [ "code-cache" ] ~docv:"DIR"
         ~doc:"Persistent compiled-code cache directory (created if \
               missing): compilations are looked up before compiling and \
               written back after, so a second run of the same workload \
               warm-starts with AOT loads instead of JIT compilations.")

let code_cache_mb =
  Arg.(value & opt int 64 & info [ "code-cache-mb" ] ~docv:"MB"
         ~doc:"Code-cache capacity; least-recently-used entries are \
               evicted beyond it.")

let code_cache_readonly =
  Arg.(value & flag & info [ "code-cache-readonly" ]
         ~doc:"Consume the code cache without writing back (shared or \
               immutable cache deployments).")

let trace_out =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Record a virtual-clock trace of the run and write it as \
               Chrome trace_event JSON (loadable in Perfetto or \
               chrome://tracing).")

let metrics_out =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
         ~doc:"Dump the engine's metrics registry (and the process-wide \
               default registry) in Prometheus text exposition format \
               after the run.")

let profile_out =
  Arg.(value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE"
         ~doc:"Sample the run with the deterministic virtual-cycle \
               profiler and write the profile (hot methods, hot opcodes, \
               collapsed-stack flame lines) as JSON to FILE.")

let cmd =
  Cmd.v
    (Cmd.info "tessera_run" ~doc:"Run a benchmark on the simulated JVM")
    Term.(const run $ targets $ jobs $ model_dir $ iterations $ tir
          $ fault_spec $ fault_seed $ compile_budget $ code_cache_dir
          $ code_cache_mb $ code_cache_readonly $ trace_out $ metrics_out
          $ profile_out)

let () = exit (Cmd.eval' cmd)
