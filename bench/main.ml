(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Table 4, Figures 6-13), the Section 6 kernel
   study, the Section 7 pipe-overhead measurement, the ablations called
   out in DESIGN.md, and a set of Bechamel micro-benchmarks.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe figures    -- Table 4 + Figures 6-13 only
     dune exec bench/main.exe kernels    -- linear vs RBF study
     dune exec bench/main.exe pipe       -- named-pipe overhead
     dune exec bench/main.exe ablations  -- design-choice ablations
     dune exec bench/main.exe cache      -- warm vs cold start-up (BENCH_cache.json)
     dune exec bench/main.exe obs        -- tracing overhead (BENCH_obs.json)
     dune exec bench/main.exe parallel   -- -j determinism + speedup (BENCH_parallel.json)
     dune exec bench/main.exe fork       -- forking collector economy + oracle (BENCH_fork.json)
     dune exec bench/main.exe serve      -- concurrent serving fleet (BENCH_serve.json)
     dune exec bench/main.exe flat       -- flat-tier dispatch throughput (BENCH_flat.json)
     dune exec bench/main.exe profile    -- sampling profiler oracle (BENCH_profile.json)
     dune exec bench/main.exe micro      -- Bechamel micro-benchmarks
     dune exec bench/main.exe quick      -- down-scaled smoke of everything

   "serve" drives an in-process fleet of simulated clients (honest, slow,
   and byzantine) against the concurrent serving engine; with
   "--socket PATH [--clients N] [--requests R]" it instead attaches real
   Unix-socket clients to a running tessera_server (the CI smoke).

   "quick" composes with any subcommand (e.g. "figures quick"), and
   "-j N" sets the evaluation-pool domain count (default: the number of
   cores; -j 1 is the exact sequential behaviour).  Figure output is
   byte-identical for every -j — the digest line printed by "figures"
   and checked by "parallel" proves it. *)

module Harness = Tessera_harness
module Suites = Tessera_workloads.Suites
module Engine = Tessera_jit.Engine
module Plan = Tessera_opt.Plan
module Modifier = Tessera_modifiers.Modifier
module Values = Tessera_vm.Values
module Pool = Tessera_util.Pool
module Metrics = Tessera_obs.Metrics

let fmt = Format.std_formatter

let section_on fmt title =
  Format.fprintf fmt "%s@." (String.make 78 '=');
  Format.fprintf fmt "%s@." title;
  Format.fprintf fmt "%s@." (String.make 78 '=')

let section title = section_on fmt title

(* provenance header, recorded in every BENCH_*.json artifact: wall-clock
   numbers are only comparable between runs made at the same scale on a
   known core budget (the regress sentinel's tolerances assume
   like-for-like hosts) *)
let host_cores = Domain.recommended_domain_count ()

let host_json_fields ~quick ~jobs =
  Printf.sprintf "  \"quick\": %b,\n  \"host_cores\": %d,\n  \"jobs\": %d,\n"
    quick host_cores jobs

let is_quick cfg = cfg == Harness.Expconfig.quick

(* collect once, reuse across experiment groups *)
let collected = ref None

let get_outcomes ~jobs cfg =
  match !collected with
  | Some o -> o
  | None ->
      let t0 = Unix.gettimeofday () in
      let o = Harness.Collection.collect_training_set ~cfg ~jobs () in
      Format.fprintf fmt "[data collection took %.1fs]@.@."
        (Unix.gettimeofday () -. t0);
      collected := Some o;
      o

(* ------------------------------------------------------------------ *)
(* Table 4 and Figures 6-13                                             *)
(* ------------------------------------------------------------------ *)

(* The figures report minus every timing line, rendered to [fmt]: what
   remains is a pure function of cfg.seed, so two renderings — whatever
   their -j — must be byte-identical.  Both "figures" (digest line) and
   "parallel" (digest comparison) rely on that. *)
let render_figures ~jobs cfg outcomes fmt =
  Harness.Report.collection_summary fmt outcomes;
  let loo = Harness.Training.train_loo ~jobs outcomes in
  Harness.Report.training_summary ~timings:false fmt loo;
  section_on fmt "Table 4";
  Harness.Report.table4 fmt loo;
  let m = Harness.Evaluation.full_matrix ~cfg ~jobs ~loo () in
  section_on fmt "Figures 6-13";
  Harness.Report.figures_6_to_13 fmt m;
  (* Section 6's cross-validation views of classifier quality *)
  section_on fmt "Classifier cross-validation (Section 6)";
  Format.fprintf fmt "5-fold CV accuracy on the merged training data:@.";
  List.iter
    (fun (a : Harness.Crossval.level_accuracy) ->
      Format.fprintf fmt "  %-8s %5.1f%%  (%d instances, %d classes)@."
        (Plan.level_name a.Harness.Crossval.level)
        (100.0 *. a.Harness.Crossval.accuracy)
        a.Harness.Crossval.instances a.Harness.Crossval.classes)
    (Harness.Crossval.kfold_accuracy (Harness.Training.records_of outcomes));
  Format.fprintf fmt
    "@.leave-one-benchmark-out label accuracy (predicting the held-out \
     benchmark's@.best modifier exactly; low absolute numbers are expected \
     — near misses can@.still be good plans):@.";
  Harness.Crossval.report fmt
    (Harness.Crossval.loo_benchmark_accuracy outcomes);
  Format.fprintf fmt "@."

let render_figures_to_string ~jobs cfg outcomes =
  let buf = Buffer.create (1 lsl 16) in
  let bfmt = Format.formatter_of_buffer buf in
  render_figures ~jobs cfg outcomes bfmt;
  Format.pp_print_flush bfmt ();
  Buffer.contents buf

let run_figures ~jobs cfg =
  let outcomes = get_outcomes ~jobs cfg in
  let t0 = Unix.gettimeofday () in
  let report = render_figures_to_string ~jobs cfg outcomes in
  let dt = Unix.gettimeofday () -. t0 in
  Format.fprintf fmt "%s" report;
  Format.fprintf fmt "[train+evaluation took %.1fs at -j %d]@." dt jobs;
  Format.fprintf fmt "[figures digest: %s]@.@."
    (Digest.to_hex (Digest.string report))

(* ------------------------------------------------------------------ *)
(* Parallel evaluation: -j determinism and speedup (BENCH_parallel.json) *)
(* ------------------------------------------------------------------ *)

let run_parallel ~jobs cfg =
  section "Parallel evaluation: sequential vs -j N (determinism + speedup)";
  (* the full collect -> train -> evaluate -> render pipeline, end to
     end, at a given domain count; fresh collection each time so both
     legs pay the same cost *)
  let measure jobs =
    let t0 = Unix.gettimeofday () in
    let outcomes = Harness.Collection.collect_training_set ~cfg ~jobs () in
    let report = render_figures_to_string ~jobs cfg outcomes in
    (report, Unix.gettimeofday () -. t0)
  in
  let par_jobs = max 2 (if jobs > 1 then jobs else Pool.default_jobs ()) in
  let seq_report, seq_s = measure 1 in
  Format.fprintf fmt "sequential (-j 1)  : %7.1fs@." seq_s;
  let par_report, par_s = measure par_jobs in
  Format.fprintf fmt "parallel  (-j %-2d)  : %7.1fs (%.2fx)@." par_jobs par_s
    (seq_s /. Float.max 1e-9 par_s);
  let seq_digest = Digest.to_hex (Digest.string seq_report) in
  let par_digest = Digest.to_hex (Digest.string par_report) in
  let identical = String.equal seq_report par_report in
  if identical then
    Format.fprintf fmt "figures digest     : %s (identical at both -j)@."
      seq_digest
  else
    Format.fprintf fmt
      "figures digest     : MISMATCH (-j 1: %s, -j %d: %s)@." seq_digest
      par_jobs par_digest;
  let json =
    Printf.sprintf
      "{\n\
      %s\
      \  \"seq_jobs\": 1,\n\
      \  \"par_jobs\": %d,\n\
      \  \"seq_wall_s\": %.3f,\n\
      \  \"par_wall_s\": %.3f,\n\
      \  \"speedup\": %.3f,\n\
      \  \"digests_identical\": %b,\n\
      \  \"seq_digest\": %S,\n\
      \  \"par_digest\": %S\n\
       }\n"
      (host_json_fields ~quick:(is_quick cfg) ~jobs) par_jobs seq_s par_s
      (seq_s /. Float.max 1e-9 par_s)
      identical seq_digest par_digest
  in
  Tessera_util.Fileio.atomic_write ~path:"BENCH_parallel.json" json;
  Format.fprintf fmt "[wrote BENCH_parallel.json]@.@.";
  if not identical then begin
    Format.fprintf fmt
      "FAILED: parallel evaluation diverged from the sequential baseline@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Compilation forking: the full training matrix from one warm run      *)
(* (BENCH_fork.json)                                                    *)
(* ------------------------------------------------------------------ *)

(* Two legs: (1) records-per-trunk-invocation of the forking collector
   vs the sweep (queue) collector over the whole training set — the
   forking paper's headline economy; (2) the differential oracle — the
   snapshot-based branches must produce an archive record-for-record
   equal to branches measured from a fully re-executed fork point. *)
let run_fork_bench ~jobs cfg =
  section
    "Compilation forking: full training matrix from one warm run \
     (BENCH_fork.json)";
  let quick = is_quick cfg in
  (* Both collectors run over the same two training benchmarks at half
     workload scale — enough diversity for a fair records-per-invocation
     comparison without paying for the whole suite — and the forking
     side measures the {e default} fan-out (the full candidate set whose
     one-warm-run economy is the point), whatever the quick scaling says. *)
  let cfg =
    {
      cfg with
      Harness.Expconfig.bench_scale = cfg.Harness.Expconfig.bench_scale *. 0.5;
      fork_fanout = Harness.Expconfig.default.Harness.Expconfig.fork_fanout;
    }
  in
  let benches = List.filteri (fun i _ -> i < 2) Suites.training_set in
  let totals outcomes =
    List.fold_left
      (fun (recs, invs) (o : Harness.Collection.outcome) ->
        ( recs
          + List.length
              o.Harness.Collection.merged.Tessera_collect.Archive.records,
          invs
          + List.fold_left
              (fun a (s : Tessera_collect.Collector.stats) ->
                a + s.Tessera_collect.Collector.entry_invocations)
              0 o.Harness.Collection.stats ))
      (0, 0) outcomes
  in
  let t0 = Unix.gettimeofday () in
  let sweep =
    Pool.run_list ~jobs (Harness.Collection.collect_bench ~cfg) benches
  in
  let sweep_s = Unix.gettimeofday () -. t0 in
  let sweep_records, sweep_invs = totals sweep in
  let t0 = Unix.gettimeofday () in
  let forked =
    List.map
      (Harness.Collection.collect_bench ~cfg ~fork:true ~fork_jobs:jobs)
      benches
  in
  let fork_s = Unix.gettimeofday () -. t0 in
  let fork_records, fork_invs = totals forked in
  let fork_stat f =
    List.fold_left
      (fun a (o : Harness.Collection.outcome) ->
        List.fold_left
          (fun a (s : Tessera_collect.Collector.stats) -> a + f s)
          a o.Harness.Collection.stats)
      0 forked
  in
  let forks = fork_stat (fun s -> s.Tessera_collect.Collector.forks) in
  let branches = fork_stat (fun s -> s.Tessera_collect.Collector.branches) in
  let branch_invs =
    fork_stat (fun s -> s.Tessera_collect.Collector.branch_invocations)
  in
  let skipped =
    fork_stat (fun s -> s.Tessera_collect.Collector.skipped_decisions)
  in
  let rpi records invs = float_of_int records /. float_of_int (max 1 invs) in
  let sweep_rpi = rpi sweep_records sweep_invs in
  let fork_rpi = rpi fork_records fork_invs in
  let gain = fork_rpi /. Float.max 1e-9 sweep_rpi in
  Format.fprintf fmt
    "sweep collector : %5d records / %5d invocations = %.3f records/inv \
     (%.1fs)@."
    sweep_records sweep_invs sweep_rpi sweep_s;
  Format.fprintf fmt
    "fork collector  : %5d records / %5d trunk invocations = %.3f \
     records/inv (%.1fs)@."
    fork_records fork_invs fork_rpi fork_s;
  Format.fprintf fmt
    "                  %d fork points, %d branches, %d branch invocations, \
     %d skipped@."
    forks branches branch_invs skipped;
  Format.fprintf fmt "records-per-invocation gain: %.1fx (target >= 5x)@." gain;
  (* -- differential oracle on the first training benchmark, down-scaled:
     correctness, not a timing figure -- *)
  let oracle_bench =
    Suites.scale_bench (List.hd Suites.training_set)
      cfg.Harness.Expconfig.bench_scale
  in
  let program = Tessera_workloads.Generate.program oracle_bench.Suites.profile in
  let run_oracle reexec =
    Tessera_collect.Collector.run
      ~config:
        {
          Tessera_collect.Collector.default_config with
          Tessera_collect.Collector.search =
            Tessera_collect.Collector.Fork
              {
                strategy = Tessera_modifiers.Queue_ctrl.Progressive { l = 30 };
                fanout = 4;
                jobs;
                reexec;
              };
          uses_per_modifier = min 4 cfg.Harness.Expconfig.uses_per_modifier;
          seed = Int64.add cfg.Harness.Expconfig.seed 2L;
          max_entry_invocations =
            min 60 cfg.Harness.Expconfig.collect_invocations;
        }
      ~program ~benchmark:"fork-oracle"
      ~entry_args:(fun k -> [| Values.Int_v (Int64.of_int k) |])
      ()
  in
  let t0 = Unix.gettimeofday () in
  let snap_archive, snap_stats = run_oracle false in
  let snap_s = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let reexec_archive, _ = run_oracle true in
  let reexec_s = Unix.gettimeofday () -. t0 in
  let oracle_ok = Tessera_collect.Archive.equal snap_archive reexec_archive in
  Format.fprintf fmt
    "oracle          : snapshot %.2fs vs re-execution %.2fs over %d records \
     -> %s@."
    snap_s reexec_s
    (List.length snap_archive.Tessera_collect.Archive.records)
    (if oracle_ok then "identical archives" else "MISMATCH");
  let json =
    Printf.sprintf
      "{\n\
       %s\
      \  \"sweep_records\": %d,\n\
      \  \"sweep_invocations\": %d,\n\
      \  \"sweep_wall_s\": %.3f,\n\
      \  \"fork_records\": %d,\n\
      \  \"fork_trunk_invocations\": %d,\n\
      \  \"fork_points\": %d,\n\
      \  \"fork_branches\": %d,\n\
      \  \"fork_branch_invocations\": %d,\n\
      \  \"fork_skipped_decisions\": %d,\n\
      \  \"fork_wall_s\": %.3f,\n\
      \  \"records_per_invocation_sweep\": %.4f,\n\
      \  \"records_per_invocation_fork\": %.4f,\n\
      \  \"records_per_invocation_gain\": %.4f,\n\
      \  \"oracle_records\": %d,\n\
      \  \"oracle_branches\": %d,\n\
      \  \"oracle_snapshot_wall_s\": %.3f,\n\
      \  \"oracle_reexec_wall_s\": %.3f,\n\
      \  \"oracle_ok\": %b\n\
       }\n"
      (host_json_fields ~quick ~jobs) sweep_records sweep_invs sweep_s fork_records
      fork_invs forks branches branch_invs skipped fork_s sweep_rpi fork_rpi
      gain
      (List.length snap_archive.Tessera_collect.Archive.records)
      snap_stats.Tessera_collect.Collector.branches snap_s reexec_s oracle_ok
  in
  Tessera_util.Fileio.atomic_write ~path:"BENCH_fork.json" json;
  Format.fprintf fmt "[wrote BENCH_fork.json]@.@.";
  if not oracle_ok then begin
    Format.fprintf fmt
      "FAILED: forked archive diverged from the re-executed baseline@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Section 6: kernel selection study                                    *)
(* ------------------------------------------------------------------ *)

let run_kernels ~jobs cfg =
  section "Section 6 kernel study: linear (MCSVM_CS) vs non-linear (RBF)";
  let outcomes = get_outcomes ~jobs cfg in
  let records = Harness.Training.records_of outcomes in
  let ts = Tessera_dataproc.Trainset.build ~level:Plan.Hot records in
  let problem = Tessera_dataproc.Trainset.problem ts in
  Format.fprintf fmt "hot-level training set: %d instances, %d classes@."
    (Tessera_svm.Problem.n_instances problem)
    (Tessera_svm.Problem.n_classes problem);
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let linear, linear_train = time (fun () -> Tessera_svm.Cs.train problem) in
  let rbf, rbf_train =
    time (fun () ->
        Tessera_svm.Rbf.train
          ~params:
            { Tessera_svm.Rbf.default_params with Tessera_svm.Rbf.gamma = 0.5 }
          problem)
  in
  let x = problem.Tessera_svm.Problem.x in
  let predict_time n predict =
    let t0 = Unix.gettimeofday () in
    for i = 0 to n - 1 do
      ignore (predict x.(i mod Array.length x))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e6
  in
  let lin_us = predict_time 20_000 (Tessera_svm.Model.predict linear) in
  let rbf_us = predict_time 2_000 (Tessera_svm.Rbf.predict rbf) in
  Format.fprintf fmt "training time : linear %.3fs, RBF %.3fs@." linear_train
    rbf_train;
  Format.fprintf fmt
    "prediction    : linear %.2f us, RBF %.2f us (%d support vectors; RBF \
     %.0fx slower)@."
    lin_us rbf_us
    (Tessera_svm.Rbf.support_vector_count rbf)
    (rbf_us /. Float.max 1e-9 lin_us);
  Format.fprintf fmt
    "paper's finding: only the linear kernel predicts fast enough for a \
     JIT's budget@.(48 us vs up to 660 ms in the paper); the gap grows with \
     the training-set size.@.@."

(* ------------------------------------------------------------------ *)
(* Section 7: named-pipe overhead                                       *)
(* ------------------------------------------------------------------ *)

let run_pipe_overhead ~jobs cfg =
  section "Section 7: model-query overhead (in-process vs named pipes)";
  let outcomes = get_outcomes ~jobs cfg in
  let ms = Harness.Training.train_on_all ~name:"pipe" outcomes in
  let features = Array.make Tessera_features.Features.dim 0.5 in
  let predictor = Harness.Modelset.server_predictor ms in
  let t0 = Unix.gettimeofday () in
  let n = 20_000 in
  for _ = 1 to n do
    ignore (predictor ~level:Plan.Hot ~features)
  done;
  let direct_us = (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e6 in
  let dir = Filename.get_temp_dir_name () in
  let path_a =
    Filename.concat dir (Printf.sprintf "tsr_bench_%d.a" (Unix.getpid ()))
  in
  let path_b =
    Filename.concat dir (Printf.sprintf "tsr_bench_%d.b" (Unix.getpid ()))
  in
  let open_a, open_b = Tessera_protocol.Channel.fifo_pair ~path_a ~path_b in
  let fifo_us =
    match Unix.fork () with
    | 0 ->
        let ch = open_a () in
        let server =
          Tessera_protocol.Serve.create
            ~make_predictor:(fun _ -> Harness.Modelset.server_batch_predictor ms)
            ()
        in
        ignore (Tessera_protocol.Serve.accept server ch);
        Unix._exit
          (if Tessera_protocol.Serve.serve_fds server ~stop:(fun () -> false)
           then 0
           else 1)
    | pid ->
        let ch = open_b () in
        let client = Tessera_protocol.Client.connect ~model_name:"bench" ch in
        let n = 2_000 in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to n do
          ignore
            (Tessera_protocol.Client.predict client ~level:Plan.Hot ~features)
        done;
        let dt = (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e6 in
        Tessera_protocol.Client.shutdown client;
        ignore (Unix.waitpid [] pid);
        List.iter (fun p -> try Sys.remove p with _ -> ()) [ path_a; path_b ];
        dt
  in
  Format.fprintf fmt
    "prediction round-trip: in-process %.2f us, named pipes %.2f us@."
    direct_us fifo_us;
  Format.fprintf fmt
    "a hot compilation takes hundreds of simulated microseconds, so the \
     pipe@.overhead is negligible relative to compilation, as the paper \
     found.@.@."

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let run_bench_pair ~cfg ?model bench =
  let startup =
    Harness.Evaluation.run_once ~cfg ?model ~bench ~iterations:1 ~trial:0 ()
  in
  let thr =
    Harness.Evaluation.run_once ~cfg ?model ~bench
      ~iterations:cfg.Harness.Expconfig.throughput_iterations ~trial:0 ()
  in
  (startup, thr)

let ablate_sync cfg =
  section "Ablation: asynchronous vs synchronous compilation";
  Format.fprintf fmt
    "(start-up behaviour hinges on compilation overlapping execution)@.";
  List.iter
    (fun name ->
      let bench = Option.get (Suites.find name) in
      let bench = Suites.scale_bench bench cfg.Harness.Expconfig.bench_scale in
      let program = Tessera_workloads.Generate.program bench.Suites.profile in
      let run async =
        let engine =
          Engine.create
            ~config:{ Engine.default_config with Engine.async_compile = async }
            program
        in
        for k = 0 to bench.Suites.iteration_invocations - 1 do
          ignore (Engine.invoke_entry engine [| Values.Int_v (Int64.of_int k) |])
        done;
        Engine.app_cycles engine
      in
      let a = run true and s = run false in
      Format.fprintf fmt
        "%-12s start-up: async %8.2fM cycles, sync %8.2fM cycles (async %.2fx \
         faster)@."
        name
        (Int64.to_float a /. 1e6)
        (Int64.to_float s /. 1e6)
        (Int64.to_float s /. Int64.to_float a))
    [ "compress"; "db"; "javac" ];
  Format.fprintf fmt "@."

let ablate_search ~jobs cfg =
  section "Ablation: randomized vs progressive vs merged search data";
  let outcomes = get_outcomes ~jobs cfg in
  let strategies =
    [
      ( "randomized",
        List.map
          (fun (o : Harness.Collection.outcome) -> o.Harness.Collection.randomized)
          outcomes );
      ( "progressive",
        List.map
          (fun (o : Harness.Collection.outcome) -> o.Harness.Collection.progressive)
          outcomes );
      ( "merged",
        List.map
          (fun (o : Harness.Collection.outcome) -> o.Harness.Collection.merged)
          outcomes );
    ]
  in
  let bench =
    Suites.scale_bench
      (Option.get (Suites.find "jess"))
      cfg.Harness.Expconfig.bench_scale
  in
  let base_s, base_t = run_bench_pair ~cfg bench in
  List.iter
    (fun (name, archives) ->
      let records =
        List.concat_map
          (fun (a : Tessera_collect.Archive.t) -> a.Tessera_collect.Archive.records)
          archives
      in
      let ms = Harness.Modelset.train ~name records in
      let s, t = run_bench_pair ~cfg ~model:ms bench in
      Format.fprintf fmt
        "%-12s start-up %.3fx, throughput %.3fx, compile time %.3fx@." name
        (Int64.to_float base_s.Harness.Evaluation.app_cycles
        /. Int64.to_float s.Harness.Evaluation.app_cycles)
        (Int64.to_float base_t.Harness.Evaluation.app_cycles
        /. Int64.to_float t.Harness.Evaluation.app_cycles)
        (Int64.to_float t.Harness.Evaluation.compile_cycles
        /. Int64.to_float base_t.Harness.Evaluation.compile_cycles))
    strategies;
  (* the paper's future work: heuristic-guided search during collection *)
  let guided_records =
    List.concat_map
      (fun (b : Suites.bench) ->
        let bs = Suites.scale_bench b cfg.Harness.Expconfig.bench_scale in
        let program = Tessera_workloads.Generate.program bs.Suites.profile in
        let archive, _ =
          Tessera_collect.Collector.run
            ~config:
              {
                Tessera_collect.Collector.default_config with
                Tessera_collect.Collector.search =
                  Tessera_collect.Collector.Guided
                    Tessera_modifiers.Guided.default_params;
                max_entry_invocations = cfg.Harness.Expconfig.collect_invocations;
              }
            ~program
            ~benchmark:(bs.Suites.profile.Tessera_workloads.Profile.name ^ ":guided")
            ~entry_args:(fun k -> [| Values.Int_v (Int64.of_int k) |])
            ()
        in
        archive.Tessera_collect.Archive.records)
      Suites.training_set
  in
  let ms = Harness.Modelset.train ~name:"guided" guided_records in
  let s, t = run_bench_pair ~cfg ~model:ms bench in
  Format.fprintf fmt
    "%-12s start-up %.3fx, throughput %.3fx, compile time %.3fx@."
    "guided"
    (Int64.to_float base_s.Harness.Evaluation.app_cycles
    /. Int64.to_float s.Harness.Evaluation.app_cycles)
    (Int64.to_float base_t.Harness.Evaluation.app_cycles
    /. Int64.to_float t.Harness.Evaluation.app_cycles)
    (Int64.to_float t.Harness.Evaluation.compile_cycles
    /. Int64.to_float base_t.Harness.Evaluation.compile_cycles);
  Format.fprintf fmt
    "(merged vs either search alone mirrors the paper; 'guided' is the \
     paper's@.Section-5 future work, implemented here as per-method hill \
     climbing on Eq. 2)@.@."

let ablate_rank ~jobs cfg =
  section "Ablation: ranking selection rule (best-1 vs top-3 within 95%)";
  let outcomes = get_outcomes ~jobs cfg in
  let records = Harness.Training.records_of outcomes in
  List.iter
    (fun (label, max_per_vector) ->
      let sizes =
        List.map
          (fun level ->
            List.length (Tessera_dataproc.Rank.rank ~max_per_vector ~level records))
          [ Plan.Cold; Plan.Warm; Plan.Hot ]
      in
      Format.fprintf fmt "%-10s training instances cold/warm/hot: %s@." label
        (String.concat " / " (List.map string_of_int sizes)))
    [ ("best-1", 1); ("top-3", 3); ("top-5", 5) ];
  Format.fprintf fmt "@."

let ablate_solver ~jobs cfg =
  section "Ablation: one-vs-rest vs Crammer-Singer multiclass solver";
  let outcomes = get_outcomes ~jobs cfg in
  let bench =
    Suites.scale_bench
      (Option.get (Suites.find "jack"))
      cfg.Harness.Expconfig.bench_scale
  in
  let base_s, _ = run_bench_pair ~cfg bench in
  List.iter
    (fun (label, solver) ->
      let t0 = Unix.gettimeofday () in
      let ms = Harness.Training.train_on_all ~solver ~name:label outcomes in
      let train_t = Unix.gettimeofday () -. t0 in
      let s, _ = run_bench_pair ~cfg ~model:ms bench in
      Format.fprintf fmt "%-16s trained in %.2fs, start-up %.3fx@." label
        train_t
        (Int64.to_float base_s.Harness.Evaluation.app_cycles
        /. Int64.to_float s.Harness.Evaluation.app_cycles))
    [
      ("one-vs-rest", Harness.Modelset.Ovr);
      ("crammer-singer", Harness.Modelset.Crammer_singer);
    ];
  Format.fprintf fmt "@."

let run_ablations ~jobs cfg =
  ablate_sync cfg;
  ablate_search ~jobs cfg;
  ablate_rank ~jobs cfg;
  ablate_solver ~jobs cfg

(* ------------------------------------------------------------------ *)
(* Start-up -> throughput crossover                                     *)
(* ------------------------------------------------------------------ *)

(* Not a figure of the paper, but the mechanism behind Figures 6 vs 10:
   the learned models' lead is built during the compilation wave and is
   then eroded at the paper's quality-sensitive steady state. *)
let run_crossover ~jobs cfg =
  section "Crossover: cumulative relative performance per iteration";
  let outcomes = get_outcomes ~jobs cfg in
  let loo = Harness.Training.train_loo ~jobs outcomes in
  let model_for (b : Suites.bench) =
    match
      List.find_opt
        (fun (s : Harness.Training.loo_set) ->
          s.Harness.Training.excluded_tag = b.Suites.tag)
        loo
    with
    | Some s -> s.Harness.Training.modelset
    | None -> (List.hd loo).Harness.Training.modelset
  in
  List.iter
    (fun name ->
      let bench = Option.get (Suites.find name) in
      let bench = Suites.scale_bench bench cfg.Harness.Expconfig.bench_scale in
      let series ?model () =
        let program = Tessera_workloads.Generate.program bench.Suites.profile in
        let callbacks =
          match model with
          | None -> Engine.no_callbacks
          | Some ms ->
              {
                Engine.no_callbacks with
                Engine.choose_modifier = Some (Harness.Modelset.choose_modifier ms);
              }
        in
        let engine = Engine.create ~callbacks program in
        Array.init 12 (fun it ->
            for j = 0 to bench.Suites.iteration_invocations - 1 do
              ignore
                (Engine.invoke_entry engine
                   [| Values.Int_v (Int64.of_int ((it * 31) + j)) |])
            done;
            Engine.app_cycles engine)
      in
      let base = series () in
      let model = series ~model:(model_for bench) () in
      Format.fprintf fmt "%-10s " name;
      Array.iteri
        (fun i b ->
          Format.fprintf fmt "%5.3f "
            (Int64.to_float b /. Int64.to_float model.(i)))
        base;
      Format.fprintf fmt "@.")
    [ "compress"; "db"; "jack"; "luindex" ];
  Format.fprintf fmt
    "(columns = iterations 1..12; >1 means the learned model is ahead; the \
     lead@.from the compile wave erodes as the steady state exposes plan \
     quality)@.@."

(* ------------------------------------------------------------------ *)
(* Platform sensitivity                                                 *)
(* ------------------------------------------------------------------ *)

(* The paper's Section-1 motivation: compilation plans tuned for one
   platform may need redesign on another.  Deploy models trained on the
   default target (zircon) onto a RISC-ish target (obsidian) and compare
   with models trained on obsidian data. *)
let run_platform ~jobs cfg =
  section "Platform sensitivity (Section 1's motivation)";
  let outcomes_zircon = get_outcomes ~jobs cfg in
  let zircon_model =
    Harness.Training.train_on_all ~name:"zircon-trained" outcomes_zircon
  in
  let obsidian = Tessera_vm.Target.obsidian in
  let t0 = Unix.gettimeofday () in
  let outcomes_obsidian =
    Harness.Collection.collect_training_set ~cfg ~target:obsidian ~jobs ()
  in
  Format.fprintf fmt "[obsidian collection took %.1fs]@."
    (Unix.gettimeofday () -. t0);
  let obsidian_model =
    Harness.Training.train_on_all ~name:"obsidian-trained" outcomes_obsidian
  in
  List.iter
    (fun name ->
      let bench = Option.get (Suites.find name) in
      let startup ?model target =
        (Harness.Evaluation.run_once ~cfg ~target ?model ~bench ~iterations:1
           ~trial:0 ())
          .Harness.Evaluation.app_cycles
      in
      let base = startup obsidian in
      let cross = startup ~model:zircon_model obsidian in
      let native = startup ~model:obsidian_model obsidian in
      let home = startup ~model:zircon_model Tessera_vm.Target.zircon in
      let home_base = startup Tessera_vm.Target.zircon in
      Format.fprintf fmt
        "%-10s on zircon: home-trained %.3fx | on obsidian: cross-deployed \
         %.3fx, natively trained %.3fx@."
        name
        (Int64.to_float home_base /. Int64.to_float home)
        (Int64.to_float base /. Int64.to_float cross)
        (Int64.to_float base /. Int64.to_float native))
    [ "compress"; "db"; "h2" ];
  Format.fprintf fmt
    "(the learned approach transfers: zircon-trained models still help on \
     obsidian@.without any per-platform hand-tuning — automating exactly \
     the porting cost the@.paper's introduction motivates; retraining on \
     the deployment target is a data-@.collection run, not a \
     compiler-engineering effort)@.@."

(* ------------------------------------------------------------------ *)
(* Warm-start vs cold-start (persistent code cache)                     *)
(* ------------------------------------------------------------------ *)

module Codecache = Tessera_cache.Codecache

(* Start-up cost is exactly what a persistent code cache attacks: run
   the same workload cold (empty cache), warm (second run over the same
   cache dir), and warm read-only, and emit BENCH_cache.json with
   time-to-steady-state (app cycles at the end of iteration 1) and the
   total compile bill of each mode. *)
let run_cache ~jobs cfg =
  section "Warm-start vs cold-start (persistent code cache)";
  let bench =
    Suites.scale_bench
      (Option.get (Suites.find "compress"))
      cfg.Harness.Expconfig.bench_scale
  in
  let iterations = 3 in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tessera_bench_cache_%d" (Unix.getpid ()))
  in
  let clear () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  let run ~readonly () =
    let cache = Codecache.create ~dir ~capacity_mb:64 ~readonly () in
    let program = Tessera_workloads.Generate.program bench.Suites.profile in
    let engine =
      Engine.create
        ~config:{ Engine.default_config with Engine.code_cache = Some cache }
        program
    in
    let marks =
      Array.init iterations (fun it ->
          for j = 0 to bench.Suites.iteration_invocations - 1 do
            ignore
              (Engine.invoke_entry engine
                 [| Values.Int_v (Int64.of_int ((it * 31) + j)) |])
          done;
          Engine.app_cycles engine)
    in
    Codecache.close cache;
    ( marks,
      Engine.total_compile_cycles engine,
      Engine.compile_count engine,
      Engine.cache_hits engine )
  in
  clear ();
  (* let-sequenced: list elements would evaluate right-to-left *)
  let cold = run ~readonly:false () in
  let warm = run ~readonly:false () in
  let warm_readonly = run ~readonly:true () in
  let runs =
    [ ("cold", cold); ("warm", warm); ("warm_readonly", warm_readonly) ]
  in
  List.iter
    (fun (name, (marks, compile_cycles, compilations, aot_loads)) ->
      Format.fprintf fmt
        "%-14s time-to-steady %8.2fM cycles, total %8.2fM, compile %8.2fM \
         (%d compilations, %d AOT loads)@."
        name
        (Int64.to_float marks.(0) /. 1e6)
        (Int64.to_float marks.(iterations - 1) /. 1e6)
        (Int64.to_float compile_cycles /. 1e6)
        compilations aot_loads)
    runs;
  let json =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf
      (Printf.sprintf "  \"benchmark\": %S,\n  \"iterations\": %d,\n"
         bench.Suites.profile.Tessera_workloads.Profile.name iterations);
    Buffer.add_string buf (host_json_fields ~quick:(is_quick cfg) ~jobs);
    Buffer.add_string buf "  \"runs\": {\n";
    List.iteri
      (fun i (name, (marks, compile_cycles, compilations, aot_loads)) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    %S: {\"time_to_steady_state_cycles\": %Ld, \
              \"total_app_cycles\": %Ld, \"compile_cycles\": %Ld, \
              \"compilations\": %d, \"aot_loads\": %d}%s\n"
             name marks.(0)
             marks.(iterations - 1)
             compile_cycles compilations aot_loads
             (if i < List.length runs - 1 then "," else "")))
      runs;
    Buffer.add_string buf "  },\n";
    let tts name = (fun (m, _, _, _) -> m.(0)) (List.assoc name runs) in
    Buffer.add_string buf
      (Printf.sprintf "  \"warm_tts_speedup\": %.4f\n"
         (Int64.to_float (tts "cold") /. Int64.to_float (tts "warm")));
    Buffer.add_string buf "}\n";
    Buffer.contents buf
  in
  Tessera_util.Fileio.atomic_write ~path:"BENCH_cache.json" json;
  Format.fprintf fmt "[wrote BENCH_cache.json]@.@.";
  clear ()

(* ------------------------------------------------------------------ *)
(* Observability overhead                                               *)
(* ------------------------------------------------------------------ *)

module Trace = Tessera_obs.Trace

(* The tracing discipline promises that a disabled ring costs one
   load-and-branch per event site.  Run the same workload with tracing
   off and on and emit BENCH_obs.json with the wall-clock overhead of
   the on state (budget: <3%). *)
let run_obs ~jobs cfg =
  section "Observability overhead (tracing off vs on)";
  let bench =
    Suites.scale_bench
      (Option.get (Suites.find "compress"))
      cfg.Harness.Expconfig.bench_scale
  in
  let program = Tessera_workloads.Generate.program bench.Suites.profile in
  let iterations = 3 in
  let run () =
    let engine = Engine.create program in
    for it = 0 to iterations - 1 do
      for j = 0 to bench.Suites.iteration_invocations - 1 do
        ignore
          (Engine.invoke_entry engine
             [| Values.Int_v (Int64.of_int ((it * 31) + j)) |])
      done
    done
  in
  let time_best reps f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      f ();
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  run () (* warm the code paths once before timing *);
  Trace.disable ();
  Trace.reset ();
  let reps = 5 in
  let off_s = time_best reps run in
  Trace.enable ();
  let on_s = time_best reps run in
  let events = Trace.length () in
  let dropped = Trace.dropped () in
  Trace.disable ();
  Trace.reset ();
  Trace.clear_cycle_source ();
  let overhead_pct = (on_s -. off_s) /. off_s *. 100.0 in
  Format.fprintf fmt
    "%-10s disabled %.2f ms, enabled %.2f ms (overhead %+.2f%%; %d events \
     buffered, %d dropped)@."
    bench.Suites.profile.Tessera_workloads.Profile.name (off_s *. 1e3)
    (on_s *. 1e3) overhead_pct events dropped;
  let json =
    Printf.sprintf
      "{\n\
      \  \"benchmark\": %S,\n\
      \  \"iterations\": %d,\n\
      \  \"reps\": %d,\n\
      %s\
      \  \"disabled_wall_s\": %.6f,\n\
      \  \"enabled_wall_s\": %.6f,\n\
      \  \"overhead_pct\": %.4f,\n\
      \  \"events\": %d,\n\
      \  \"dropped\": %d\n\
       }\n"
      bench.Suites.profile.Tessera_workloads.Profile.name iterations reps
      (host_json_fields ~quick:(is_quick cfg) ~jobs)
      off_s on_s overhead_pct events dropped
  in
  Tessera_util.Fileio.atomic_write ~path:"BENCH_obs.json" json;
  Format.fprintf fmt "[wrote BENCH_obs.json]@.@."

(* ------------------------------------------------------------------ *)
(* Flat execution tier: dispatch throughput (BENCH_flat.json)           *)
(* ------------------------------------------------------------------ *)

module Il_program = Tessera_il.Program
module Interp = Tessera_vm.Interp
module Flat_prog = Tessera_flat.Prog
module Flat_interp = Tessera_flat.Interp

(* The flat tier's contract: bit-identical virtual cycles, less host
   time per virtual cycle.  Run the same all-interpreted workload
   through the tree walker, the flat dispatch loop, and the flat loop
   with superinstructions; assert the three legs charge exactly the
   same cycles; and emit BENCH_flat.json with the dispatch throughput
   (virtual cycles retired per wall second) of each leg plus the
   opcode-pair census behind the fusion table. *)
let run_flat ~jobs cfg =
  section "Flat execution tier: tree walker vs threaded code";
  let quick = is_quick cfg in
  let reps = if quick then 3 else 5 in
  let fuel_budget = Engine.default_config.Engine.fuel_per_invocation in
  let time_best f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      f ();
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let per_bench =
    List.map
      (fun name ->
        let bench =
          Suites.scale_bench
            (Option.get (Suites.find name))
            cfg.Harness.Expconfig.bench_scale
        in
        let program = Tessera_workloads.Generate.program bench.Suites.profile in
        let n = Il_program.method_count program in
        let base =
          Array.init n (fun i -> Flat_prog.of_meth (Il_program.meth program i))
        in
        let fused = Array.map Flat_prog.fuse base in
        (* one all-interpreted leg: a raw context whose invoke closure
           recurses through the same dispatcher for every callee *)
        let leg exec =
          let cycles = ref 0L in
          let fuel = ref 0 in
          let rec ctx =
            {
              Interp.classes = program.Il_program.classes;
              charge =
                (fun c -> cycles := Int64.add !cycles (Int64.of_int c));
              invoke = (fun id args -> exec ctx id args);
              fuel;
            }
          in
          let iteration () =
            for j = 0 to bench.Suites.iteration_invocations - 1 do
              fuel := fuel_budget;
              try
                ignore
                  (exec ctx program.Il_program.entry
                     [| Values.Int_v (Int64.of_int j) |])
              with Values.Trap _ -> ()
            done
          in
          iteration () (* warm the host code paths before timing *);
          cycles := 0L;
          iteration ();
          let per_iter = !cycles in
          (per_iter, time_best iteration)
        in
        let tree_cycles, tree_s =
          leg (fun ctx id args -> Interp.run ctx (Il_program.meth program id) args)
        in
        let flat_cycles, flat_s =
          leg (fun ctx id args -> Flat_interp.run ctx base.(id) args)
        in
        let super_cycles, super_s =
          leg (fun ctx id args -> Flat_interp.run ctx fused.(id) args)
        in
        if tree_cycles <> flat_cycles || tree_cycles <> super_cycles then
          failwith
            (Printf.sprintf
               "flat tier charged different cycles on %s: tree %Ld, flat \
                %Ld, flat+super %Ld"
               name tree_cycles flat_cycles super_cycles);
        let fused_sites =
          Array.fold_left (fun a p -> a + p.Flat_prog.fused_pairs) 0 fused
        in
        (* opcode-pair census over the unfused programs: the data the
           compile-time fusion table was derived from *)
        let pairs = Array.make (Flat_prog.kind_count * Flat_prog.kind_count) 0 in
        let () =
          let fuel = ref 0 in
          let rec ctx =
            {
              Interp.classes = program.Il_program.classes;
              charge = (fun _ -> ());
              invoke =
                (fun id args -> Flat_interp.run_counted ~pairs ctx base.(id) args);
              fuel;
            }
          in
          for j = 0 to bench.Suites.iteration_invocations - 1 do
            fuel := fuel_budget;
            try
              ignore
                (Flat_interp.run_counted ~pairs ctx base.(program.Il_program.entry)
                   [| Values.Int_v (Int64.of_int j) |])
            with Values.Trap _ -> ()
          done
        in
        let top_pairs =
          let all = ref [] in
          Array.iteri
            (fun i c -> if c > 0 then all := (i, c) :: !all)
            pairs;
          List.filteri
            (fun i _ -> i < 8)
            (List.sort (fun (_, a) (_, b) -> compare b a) !all)
          |> List.map (fun (i, c) ->
                 ( Flat_prog.kind_name (i / Flat_prog.kind_count),
                   Flat_prog.kind_name (i mod Flat_prog.kind_count),
                   c ))
        in
        Format.fprintf fmt
          "%-10s %8.2fM cycles/iter | tree %7.2f Mcyc/s | flat %7.2f \
           Mcyc/s (%.3fx) | +super %7.2f Mcyc/s (%.3fx, %d fused sites)@."
          name
          (Int64.to_float tree_cycles /. 1e6)
          (Int64.to_float tree_cycles /. tree_s /. 1e6)
          (Int64.to_float tree_cycles /. flat_s /. 1e6)
          (tree_s /. flat_s)
          (Int64.to_float tree_cycles /. super_s /. 1e6)
          (tree_s /. super_s) fused_sites;
        (name, tree_cycles, tree_s, flat_s, super_s, fused_sites, top_pairs))
      [ "compress"; "db"; "jack" ]
  in
  let geomean f =
    exp
      (List.fold_left (fun a r -> a +. log (f r)) 0.0 per_bench
      /. float_of_int (List.length per_bench))
  in
  let flat_speedup = geomean (fun (_, _, t, f, _, _, _) -> t /. f) in
  let super_speedup = geomean (fun (_, _, t, _, s, _, _) -> t /. s) in
  (* fraction of the flat tier's win contributed by superinstruction
     fusion (0 = fusion does nothing, 1 = the whole win is fusion) *)
  let super_share =
    if super_speedup <= 1.0 then 0.0
    else (super_speedup -. flat_speedup) /. (super_speedup -. 1.0)
  in
  Format.fprintf fmt
    "geomean: flat %.3fx, flat+super %.3fx (superinstruction share \
     %.1f%%)@."
    flat_speedup super_speedup (super_share *. 100.0);
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "%s  \"reps\": %d,\n  \"benchmarks\": [\n"
       (host_json_fields ~quick ~jobs) reps);
  List.iteri
    (fun i (name, cycles, tree_s, flat_s, super_s, fused_sites, top_pairs) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"cycles_per_iteration\": %Ld,\n\
           \     \"tree_wall_s\": %.6f, \"flat_wall_s\": %.6f, \
            \"flat_super_wall_s\": %.6f,\n\
           \     \"flat_speedup\": %.4f, \"flat_super_speedup\": %.4f,\n\
           \     \"fused_sites\": %d,\n\
           \     \"top_pairs\": [" name cycles tree_s flat_s super_s
           (tree_s /. flat_s) (tree_s /. super_s) fused_sites);
      List.iteri
        (fun j (a, b, c) ->
          Buffer.add_string buf
            (Printf.sprintf "%s{\"first\": %S, \"second\": %S, \"count\": %d}"
               (if j > 0 then ", " else "")
               a b c))
        top_pairs;
      Buffer.add_string buf
        (Printf.sprintf "]}%s\n"
           (if i < List.length per_bench - 1 then "," else "")))
    per_bench;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"flat_speedup_geomean\": %.4f,\n\
       \  \"flat_super_speedup_geomean\": %.4f,\n\
       \  \"superinstruction_share\": %.4f\n}\n"
       flat_speedup super_speedup super_share);
  Tessera_util.Fileio.atomic_write ~path:"BENCH_flat.json" (Buffer.contents buf);
  Format.fprintf fmt "[wrote BENCH_flat.json]@.@."

(* ------------------------------------------------------------------ *)
(* Deterministic sampling profiler (BENCH_profile.json)                 *)
(* ------------------------------------------------------------------ *)

module Profile = Tessera_obs.Profile

(* Two oracles over the sampling profiler (attribution parity between
   the flat tier and the tree walker is checked in test/test_flat.ml):

   - determinism: two same-seed runs must serialize to byte-identical
     canonical profiles (the virtual clock is the sampling trigger, so
     host speed cannot move a sample);
   - off-state cost: with the profiler off the interpreters select the
     unwrapped charge closure, so the off state must be
     indistinguishable — within the <3% observability budget, which
     here bounds pure measurement noise — from a pristine run made
     before the profiler was ever enabled in the process. *)
let run_profile ~jobs cfg =
  section "Sampling profiler: determinism, off-state cost";
  let bench =
    Suites.scale_bench
      (Option.get (Suites.find "compress"))
      cfg.Harness.Expconfig.bench_scale
  in
  let program = Tessera_workloads.Generate.program bench.Suites.profile in
  let iterations = 3 in
  let run () =
    let engine = Engine.create program in
    for it = 0 to iterations - 1 do
      for j = 0 to bench.Suites.iteration_invocations - 1 do
        ignore
          (Engine.invoke_entry engine
             [| Values.Int_v (Int64.of_int ((it * 31) + j)) |])
      done
    done;
    Engine.app_cycles engine
  in
  let time_best reps f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  for _ = 1 to 4 do
    ignore (run ()) (* warm host code paths and heap before timing *)
  done;
  let reps = 9 in
  let period = 4096 in
  (* the three timing legs run back to back with a normalized heap, so
     slow drift of the host (GC heap growth, frequency scaling) cannot
     masquerade as overhead: pristine (the profiler has never been
     enabled in this process), off (after an enable/disable cycle — the
     same unwrapped charge closure, so any measured difference is the
     off-state cost plus noise), then on *)
  let timed_leg f =
    Gc.major ();
    time_best reps f
  in
  let pristine_s = timed_leg run in
  Profile.enable ~period ();
  Profile.disable ();
  Profile.reset ();
  let off_s = timed_leg run in
  Profile.enable ~period ();
  let on_s = timed_leg run in
  let off_overhead_pct = (off_s -. pristine_s) /. pristine_s *. 100.0 in
  let on_overhead_pct = (on_s -. off_s) /. off_s *. 100.0 in
  (* determinism oracle: two identical runs, byte-identical profiles *)
  Profile.enable ~period ();
  let app_cycles = run () in
  let canon1 = Profile.to_canonical_string () in
  let top_flat =
    match Profile.hot_methods () with (m, _) :: _ -> m | [] -> ""
  in
  let profile_json = Profile.to_json () in
  let total = Profile.total_samples () in
  let sites = Profile.site_count () in
  let dropped = Profile.dropped_samples () in
  Profile.report fmt;
  Profile.enable ~period ();
  ignore (run ());
  let canon2 = Profile.to_canonical_string () in
  let deterministic = String.equal canon1 canon2 in
  Profile.disable ();
  Profile.reset ();
  let coverage =
    float_of_int total *. float_of_int period /. Int64.to_float app_cycles
  in
  Format.fprintf fmt
    "%-10s %d samples at period %d (%d sites, %d dropped); sample coverage \
     %.3f of %.2fM charged cycles@."
    bench.Suites.profile.Tessera_workloads.Profile.name total period sites
    dropped coverage
    (Int64.to_float app_cycles /. 1e6);
  Format.fprintf fmt
    "pristine %.2f ms, profiler-off %.2f ms (%+.2f%%), profiler-on %.2f ms \
     (%+.2f%% over off)@."
    (pristine_s *. 1e3) (off_s *. 1e3) off_overhead_pct (on_s *. 1e3)
    on_overhead_pct;
  Format.fprintf fmt
    "determinism: %s; hottest method %s@.@."
    (if deterministic then "byte-identical" else "DIVERGED")
    top_flat;
  let json =
    Printf.sprintf
      "{\n\
      \  \"benchmark\": %S,\n\
      \  \"iterations\": %d,\n\
      \  \"reps\": %d,\n\
      %s\
      \  \"period_cycles\": %d,\n\
      \  \"total_samples\": %d,\n\
      \  \"sites\": %d,\n\
      \  \"dropped\": %d,\n\
      \  \"sample_coverage\": %.4f,\n\
      \  \"pristine_wall_s\": %.6f,\n\
      \  \"profiler_off_wall_s\": %.6f,\n\
      \  \"profiler_on_wall_s\": %.6f,\n\
      \  \"profiler_off_overhead_pct\": %.4f,\n\
      \  \"profiler_on_overhead_pct\": %.4f,\n\
      \  \"deterministic\": %b,\n\
      \  \"top_method_flat\": %S,\n\
      \  \"profile\": %s}\n"
      bench.Suites.profile.Tessera_workloads.Profile.name iterations reps
      (host_json_fields ~quick:(is_quick cfg) ~jobs)
      period total sites dropped coverage pristine_s
      off_s on_s off_overhead_pct on_overhead_pct deterministic top_flat
      profile_json
  in
  Tessera_util.Fileio.atomic_write ~path:"BENCH_profile.json" json;
  Format.fprintf fmt "[wrote BENCH_profile.json]@.@.";
  let failures = ref [] in
  let check cond what = if not cond then failures := what :: !failures in
  check deterministic "same-seed profiles were not byte-identical";
  check (total > 0) "the profiled run produced no samples";
  if !failures <> [] then begin
    List.iter (Format.fprintf fmt "FAILED: %s@.") (List.rev !failures);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Concurrent serving under load (BENCH_serve.json)                     *)
(* ------------------------------------------------------------------ *)

module Serve = Tessera_protocol.Serve
module Tracectx = Tessera_protocol.Tracectx
module Conn = Tessera_protocol.Conn
module Channel = Tessera_protocol.Channel
module Message = Tessera_protocol.Message
module Injector = Tessera_faults.Injector
module Spec = Tessera_faults.Spec

type sim_role = Honest | Slow | Byzantine

(* One simulated client of the serving engine.  [rx] reuses the server's
   own Conn state machine for reply reassembly — frames are symmetric,
   and byzantine channels corrupt the response direction too. *)
type sim_client = {
  s_idx : int;
  s_role : sim_role;
  s_tx : Channel.t;
  s_rx : Conn.t;
  mutable s_sent : int;
  mutable s_preds : int;
  mutable s_sheds : int;
  mutable s_errors : int;
  mutable s_inflight : bool;
  mutable s_sent_t : float;
  mutable s_lats : float list;
  mutable s_dead : bool;
}

let pump_sim_client cl =
  if not cl.s_dead then
    List.iter
      (fun ev ->
        match ev with
        | Conn.Msg (Message.Prediction _) ->
            cl.s_preds <- cl.s_preds + 1;
            if cl.s_inflight then begin
              cl.s_inflight <- false;
              cl.s_lats <- (Unix.gettimeofday () -. cl.s_sent_t) :: cl.s_lats
            end
        | Conn.Msg Message.Overloaded ->
            cl.s_sheds <- cl.s_sheds + 1;
            cl.s_inflight <- false
        | Conn.Msg (Message.Error_msg _) ->
            cl.s_errors <- cl.s_errors + 1;
            cl.s_inflight <- false
        | Conn.Msg _ -> () (* Init_ok handshake answer *)
        | Conn.Strike _ -> ()
        | Conn.Eof -> cl.s_dead <- true)
      (Conn.pump cl.s_rx)

let sim_features i =
  Array.init Tessera_features.Features.dim (fun k ->
      float_of_int (((i * 7) + (k * 3)) mod 97))

let serve_json ~mode ~quick ~jobs ~clients ~requests ~fields =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"mode\": %S,\n%s  \"clients\": %d,\n\
       \  \"requests_per_client\": %d,\n"
       mode (host_json_fields ~quick ~jobs) clients requests);
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf "  %S: %s%s\n" k v
           (if i < List.length fields - 1 then "," else "")))
    fields;
  Buffer.add_string buf "}\n";
  Tessera_util.Fileio.atomic_write ~path:"BENCH_serve.json" (Buffer.contents buf);
  Format.fprintf fmt "[wrote BENCH_serve.json]@.@."

(* Client-side latency quantiles through the same histogram machinery
   the serving engine itself exports: observe into a finely-bucketed
   [Metrics] histogram and read it back with the exact-quantile
   accessor, instead of ad-hoc percentile math over a sorted array.
   Buckets are geometric from 1 µs to ~18 s, so the interpolation error
   stays under one bucket ratio (30%) at any scale. *)
let lat_buckets = Array.init 52 (fun i -> 1e-6 *. (1.38 ** float_of_int i))

let lat_stats lats =
  let reg = Metrics.create () in
  let h =
    Metrics.histogram reg ~buckets:lat_buckets "bench_client_latency_seconds"
  in
  List.iter (Metrics.observe h) lats;
  if Metrics.histogram_count h = 0 then (0.0, 0.0)
  else (Metrics.quantile h 0.5 *. 1e3, Metrics.quantile h 0.99 *. 1e3)

(* The in-process fleet: thousands of clients over in-memory channels,
   run in lockstep with Serve.tick so the schedule is deterministic
   enough to assert on.  The mix is ~80% honest (closed loop, window 1),
   10% slow (send and read rarely), 10% byzantine (fault-injected
   channels plus contextually-wrong frames).  A worker crash is injected
   mid-run to exercise the supervisor.  Asserts: every honest request is
   answered, overload is answered with Overloaded (not silence), the
   byzantine peers are struck out, and the final drain beats its
   deadline. *)
let run_serve ~jobs ?clients cfg =
  section "Concurrent serving: mixed fleet, backpressure, shedding, drain";
  let outcomes = get_outcomes ~jobs cfg in
  let ms = Harness.Training.train_on_all ~name:"serve" outcomes in
  let quick = is_quick cfg in
  let n_clients =
    match clients with Some n -> n | None -> if quick then 250 else 1200
  in
  let requests = 20 in
  let rounds = if quick then 30 else 60 in
  let crash_armed = ref true in
  let calls = ref 0 in
  let make_predictor _wid =
    let real = Harness.Modelset.server_batch_predictor ms in
    fun ~level rows ->
      incr calls;
      if !crash_armed && !calls > 3 then begin
        crash_armed := false;
        failwith "injected worker crash (bench serve)"
      end;
      real ~level rows
  in
  let config =
    {
      Serve.default_config with
      Serve.max_conns = n_clients + 8;
      per_conn_queue = 4;
      queue_hwm = (if quick then 64 else 256);
      max_protocol_errors = 8;
      workers = 2;
    }
  in
  let engine = Serve.create ~config ~make_predictor () in
  let byz_spec =
    { Spec.default with Spec.corrupt = 0.25; garbage = 0.1; drop = 0.05 }
  in
  let mk_client i =
    let server_end, client_end = Channel.pipe_pair () in
    let role =
      match i mod 10 with 8 -> Slow | 9 -> Byzantine | _ -> Honest
    in
    let server_ch =
      match role with
      | Byzantine ->
          Injector.wrap_channel
            (Injector.create
               ~sleep:(fun _ -> ())
               ~spec:byz_spec
               ~seed:(Int64.of_int (1000 + i))
               ())
            server_end
      | Honest | Slow -> server_end
    in
    (match Serve.accept engine server_ch with
    | Some _ -> ()
    | None -> failwith "bench serve: accept refused below max_conns");
    Message.send client_end (Message.Init { model_name = "serve" });
    {
      s_idx = i;
      s_role = role;
      s_tx = client_end;
      s_rx = Conn.create ~id:i client_end;
      s_sent = 0;
      s_preds = 0;
      s_sheds = 0;
      s_errors = 0;
      s_inflight = false;
      s_sent_t = 0.0;
      s_lats = [];
      s_dead = false;
    }
  in
  let fleet = Array.init n_clients mk_client in
  let count role =
    Array.fold_left
      (fun n cl -> if cl.s_role = role then n + 1 else n)
      0 fleet
  in
  Format.fprintf fmt "fleet: %d clients (%d honest, %d slow, %d byzantine)@."
    n_clients (count Honest) (count Slow) (count Byzantine);
  let levels = [| Plan.Cold; Plan.Warm; Plan.Hot |] in
  let send_predict cl =
    try
      Message.send cl.s_tx
        (Message.Predict
           {
             level = levels.(cl.s_sent mod 3);
             features = sim_features cl.s_idx;
             trace =
               (if !Trace.enabled then Tracectx.fresh () else Tracectx.none);
           });
      cl.s_sent <- cl.s_sent + 1;
      cl.s_inflight <- true;
      cl.s_sent_t <- Unix.gettimeofday ()
    with Channel.Closed -> cl.s_dead <- true
  in
  let t0 = Unix.gettimeofday () in
  for round = 1 to rounds do
    Array.iter
      (fun cl ->
        if not cl.s_dead then
          match cl.s_role with
          | Honest ->
              if (not cl.s_inflight) && cl.s_sent < requests then
                send_predict cl
          | Slow ->
              if
                (not cl.s_inflight)
                && cl.s_sent < requests
                && round mod 6 = cl.s_idx mod 6
              then send_predict cl
          | Byzantine -> (
              (* no window, no manners: floods Predicts to hit the
                 per-connection bound, and every third frame is a
                 contextually-wrong Pong (a semantic strike) *)
              try
                if round mod 3 = 0 then Message.send cl.s_tx Message.Pong
                else send_predict cl
              with Channel.Closed -> cl.s_dead <- true))
      fleet;
    ignore (Serve.tick engine);
    Array.iter
      (fun cl ->
        (* slow clients read their replies rarely — they must not wedge
           anyone else *)
        if cl.s_role <> Slow || round mod 4 = 0 then pump_sim_client cl)
      fleet
  done;
  (* settle: stop offering load; every in-flight honest request must be
     answered (Prediction, Overloaded, or Error_msg — never silence) *)
  let unsettled () =
    Array.exists
      (fun cl -> cl.s_role <> Byzantine && (not cl.s_dead) && cl.s_inflight)
      fleet
  in
  let settle = ref 0 in
  while unsettled () && !settle < 500 do
    incr settle;
    ignore (Serve.tick engine);
    Array.iter pump_sim_client fleet
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let clean = Serve.finish_drain engine in
  let c = Serve.counters engine in
  Format.fprintf fmt "%a@." Serve.pp_counters c;
  let honest_lats =
    Array.fold_left
      (fun acc cl -> if cl.s_role = Honest then cl.s_lats @ acc else acc)
      [] fleet
  in
  let p50_ms, p99_ms = lat_stats honest_lats in
  let lost =
    Array.fold_left
      (fun n cl ->
        if cl.s_role <> Byzantine && (cl.s_dead || cl.s_inflight) then n + 1
        else n)
      0 fleet
  in
  let pps = float_of_int c.Serve.predictions /. Float.max 1e-9 wall in
  let burn = Serve.slo_burn_rate engine in
  Format.fprintf fmt
    "%.0f predictions/s over %.2fs; honest latency p50 %.3f ms, p99 %.3f \
     ms; settle rounds %d; slo burn rate %.3f@."
    pps wall p50_ms p99_ms !settle burn;
  let failures = ref [] in
  let check cond what = if not cond then failures := what :: !failures in
  check (lost = 0)
    (Printf.sprintf "%d honest/slow clients lost a request or their \
                     connection" lost);
  check (c.Serve.shed > 0) "overload was never exercised (no shed answers)";
  check
    (c.Serve.worker_restarts >= 1)
    "the injected worker crash did not trigger a supervisor restart";
  check (c.Serve.struck_out >= 1) "no byzantine connection was struck out";
  check clean "drain missed its deadline";
  serve_json ~mode:"in_process" ~quick ~jobs ~clients:n_clients ~requests
    ~fields:
      [
        ("honest", string_of_int (count Honest));
        ("slow", string_of_int (count Slow));
        ("byzantine", string_of_int (count Byzantine));
        ("rounds", string_of_int rounds);
        ("wall_s", Printf.sprintf "%.4f" wall);
        ("predictions", string_of_int c.Serve.predictions);
        ("predictions_per_sec", Printf.sprintf "%.1f" pps);
        ("shed", string_of_int c.Serve.shed);
        ("strikes", string_of_int c.Serve.strikes);
        ("struck_out", string_of_int c.Serve.struck_out);
        ("worker_restarts", string_of_int c.Serve.worker_restarts);
        ("dropped", string_of_int c.Serve.dropped);
        ("honest_lost", string_of_int lost);
        ("latency_p50_ms", Printf.sprintf "%.4f" p50_ms);
        ("latency_p99_ms", Printf.sprintf "%.4f" p99_ms);
        ("slo_burn_rate", Printf.sprintf "%.4f" burn);
        ("drain_clean", string_of_bool clean);
        ( "failures",
          "["
          ^ String.concat ", "
              (List.map (Printf.sprintf "%S") (List.rev !failures))
          ^ "]" );
      ];
  if !failures <> [] then begin
    List.iter (Format.fprintf fmt "FAILED: %s@.") (List.rev !failures);
    exit 1
  end;
  (* span-tree demo on a fresh engine: a handful of traced requests —
     kept out of the measured fleet above so tracing cost cannot skew
     the throughput numbers — rendered as the per-request critical-path
     table and exported as Chrome trace JSON *)
  Trace.reset ();
  Trace.enable ();
  let demo =
    Serve.create
      ~make_predictor:(fun _ -> Harness.Modelset.server_batch_predictor ms)
      ()
  in
  Trace.set_cycle_source (fun () -> Serve.vcycles demo);
  let demo_clients =
    Array.init 4 (fun i ->
        let server_end, client_end = Channel.pipe_pair () in
        (match Serve.accept demo server_end with
        | Some _ -> ()
        | None -> failwith "bench serve: demo accept refused");
        Message.send client_end (Message.Init { model_name = "serve" });
        (client_end, Conn.create ~id:i client_end))
  in
  for round = 1 to 12 do
    Array.iteri
      (fun i (tx, _) ->
        if round <= 3 then
          Message.send tx
            (Message.Predict
               {
                 level = levels.(i mod 3);
                 features = sim_features i;
                 trace = Tracectx.fresh ();
               }))
      demo_clients;
    ignore (Serve.tick demo);
    Array.iter (fun (_, rx) -> ignore (Conn.pump rx)) demo_clients
  done;
  ignore (Serve.finish_drain demo);
  let events = Trace.events () in
  Tessera_obs.Export.requests fmt events;
  Tessera_util.Fileio.atomic_write ~path:"BENCH_serve_trace.json"
    (Tessera_obs.Export.chrome_json events);
  Format.fprintf fmt "[wrote BENCH_serve_trace.json]@.@.";
  Trace.disable ();
  Trace.reset ();
  Trace.clear_cycle_source ()

(* Attach mode for the CI smoke: drive an already-running
   [tessera_server --socket PATH] with honest window-1 clients over real
   Unix sockets.  The server may be fault-injected, so lost requests are
   timed out, retried once, and reported rather than asserted away; the
   smoke's hard assertion is the server's own clean-drain exit code. *)
let run_serve_attach ~path ~clients ~requests =
  section (Printf.sprintf "Serving smoke: %d clients against %s" clients path);
  let connect i =
    let rec go tries =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> fd
      | exception
          Unix.Unix_error
            ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN | Unix.EINTR), _, _)
        when tries < 200 ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Unix.sleepf 0.05;
          go (tries + 1)
    in
    let fd = go 0 in
    let ch = Channel.of_fds fd fd in
    Message.send ch (Message.Init { model_name = "smoke" });
    {
      s_idx = i;
      s_role = Honest;
      s_tx = ch;
      s_rx = Conn.create ~id:i ch;
      s_sent = 0;
      s_preds = 0;
      s_sheds = 0;
      s_errors = 0;
      s_inflight = false;
      s_sent_t = 0.0;
      s_lats = [];
      s_dead = false;
    }
  in
  let fleet = Array.init clients connect in
  let timeouts = ref 0 in
  let deadline = Unix.gettimeofday () +. 120.0 in
  let active cl = (not cl.s_dead) && (cl.s_sent < requests || cl.s_inflight) in
  while
    Array.exists active fleet && Unix.gettimeofday () < deadline
  do
    let progressed = ref false in
    Array.iter
      (fun cl ->
        if not cl.s_dead then begin
          if (not cl.s_inflight) && cl.s_sent < requests then begin
            (try
               Message.send cl.s_tx
                 (Message.Predict
                    {
                      level = Plan.Hot;
                      features = sim_features cl.s_idx;
                      trace = Tracectx.none;
                    });
               cl.s_sent <- cl.s_sent + 1;
               cl.s_inflight <- true;
               cl.s_sent_t <- Unix.gettimeofday ()
             with Channel.Closed -> cl.s_dead <- true);
            progressed := true
          end
          else if
            cl.s_inflight && Unix.gettimeofday () -. cl.s_sent_t > 2.0
          then begin
            (* a fault-injected server may have dropped the request or
               the reply: give up on this one and move on *)
            incr timeouts;
            cl.s_inflight <- false;
            progressed := true
          end;
          let before = cl.s_preds + cl.s_sheds + cl.s_errors in
          pump_sim_client cl;
          if cl.s_preds + cl.s_sheds + cl.s_errors > before then
            progressed := true
        end)
      fleet;
    if not !progressed then Unix.sleepf 0.002
  done;
  Array.iter
    (fun cl ->
      if not cl.s_dead then begin
        (try Message.send cl.s_tx Message.Shutdown
         with Channel.Closed -> ());
        try Channel.close cl.s_tx with Channel.Closed -> ()
      end)
    fleet;
  let sum f = Array.fold_left (fun n cl -> n + f cl) 0 fleet in
  let preds = sum (fun cl -> cl.s_preds) in
  let sheds = sum (fun cl -> cl.s_sheds) in
  let errors = sum (fun cl -> cl.s_errors) in
  let dead = sum (fun cl -> if cl.s_dead then 1 else 0) in
  let lats = Array.fold_left (fun acc cl -> cl.s_lats @ acc) [] fleet in
  let p50_ms, p99_ms = lat_stats lats in
  Format.fprintf fmt
    "predictions %d, shed %d, errors %d, timeouts %d, closed %d; latency \
     p50 %.3f ms, p99 %.3f ms@."
    preds sheds errors !timeouts dead p50_ms p99_ms;
  serve_json ~mode:"socket" ~quick:false ~jobs:1 ~clients ~requests
    ~fields:
      [
        ("socket", Printf.sprintf "%S" path);
        ("predictions", string_of_int preds);
        ("shed", string_of_int sheds);
        ("errors", string_of_int errors);
        ("timeouts", string_of_int !timeouts);
        ("connections_closed_on_us", string_of_int dead);
        ("latency_p50_ms", Printf.sprintf "%.4f" p50_ms);
        ("latency_p99_ms", Printf.sprintf "%.4f" p99_ms);
      ];
  if preds = 0 then begin
    Format.fprintf fmt "FAILED: not a single prediction was answered@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let run_micro ~jobs cfg =
  section "Micro-benchmarks (Bechamel, OLS ns/op)";
  let open Bechamel in
  let outcomes = get_outcomes ~jobs cfg in
  let ms = Harness.Training.train_on_all ~name:"micro" outcomes in
  let bench0 = List.hd Suites.specjvm98 in
  let program = Tessera_workloads.Generate.program bench0.Suites.profile in
  let meth = Tessera_il.Program.meth program 1 in
  let features = Tessera_features.Features.extract meth in
  let archive = (List.hd outcomes).Harness.Collection.merged in
  let archive_bytes = Tessera_collect.Archive.to_string archive in
  let server_ch, client_ch = Tessera_protocol.Channel.pipe_pair () in
  let serve_tick =
    Tessera_protocol.Serve.lockstep
      (Tessera_protocol.Serve.create
         ~make_predictor:(fun _ -> Harness.Modelset.server_batch_predictor ms)
         ())
      server_ch
  in
  let wire_features = Array.make Tessera_features.Features.dim 0.5 in
  let rng = Tessera_util.Prng.create 1L in
  let tests =
    [
      Test.make ~name:"model prediction (compiler query path)"
        (Staged.stage (fun () ->
             ignore (Harness.Modelset.predict ms ~level:Plan.Hot features)));
      Test.make
        ~name:
          (Printf.sprintf "feature extraction (%d dims)"
             Tessera_features.Features.dim)
        (Staged.stage (fun () ->
             ignore (Tessera_features.Features.extract meth)));
      Test.make ~name:"JIT compilation, cold plan"
        (Staged.stage (fun () ->
             ignore (Tessera_jit.Compiler.compile ~program ~level:Plan.Cold meth)));
      Test.make ~name:"archive encode"
        (Staged.stage (fun () ->
             ignore (Tessera_collect.Archive.to_string archive)));
      Test.make ~name:"archive decode"
        (Staged.stage (fun () ->
             ignore (Tessera_collect.Archive.of_string archive_bytes)));
      Test.make ~name:"protocol round-trip (in-memory)"
        (Staged.stage (fun () ->
             Tessera_protocol.Message.send client_ch
               (Tessera_protocol.Message.Predict
                  {
                    level = Plan.Hot;
                    features = wire_features;
                    trace = Tessera_protocol.Tracectx.none;
                  });
             serve_tick ();
             ignore (Tessera_protocol.Message.decode_from client_ch)));
      Test.make ~name:"progressive modifier generation"
        (Staged.stage (fun () ->
             ignore (Modifier.progressive rng ~i:1000 ~l:2000)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let bcfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  List.iter
    (fun test ->
      let raw = Benchmark.all bcfg [ instance ] test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name v ->
          match Analyze.OLS.estimates v with
          | Some [ ns ] -> Format.fprintf fmt "%-44s %14.1f ns/op@." name ns
          | _ -> Format.fprintf fmt "%-44s (no estimate)@." name)
        results)
    tests;
  Format.fprintf fmt "@."

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let serve_socket = ref None
let serve_clients = ref None
let serve_requests = ref None
let lint_enabled = ref false

let () =
  (* "<subcommand>" plus optional "quick" and "-j N" modifiers, in any
     order; a bare "quick" keeps its historical meaning of "everything,
     down-scaled" *)
  let int_flag flag n =
    match int_of_string_opt n with
    | Some v when v >= 1 -> v
    | _ -> failwith (Printf.sprintf "bad %s value %S" flag n)
  in
  let rec parse (cmd, quick, jobs) = function
    | [] -> (cmd, quick, jobs)
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> parse (cmd, quick, j) rest
        | _ -> failwith (Printf.sprintf "bad -j value %S" n))
    | [ "-j" ] -> failwith "-j needs a domain count"
    | "--socket" :: path :: rest ->
        serve_socket := Some path;
        parse (cmd, quick, jobs) rest
    | "--clients" :: n :: rest ->
        serve_clients := Some (int_flag "--clients" n);
        parse (cmd, quick, jobs) rest
    | "--requests" :: n :: rest ->
        serve_requests := Some (int_flag "--requests" n);
        parse (cmd, quick, jobs) rest
    | "quick" :: rest -> parse (cmd, true, jobs) rest
    | "--lint" :: rest ->
        (* audit every JIT pass application through the global hook; the
           verdict prints after the run (and after any digest line, so
           figure digests are unaffected) *)
        lint_enabled := true;
        Tessera_analysis.Lint.install ();
        parse (cmd, quick, jobs) rest
    | word :: rest -> parse (word, quick, jobs) rest
  in
  let cmd, quick, jobs =
    parse
      ("all", false, Pool.default_jobs ())
      (List.tl (Array.to_list Sys.argv))
  in
  let cfg =
    if quick then Harness.Expconfig.quick else Harness.Expconfig.default
  in
  let t0 = Unix.gettimeofday () in
  (match cmd with
  | "figures" -> run_figures ~jobs cfg
  | "kernels" -> run_kernels ~jobs cfg
  | "micro" -> run_micro ~jobs cfg
  | "ablations" -> run_ablations ~jobs cfg
  | "pipe" -> run_pipe_overhead ~jobs cfg
  | "crossover" -> run_crossover ~jobs cfg
  | "platform" -> run_platform ~jobs cfg
  | "cache" -> run_cache ~jobs cfg
  | "obs" -> run_obs ~jobs cfg
  | "parallel" -> run_parallel ~jobs cfg
  | "fork" -> run_fork_bench ~jobs cfg
  | "flat" -> run_flat ~jobs cfg
  | "profile" -> run_profile ~jobs cfg
  | "serve" -> (
      match !serve_socket with
      | Some path ->
          run_serve_attach ~path
            ~clients:(Option.value ~default:100 !serve_clients)
            ~requests:(Option.value ~default:20 !serve_requests)
      | None -> run_serve ~jobs ?clients:!serve_clients cfg)
  | _ ->
      run_figures ~jobs cfg;
      run_kernels ~jobs cfg;
      run_pipe_overhead ~jobs cfg;
      run_crossover ~jobs cfg;
      run_ablations ~jobs cfg;
      run_platform ~jobs cfg;
      run_cache ~jobs cfg;
      run_obs ~jobs cfg;
      run_parallel ~jobs cfg;
      run_fork_bench ~jobs cfg;
      run_flat ~jobs cfg;
      run_profile ~jobs cfg;
      run_serve ~jobs cfg;
      run_micro ~jobs cfg);
  Format.fprintf fmt "[total bench time %.1fs]@." (Unix.gettimeofday () -. t0);
  if !lint_enabled then begin
    let diags = Tessera_analysis.Lint.collected () in
    Format.fprintf fmt "[lint: %d diagnostics]@." (List.length diags);
    List.iter
      (fun d ->
        Format.fprintf fmt "DIAGNOSTIC %a@." Tessera_analysis.Lint.pp_diagnostic
          d)
      diags;
    if diags <> [] then exit 1
  end
