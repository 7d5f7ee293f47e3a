(* Integration tests of the full experiment pipeline at a tiny scale. *)

module Harness = Tessera_harness
module Suites = Tessera_workloads.Suites
module Plan = Tessera_opt.Plan
module Stats = Tessera_util.Stats

let tiny_cfg =
  {
    Harness.Expconfig.quick with
    Harness.Expconfig.collect_invocations = 40;
    progressive_l = 40;
    randomized_count = 15;
    uses_per_modifier = 3;
    trials = 1;
    noise_draws = 10;
    bench_scale = 0.5;
  }

(* collection + training are expensive; do them once for the module *)
let outcomes =
  lazy
    (List.map
       (Harness.Collection.collect_bench ~cfg:tiny_cfg)
       (List.filteri (fun i _ -> i < 2) Suites.training_set))

let test_collection () =
  let outcomes = Lazy.force outcomes in
  Alcotest.(check int) "two benchmarks" 2 (List.length outcomes);
  List.iter
    (fun (o : Harness.Collection.outcome) ->
      Alcotest.(check bool) "randomized has records" true
        (o.Harness.Collection.randomized.Tessera_collect.Archive.records <> []);
      Alcotest.(check bool) "progressive has records" true
        (o.Harness.Collection.progressive.Tessera_collect.Archive.records <> []);
      Alcotest.(check int) "merged is the union"
        (List.length o.Harness.Collection.randomized.Tessera_collect.Archive.records
        + List.length o.Harness.Collection.progressive.Tessera_collect.Archive.records)
        (List.length o.Harness.Collection.merged.Tessera_collect.Archive.records))
    outcomes

let test_draws_for_trial () =
  let check ~trials ~noise_draws =
    let total = ref 0 in
    for i = 0 to trials - 1 do
      let d = Harness.Evaluation.draws_for_trial ~trials ~noise_draws i in
      Alcotest.(check bool) "every trial draws" true (d >= 1);
      total := !total + d
    done;
    Alcotest.(check int)
      (Printf.sprintf "exact total for trials=%d draws=%d" trials noise_draws)
      (max trials noise_draws) !total
  in
  (* non-divisible, divisible, and trials > noise_draws configurations *)
  check ~trials:4 ~noise_draws:30;
  check ~trials:3 ~noise_draws:30;
  check ~trials:7 ~noise_draws:30;
  check ~trials:1 ~noise_draws:30;
  check ~trials:30 ~noise_draws:30;
  check ~trials:45 ~noise_draws:30

let test_fork_collection () =
  let cfg = { tiny_cfg with Harness.Expconfig.fork_fanout = 3 } in
  let bench = List.hd Suites.training_set in
  let o = Harness.Collection.collect_bench ~cfg ~fork:true ~fork_jobs:2 bench in
  Alcotest.(check bool) "fork collection has records" true
    (o.Harness.Collection.merged.Tessera_collect.Archive.records <> []);
  List.iter
    (fun (s : Tessera_collect.Collector.stats) ->
      Alcotest.(check bool) "forked" true (s.Tessera_collect.Collector.forks > 0))
    o.Harness.Collection.stats

let test_modelset_training () =
  let outcomes = Lazy.force outcomes in
  let ms = Harness.Training.train_on_all ~name:"tiny" outcomes in
  Alcotest.(check bool) "trained at least one level" true
    (ms.Harness.Modelset.levels <> []);
  List.iter
    (fun (lm : Harness.Modelset.level_model) ->
      Alcotest.(check bool) "learned levels only" true
        (List.mem lm.Harness.Modelset.level [ Plan.Cold; Plan.Warm; Plan.Hot ]);
      Alcotest.(check bool) "classes >= 2" true
        (Tessera_dataproc.Labels.size lm.Harness.Modelset.labels >= 2))
    ms.Harness.Modelset.levels;
  (* scorching predictions are the null modifier (paper: no model there) *)
  let f =
    Tessera_features.Features.of_array
      (Array.make Tessera_features.Features.dim 1)
  in
  Alcotest.(check bool) "scorching predicts null" true
    (Tessera_modifiers.Modifier.is_null
       (Harness.Modelset.predict ms ~level:Plan.Scorching f))

(* Levels train concurrently at [~jobs > 1], so a level timed by process
   CPU time also counts its siblings' domains and can exceed the wall
   time of the whole call.  That over-count needs a second core to show;
   on one core the check holds under either clock. *)
let test_modelset_train_seconds_wall () =
  let records = Harness.Training.records_of (Lazy.force outcomes) in
  let t0 = Unix.gettimeofday () in
  let ms = Harness.Modelset.train ~jobs:3 ~name:"tiny" records in
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "trained levels" true (ms.Harness.Modelset.levels <> []);
  List.iter
    (fun (lm : Harness.Modelset.level_model) ->
      let s = lm.Harness.Modelset.train_seconds in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4fs within the call's %.4fs"
           (Plan.level_name lm.Harness.Modelset.level) s wall)
        true
        (s >= 0.0 && s <= wall))
    ms.Harness.Modelset.levels

let test_modelset_save_load () =
  let outcomes = Lazy.force outcomes in
  let ms = Harness.Training.train_on_all ~name:"tiny" outcomes in
  let dir = Filename.temp_file "tessera" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Harness.Modelset.save ms ~dir;
      let ms' = Harness.Modelset.load ~name:"tiny" ~dir in
      Alcotest.(check int) "same level count"
        (List.length ms.Harness.Modelset.levels)
        (List.length ms'.Harness.Modelset.levels);
      (* loaded models predict identically *)
      let f =
        Tessera_features.Features.of_array
          (Array.init Tessera_features.Features.dim (fun i -> i mod 3))
      in
      List.iter
        (fun (lm : Harness.Modelset.level_model) ->
          let level = lm.Harness.Modelset.level in
          Alcotest.(check bool)
            (Plan.level_name level ^ " same prediction")
            true
            (Tessera_modifiers.Modifier.equal
               (Harness.Modelset.predict ms ~level f)
               (Harness.Modelset.predict ms' ~level f)))
        ms.Harness.Modelset.levels)

(* The engine extracts each method's features at most once: the model
   query reads its memo, snapshots carry it, and a new engine starts
   without one. *)
let test_feature_memo () =
  let module Engine = Tessera_jit.Engine in
  let module Features = Tessera_features.Features in
  let ms = Harness.Training.train_on_all ~name:"tiny" (Lazy.force outcomes) in
  let bench = Suites.scale_bench (Option.get (Suites.find "jack")) 0.4 in
  let program = Tessera_workloads.Generate.program bench.Suites.profile in
  let memo e id = (Engine.state e id).Engine.features in
  let queries = ref 0 and compiled = ref [] and bypassed = ref [] in
  (* the engine turns a raising predictor into a fallback, so a failed
     check is recorded here and asserted after the run *)
  let choose e ~meth_id ~level =
    incr queries;
    let before = memo e meth_id in
    let m = Harness.Modelset.choose_modifier ms e ~meth_id ~level in
    (match (before, memo e meth_id) with
    | _, None -> bypassed := meth_id :: !bypassed
    | Some f, Some g when f != g -> bypassed := meth_id :: !bypassed
    | _ -> ());
    m
  in
  let callbacks =
    {
      Engine.no_callbacks with
      Engine.choose_modifier = Some choose;
      on_compiled = Some (fun _ ~meth_id _ -> compiled := meth_id :: !compiled);
    }
  in
  let e = Engine.create ~callbacks program in
  for k = 0 to bench.Suites.iteration_invocations - 1 do
    ignore (Engine.invoke_entry e [| Tessera_vm.Values.Int_v (Int64.of_int k) |])
  done;
  Alcotest.(check bool) "the model was queried" true (!queries > 0);
  Alcotest.(check (list int)) "model queries that bypassed the memo" [] !bypassed;
  Alcotest.(check bool) "methods were compiled" true (!compiled <> []);
  let fresh = Engine.create program in
  let vectors =
    Array.mapi
      (fun id m ->
        let f = Engine.features e id in
        Alcotest.(check bool)
          (Printf.sprintf "method %d: extract ~program" id)
          true
          (Features.equal f (Features.extract ~program m));
        if Engine.features e id != f then
          Alcotest.failf "method %d: a second call extracted again" id;
        if memo fresh id <> None then
          Alcotest.failf "method %d: a new engine starts with a memo" id;
        f)
      program.Tessera_il.Program.methods
  in
  let restored = Engine.create program in
  Engine.restore restored (Engine.snapshot e);
  Array.iteri
    (fun id f ->
      if Engine.features restored id != f then
        Alcotest.failf "method %d: snapshot/restore lost the memo" id)
    vectors

let test_loo_structure () =
  let outcomes = Lazy.force outcomes in
  let loo = Harness.Training.train_loo outcomes in
  Alcotest.(check int) "one set per benchmark" 2 (List.length loo);
  List.iteri
    (fun i (s : Harness.Training.loo_set) ->
      Alcotest.(check string) "H-names" (Printf.sprintf "H%d" (i + 1)) s.Harness.Training.name;
      Alcotest.(check bool) "excluded tag recorded" true
        (s.Harness.Training.excluded_tag <> ""))
    loo

let test_evaluation_cells () =
  let outcomes = Lazy.force outcomes in
  let ms = Harness.Training.train_on_all ~name:"tiny" outcomes in
  let bench = Suites.scale_bench (Option.get (Suites.find "jack")) 0.4 in
  let cells = Harness.Evaluation.evaluate_bench ~cfg:tiny_cfg ~models:[ ms ] bench in
  Alcotest.(check int) "one cell" 1 (List.length cells);
  let c = List.hd cells in
  List.iter
    (fun (what, (s : Stats.summary)) ->
      Alcotest.(check bool) (what ^ " positive") true (s.Stats.mean > 0.0);
      Alcotest.(check bool) (what ^ " ci nonnegative") true (s.Stats.ci95 >= 0.0);
      Alcotest.(check int) (what ^ " draws") tiny_cfg.Harness.Expconfig.noise_draws
        s.Stats.n)
    [
      ("startup perf", c.Harness.Evaluation.startup_perf);
      ("startup compile", c.Harness.Evaluation.startup_compile);
      ("throughput perf", c.Harness.Evaluation.throughput_perf);
      ("throughput compile", c.Harness.Evaluation.throughput_compile);
    ];
  (* the learned model must reduce compilation time on this substrate *)
  Alcotest.(check bool) "compile time reduced" true
    (c.Harness.Evaluation.startup_compile.Stats.mean < 1.0)

let test_report_printers () =
  let outcomes = Lazy.force outcomes in
  let loo = Harness.Training.train_loo outcomes in
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  Harness.Report.collection_summary fmt outcomes;
  Harness.Report.training_summary fmt loo;
  Harness.Report.table4 fmt loo;
  Format.pp_print_flush fmt ();
  let out = Buffer.contents buf in
  Alcotest.(check bool) "mentions Table 4" true
    (String.length out > 200);
  (* one cell matrix renders as a figure *)
  let bench = Suites.scale_bench (Option.get (Suites.find "jack")) 0.4 in
  let ms = Harness.Training.train_on_all ~name:"tiny" outcomes in
  let cells = Harness.Evaluation.evaluate_bench ~cfg:tiny_cfg ~models:[ ms ] bench in
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Harness.Report.figure fmt ~id:"Figure X" ~title:"test" ~higher_better:true
    ~extract:(fun c -> c.Harness.Evaluation.startup_perf)
    cells;
  Format.pp_print_flush fmt ();
  Alcotest.(check bool) "figure rendered with geomean" true
    (String.length (Buffer.contents buf) > 100)

let suite =
  [
    Alcotest.test_case "collection" `Slow test_collection;
    Alcotest.test_case "noise draws distribute exactly" `Quick
      test_draws_for_trial;
    Alcotest.test_case "fork collection" `Slow test_fork_collection;
    Alcotest.test_case "model-set training" `Slow test_modelset_training;
    Alcotest.test_case "model-set train_seconds is wall time" `Slow
      test_modelset_train_seconds_wall;
    Alcotest.test_case "model-set save/load" `Slow test_modelset_save_load;
    Alcotest.test_case "one feature extraction per method per engine" `Slow
      test_feature_memo;
    Alcotest.test_case "leave-one-out structure" `Slow test_loo_structure;
    Alcotest.test_case "evaluation cells" `Slow test_evaluation_cells;
    Alcotest.test_case "report printers" `Slow test_report_printers;
  ]

let test_crossval () =
  let outcomes = Lazy.force outcomes in
  let records = Harness.Training.records_of outcomes in
  let accs = Harness.Crossval.kfold_accuracy ~k:3 records in
  List.iter
    (fun (a : Harness.Crossval.level_accuracy) ->
      Alcotest.(check bool) "accuracy in [0,1]" true
        (a.Harness.Crossval.accuracy >= 0.0 && a.Harness.Crossval.accuracy <= 1.0);
      Alcotest.(check bool) "instances positive" true
        (a.Harness.Crossval.instances > 0))
    accs;
  let loo = Harness.Crossval.loo_benchmark_accuracy outcomes in
  Alcotest.(check int) "one row per benchmark" 2 (List.length loo);
  let buf = Buffer.create 512 in
  let fmt = Format.formatter_of_buffer buf in
  Harness.Crossval.report fmt loo;
  Format.pp_print_flush fmt ();
  Alcotest.(check bool) "report renders" true (Buffer.length buf > 40)

let test_platform_targets_evaluable () =
  (* the same benchmark runs on both back-end targets with different
     cycle outcomes but equal compilation counts *)
  let bench = Suites.scale_bench (Option.get (Suites.find "jack")) 0.4 in
  let z =
    Harness.Evaluation.run_once ~cfg:tiny_cfg ~target:Tessera_vm.Target.zircon
      ~bench ~iterations:1 ~trial:0 ()
  in
  let o =
    Harness.Evaluation.run_once ~cfg:tiny_cfg ~target:Tessera_vm.Target.obsidian
      ~bench ~iterations:1 ~trial:0 ()
  in
  Alcotest.(check int) "same compilation count" z.Harness.Evaluation.compilations
    o.Harness.Evaluation.compilations;
  Alcotest.(check bool) "different app cycles" true
    (z.Harness.Evaluation.app_cycles <> o.Harness.Evaluation.app_cycles)

let suite =
  suite
  @ [
      Alcotest.test_case "cross-validation" `Slow test_crossval;
      Alcotest.test_case "platform targets evaluable" `Slow
        test_platform_targets_evaluable;
    ]

let test_persist_roundtrip () =
  let outcomes = Lazy.force outcomes in
  let dir = Filename.temp_file "tessera_campaign" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      Alcotest.(check bool) "not a campaign dir yet" false
        (Harness.Persist.is_campaign_dir dir);
      Harness.Persist.save ~dir outcomes;
      Alcotest.(check bool) "campaign dir" true (Harness.Persist.is_campaign_dir dir);
      let loaded = Harness.Persist.load ~dir in
      Alcotest.(check int) "same benchmark count" (List.length outcomes)
        (List.length loaded);
      List.iter2
        (fun (a : Harness.Collection.outcome) (b : Harness.Collection.outcome) ->
          Alcotest.(check string) "tag" a.Harness.Collection.tag b.Harness.Collection.tag;
          Alcotest.(check int) "merged records"
            (List.length a.Harness.Collection.merged.Tessera_collect.Archive.records)
            (List.length b.Harness.Collection.merged.Tessera_collect.Archive.records))
        (List.sort compare outcomes |> List.map Fun.id)
        loaded)

(* A stray .tsra file (editor backup, archive copied in by hand) must be
   skipped with a warning, not make the whole campaign unloadable. *)
let test_persist_skips_strays () =
  let outcomes = Lazy.force outcomes in
  let dir = Filename.temp_file "tessera_campaign" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      Harness.Persist.save ~dir outcomes;
      let oc = open_out (Filename.concat dir "not-a-benchmark.tsra") in
      output_string oc "junk";
      close_out oc;
      let loaded = Harness.Persist.load ~dir in
      Alcotest.(check int) "stray skipped, rest loaded" (List.length outcomes)
        (List.length loaded))

let suite =
  suite
  @ [
      Alcotest.test_case "campaign persistence" `Slow test_persist_roundtrip;
      Alcotest.test_case "campaign ignores stray files" `Slow
        test_persist_skips_strays;
    ]

(* ------------------------------------------------------------------ *)
(* Perf-regression sentinel                                             *)
(* ------------------------------------------------------------------ *)

let test_regress_thresholds () =
  Alcotest.(check bool) "within tolerance" true
    (Harness.Regress.min_ratio_ok ~baseline:1.0 ~candidate:0.9 ~tol:0.15);
  Alcotest.(check bool) "at the tolerance edge" true
    (Harness.Regress.min_ratio_ok ~baseline:1.0 ~candidate:0.85 ~tol:0.15);
  Alcotest.(check bool) "below tolerance" false
    (Harness.Regress.min_ratio_ok ~baseline:1.0 ~candidate:0.8 ~tol:0.15);
  Alcotest.(check bool) "improvement always passes" true
    (Harness.Regress.min_ratio_ok ~baseline:1.0 ~candidate:2.0 ~tol:0.15);
  Alcotest.(check bool) "nan candidate fails" false
    (Harness.Regress.min_ratio_ok ~baseline:1.0 ~candidate:Float.nan
       ~tol:0.15);
  Alcotest.(check bool) "nan baseline fails" false
    (Harness.Regress.min_ratio_ok ~baseline:Float.nan ~candidate:1.0
       ~tol:0.15);
  (* the floor admits small absolute values even when the baseline was
     tiny; the slack absorbs run-to-run noise above it *)
  Alcotest.(check bool) "under the floor passes a noisy baseline" true
    (Harness.Regress.max_abs_ok ~baseline:0.1 ~candidate:2.9 ~floor:3.0
       ~slack:2.0);
  Alcotest.(check bool) "within slack of the baseline" true
    (Harness.Regress.max_abs_ok ~baseline:4.0 ~candidate:5.5 ~floor:3.0
       ~slack:2.0);
  Alcotest.(check bool) "budget blown" false
    (Harness.Regress.max_abs_ok ~baseline:4.0 ~candidate:6.5 ~floor:3.0
       ~slack:2.0);
  Alcotest.(check bool) "nan budget fails" false
    (Harness.Regress.max_abs_ok ~baseline:4.0 ~candidate:Float.nan ~floor:3.0
       ~slack:2.0)

let with_temp_dir f =
  let dir = Filename.temp_file "tessera_regress" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let write_json dir name s =
  Out_channel.with_open_text (Filename.concat dir name) (fun oc ->
      Out_channel.output_string oc s)

let count outcome results =
  List.length
    (List.filter (fun r -> r.Harness.Regress.r_outcome = outcome) results)

let test_regress_run () =
  with_temp_dir (fun base ->
      with_temp_dir (fun cand ->
          let obs = {|{"overhead_pct": 2.0, "dropped": 0}|} in
          write_json base "BENCH_obs.json" obs;
          write_json cand "BENCH_obs.json" obs;
          let results =
            Harness.Regress.run ~baseline_dir:base ~candidate_dir:cand ()
          in
          Alcotest.(check bool) "identical artifacts pass" false
            (Harness.Regress.failed results);
          Alcotest.(check bool) "present artifact yields passes" true
            (count Harness.Regress.Pass results >= 2);
          Alcotest.(check bool) "missing artifacts skip, not fail" true
            (count Harness.Regress.Skip results > 0);
          (* degraded candidate: budget blown and invariant broken *)
          write_json cand "BENCH_obs.json"
            {|{"overhead_pct": 9.0, "dropped": 3}|};
          let results =
            Harness.Regress.run ~baseline_dir:base ~candidate_dir:cand ()
          in
          Alcotest.(check bool) "degraded candidate fails" true
            (Harness.Regress.failed results);
          Alcotest.(check bool) "both checks fail" true
            (count Harness.Regress.Fail results >= 2);
          (* the report renders every row *)
          let buf = Buffer.create 1024 in
          let fmt = Format.formatter_of_buffer buf in
          Harness.Regress.pp_results fmt results;
          Format.pp_print_flush fmt ();
          Alcotest.(check bool) "report renders" true (Buffer.length buf > 100)))

(* the profiler must keep seeing (nearly) every charged cycle *)
let test_regress_profile_gates () =
  with_temp_dir (fun base ->
      with_temp_dir (fun cand ->
          let profile ~dropped ~coverage =
            Printf.sprintf
              {|{"profiler_off_overhead_pct": 0.5, "deterministic": true, "dropped": %d, "sample_coverage": %f}|}
              dropped coverage
          in
          let failed () =
            Harness.Regress.failed
              (Harness.Regress.run ~baseline_dir:base ~candidate_dir:cand ())
          in
          write_json base "BENCH_profile.json" (profile ~dropped:0 ~coverage:0.98);
          write_json cand "BENCH_profile.json" (profile ~dropped:0 ~coverage:0.97);
          Alcotest.(check bool) "coverage within tolerance passes" false
            (failed ());
          write_json cand "BENCH_profile.json" (profile ~dropped:0 ~coverage:0.21);
          Alcotest.(check bool) "lost coverage fails" true (failed ());
          write_json cand "BENCH_profile.json" (profile ~dropped:7 ~coverage:0.98);
          Alcotest.(check bool) "dropped samples fail" true (failed ())))

(* fusion is gated on its own factor: a faster unfused loop lowers
   fusion's share of the win over the tree walker, not the factor *)
let test_regress_fusion_factor () =
  with_temp_dir (fun base ->
      with_temp_dir (fun cand ->
          let flat ~flat ~super =
            Printf.sprintf
              {|{"flat_speedup_geomean": %f, "flat_super_speedup_geomean": %f}|}
              flat super
          in
          let failed () =
            Harness.Regress.failed
              (Harness.Regress.run ~baseline_dir:base ~candidate_dir:cand ())
          in
          write_json base "BENCH_flat.json" (flat ~flat:1.06 ~super:1.52);
          write_json cand "BENCH_flat.json" (flat ~flat:1.41 ~super:1.95);
          Alcotest.(check bool) "faster base loop, same fusion passes" false
            (failed ());
          write_json cand "BENCH_flat.json" (flat ~flat:1.41 ~super:1.62);
          Alcotest.(check bool) "fusion losing its gain fails" true (failed ())))

let test_regress_mode_mismatch () =
  with_temp_dir (fun base ->
      with_temp_dir (fun cand ->
          let serve mode pps =
            Printf.sprintf
              {|{"mode": "%s", "honest_lost": 0, "drain_clean": true, "predictions_per_sec": %f}|}
              mode pps
          in
          (* same mode: the throughput ratio gate is live *)
          write_json base "BENCH_serve.json" (serve "in_process" 1000.0);
          write_json cand "BENCH_serve.json" (serve "in_process" 100.0);
          let results =
            Harness.Regress.run ~baseline_dir:base ~candidate_dir:cand ()
          in
          Alcotest.(check bool) "throughput collapse fails" true
            (Harness.Regress.failed results);
          (* mode mismatch: ratio checks downgrade to skips, invariants
             still run *)
          write_json cand "BENCH_serve.json" (serve "socket" 100.0);
          let results =
            Harness.Regress.run ~baseline_dir:base ~candidate_dir:cand ()
          in
          Alcotest.(check bool) "mode mismatch skips the ratio gate" false
            (Harness.Regress.failed results)))

let suite =
  suite
  @ [
      Alcotest.test_case "regress threshold gates" `Quick
        test_regress_thresholds;
      Alcotest.test_case "regress run over artifact dirs" `Quick
        test_regress_run;
      Alcotest.test_case "regress serving-mode mismatch skips ratios" `Quick
        test_regress_mode_mismatch;
      Alcotest.test_case "regress profiler coverage and drop gates" `Quick
        test_regress_profile_gates;
      Alcotest.test_case "regress gates fusion's own factor" `Quick
        test_regress_fusion_factor;
    ]

(* ---- collection known answers -------------------------------------

   Both collectors' records, pinned as one md5 over [Archive.to_string]
   of a sweep collection of the five training benchmarks and a fork
   collection of mtrt on two domains.  Recorded while the compiler still
   handed every compilation its feature vector; the collectors now read
   the engine's memo instead, and must record the same archives. *)

let test_collection_known_answers () =
  let cfg = { Harness.Expconfig.quick with Harness.Expconfig.bench_scale = 0.1 } in
  let buf = Buffer.create 65_536 in
  let add (o : Harness.Collection.outcome) =
    Buffer.add_string buf
      (Tessera_collect.Archive.to_string o.Harness.Collection.merged)
  in
  List.iter
    (fun b -> add (Harness.Collection.collect_bench ~cfg b))
    Suites.training_set;
  add
    (Harness.Collection.collect_bench ~cfg ~fork:true ~fork_jobs:2
       (Option.get (Suites.find "mtrt")));
  Alcotest.(check string) "collection md5" "b5d67095b43c3915e2a8fbeeb5986611"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  suite
  @ [
      Alcotest.test_case "collection known answers" `Quick
        test_collection_known_answers;
    ]
