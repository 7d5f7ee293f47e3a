(* Full experiment pipeline: collection -> LOO training -> evaluation ->
   Table 4 and Figures 6-13.  The same code path as bench/main.exe, with
   CLI control over scale. *)

open Cmdliner
module Harness = Tessera_harness
module Suites = Tessera_workloads.Suites

let run quick trials spec_count dacapo_count archives =
  let base = if quick then Harness.Expconfig.quick else Harness.Expconfig.default in
  let cfg = { base with Harness.Expconfig.trials = max 1 trials } in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let spec = take spec_count Suites.specjvm98 in
  let dacapo = take dacapo_count Suites.dacapo in
  let fmt = Format.std_formatter in
  let t0 = Unix.gettimeofday () in
  let outcomes =
    match archives with
    | Some dir when Harness.Persist.is_campaign_dir dir ->
        Format.fprintf fmt "loading archives from %s@." dir;
        Harness.Persist.load ~dir
    | _ ->
        let o = Harness.Collection.collect_training_set ~cfg () in
        Option.iter (fun dir -> Harness.Persist.save ~dir o) archives;
        o
  in
  Format.fprintf fmt "collection: %.1fs@." (Unix.gettimeofday () -. t0);
  Harness.Report.collection_summary fmt outcomes;
  let loo = Harness.Training.train_loo outcomes in
  Harness.Report.training_summary fmt loo;
  Harness.Report.table4 fmt loo;
  let t1 = Unix.gettimeofday () in
  let m = Harness.Evaluation.full_matrix ~cfg ~loo ~spec ~dacapo () in
  Format.fprintf fmt "evaluation: %.1fs@." (Unix.gettimeofday () -. t1);
  Harness.Report.figures_6_to_13 fmt m;
  0

let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Down-scaled smoke run.")

let trials =
  Arg.(value & opt int 1 & info [ "trials" ] ~docv:"N"
         ~doc:"Independent simulation runs per measurement.")

let spec_count =
  Arg.(value & opt int 8 & info [ "spec" ] ~docv:"N"
         ~doc:"Number of SPECjvm98 benchmarks to evaluate.")

let dacapo_count =
  Arg.(value & opt int 12 & info [ "dacapo" ] ~docv:"N"
         ~doc:"Number of DaCapo benchmarks to evaluate.")

let archives =
  Arg.(value & opt (some string) None & info [ "archives" ] ~docv:"DIR"
         ~doc:"Campaign directory: load collection archives from it when                present, otherwise collect and save them there.")

let paper_term =
  Term.(const run $ quick $ trials $ spec_count $ dacapo_count $ archives)

let paper_cmd =
  Cmd.v
    (Cmd.info "paper" ~doc:"Reproduce Table 4 and Figures 6-13 end to end")
    paper_term

(* [timeline BENCH]: run one benchmark under tracing and render the
   per-method compilation timeline from the captured events.  With
   --serve the model predictions are routed through the real wire
   protocol (resilient client -> in-memory pipe -> concurrent serving
   engine), so every prediction renders as a traced request with its
   queue_wait/batch_wait/predict/reply server-side breakdown. *)
let timeline target iterations model_dir serve trace_out =
  let module Engine = Tessera_jit.Engine in
  let module Trace = Tessera_obs.Trace in
  let module Export = Tessera_obs.Export in
  match Suites.find target with
  | None ->
      Printf.eprintf "unknown benchmark %S\n" target;
      1
  | Some b ->
      Trace.enable ();
      let modelset =
        Option.map (fun dir -> Harness.Modelset.load ~name:"cli" ~dir)
          model_dir
      in
      let cleanup = ref (fun () -> ()) in
      let callbacks =
        if not serve then
          match modelset with
          | None -> Engine.no_callbacks
          | Some ms ->
              {
                Engine.no_callbacks with
                Engine.choose_modifier =
                  Some (Harness.Modelset.choose_modifier ms);
              }
        else begin
          let module Serve = Tessera_protocol.Serve in
          let module Client = Tessera_protocol.Client in
          let module Channel = Tessera_protocol.Channel in
          let make_predictor _ =
            match modelset with
            | Some ms -> Harness.Modelset.server_batch_predictor ms
            | None ->
                fun ~level:_ rows ->
                  Array.map
                    (fun _ -> Tessera_modifiers.Modifier.null)
                    rows
          in
          let srv = Serve.create ~make_predictor () in
          let server_end, client_end = Tessera_protocol.Channel.pipe_pair () in
          (match Serve.accept srv server_end with
          | Some _ -> ()
          | None -> failwith "timeline --serve: accept refused");
          let client =
            Client.connect ~model_name:"timeline"
              ~lockstep:(fun () ->
                for _ = 1 to 4 do
                  ignore (Serve.tick srv)
                done)
              client_end
          in
          cleanup := (fun () -> ignore (Serve.finish_drain srv));
          let choose engine ~meth_id ~level =
            let features =
              Array.map float_of_int
                (Engine.features engine meth_id :> int array)
            in
            Some (Client.predict client ~level ~features)
          in
          { Engine.no_callbacks with Engine.choose_modifier = Some choose }
        end
      in
      let program = Tessera_workloads.Generate.program b.Suites.profile in
      let engine = Engine.create ~callbacks program in
      for it = 0 to iterations - 1 do
        for k = 0 to b.Suites.iteration_invocations - 1 do
          ignore
            (Engine.invoke_entry engine
               [| Tessera_vm.Values.Int_v (Int64.of_int ((it * 31) + k)) |])
        done
      done;
      !cleanup ();
      let events = Trace.events () in
      Export.timeline Format.std_formatter events;
      if
        List.exists
          (fun (e : Trace.event) -> e.Trace.cat = "serve" || e.Trace.cat = "protocol")
          events
      then Export.requests Format.std_formatter events;
      Option.iter
        (fun path ->
          Tessera_util.Fileio.atomic_write ~path (Export.chrome_json events);
          Format.printf "trace: %s (%d events)@." path (List.length events))
        trace_out;
      0

let timeline_target =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH"
         ~doc:"Benchmark name (e.g. compress).")

let timeline_iterations =
  Arg.(value & opt int 1 & info [ "n"; "iterations" ] ~docv:"N"
         ~doc:"Benchmark iterations to trace.")

let timeline_model_dir =
  Arg.(value & opt (some dir) None & info [ "model" ] ~docv:"DIR"
         ~doc:"Model-set directory steering the JIT; omit for the \
               unmodified compiler.")

let timeline_serve =
  Arg.(value & flag & info [ "serve" ]
         ~doc:"Route predictions through the wire protocol (resilient \
               client, in-memory pipe, concurrent serving engine) so the \
               timeline includes per-request spans with their server-side \
               queue/batch/predict/reply breakdown.")

let timeline_trace_out =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Also write the captured events as Chrome trace_event JSON \
               (loadable in Perfetto or chrome://tracing).")

let timeline_cmd =
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Trace one benchmark run and print its per-method compilation \
             timeline (and per-request critical paths with --serve)")
    Term.(const timeline $ timeline_target $ timeline_iterations
          $ timeline_model_dir $ timeline_serve $ timeline_trace_out)

(* [profile BENCH]: run one benchmark under the deterministic sampling
   profiler and print the hot-method / hot-opcode report. *)
let profile target iterations period json_out =
  let module Engine = Tessera_jit.Engine in
  let module Profile = Tessera_obs.Profile in
  match Suites.find target with
  | None ->
      Printf.eprintf "unknown benchmark %S\n" target;
      1
  | Some b ->
      Profile.enable ~period ();
      let program = Tessera_workloads.Generate.program b.Suites.profile in
      let engine = Engine.create program in
      for it = 0 to iterations - 1 do
        for k = 0 to b.Suites.iteration_invocations - 1 do
          ignore
            (Engine.invoke_entry engine
               [| Tessera_vm.Values.Int_v (Int64.of_int ((it * 31) + k)) |])
        done
      done;
      Profile.disable ();
      Format.printf
        "%s: %d samples at period %d (%d sites, %d dropped)@.@." target
        (Profile.total_samples ()) (Profile.period ())
        (Profile.site_count ())
        (Profile.dropped_samples ());
      Profile.report Format.std_formatter;
      Option.iter
        (fun path ->
          Tessera_util.Fileio.atomic_write ~path (Profile.to_json ());
          Format.printf "profile: %s@." path)
        json_out;
      0

let profile_target =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH"
         ~doc:"Benchmark name (e.g. compress).")

let profile_iterations =
  Arg.(value & opt int 1 & info [ "n"; "iterations" ] ~docv:"N"
         ~doc:"Benchmark iterations to profile.")

let profile_period =
  Arg.(value & opt int 4096 & info [ "period" ] ~docv:"CYCLES"
         ~doc:"Virtual-cycle sampling stride: one sample per CYCLES \
               charged cycles.")

let profile_json =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Also write the profile (hot methods, hot opcodes, flame \
               lines) as JSON to FILE.")

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Sample one benchmark run on the virtual clock and print the \
             hot-method and hot-opcode profile")
    Term.(const profile $ profile_target $ profile_iterations
          $ profile_period $ profile_json)

(* [regress]: compare candidate BENCH_*.json artifacts against the
   committed baselines with noise-aware thresholds; exit 1 on any
   regression. *)
let regress baseline_dir candidate_dir =
  let results =
    Harness.Regress.run ~baseline_dir ~candidate_dir ()
  in
  Harness.Regress.pp_results Format.std_formatter results;
  if Harness.Regress.failed results then 1 else 0

let regress_baseline =
  Arg.(value & opt dir "." & info [ "baseline" ] ~docv:"DIR"
         ~doc:"Directory holding the baseline BENCH_*.json artifacts \
               (default: the current directory, i.e. the committed \
               baselines).")

let regress_candidate =
  Arg.(value & opt dir "." & info [ "candidate" ] ~docv:"DIR"
         ~doc:"Directory holding the candidate BENCH_*.json artifacts of \
               the run under test.")

let regress_cmd =
  Cmd.v
    (Cmd.info "regress"
       ~doc:"Compare benchmark artifacts against committed baselines with \
             noise-aware thresholds; exit 1 on any perf regression")
    Term.(const regress $ regress_baseline $ regress_candidate)

(* [lint]: translation-validation sweep.  Every optimizer pass is
   audited over the workload corpus — each method at every opt level's
   full plan, plus every catalogue pass in isolation — and any
   diagnostic is treated as a miscompile (exit 1). *)
let lint quick spec_count dacapo_count =
  let module Program = Tessera_il.Program in
  let module Catalog = Tessera_opt.Catalog in
  let module Plan = Tessera_opt.Plan in
  let module Manager = Tessera_opt.Manager in
  let module Lint = Tessera_analysis.Lint in
  let module Profile = Tessera_workloads.Profile in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let spec_count, dacapo_count =
    if quick then (min spec_count 2, min dacapo_count 2)
    else (spec_count, dacapo_count)
  in
  let benches =
    take spec_count Suites.specjvm98 @ take dacapo_count Suites.dacapo
  in
  let applications = Array.make Catalog.count 0 in
  let diag_count = Array.make Catalog.count 0 in
  let all_diags = ref [] in
  let methods_checked = ref 0 in
  let fmt = Format.std_formatter in
  List.iter
    (fun (b : Suites.bench) ->
      let name = b.Suites.profile.Profile.name in
      let program = Tessera_workloads.Generate.program b.Suites.profile in
      let on_diagnostic (d : Lint.diagnostic) =
        diag_count.(d.Lint.pass_index) <- diag_count.(d.Lint.pass_index) + 1;
        all_diags := (name, d) :: !all_diags
      in
      let audit_base = Lint.auditor ~on_diagnostic program in
      let audit ~pass_index ~pass_name ~before ~after =
        applications.(pass_index) <- applications.(pass_index) + 1;
        audit_base ~pass_index ~pass_name ~before ~after
      in
      Array.iter
        (fun m ->
          incr methods_checked;
          Array.iter
            (fun level ->
              ignore (Manager.optimize ~audit ~program ~plan:(Plan.plan level) m))
            Plan.levels;
          Array.iter
            (fun (e : Catalog.entry) ->
              ignore
                (Manager.optimize ~audit ~program ~plan:[ e.Catalog.index ] m))
            Catalog.all)
        program.Program.methods;
      Format.fprintf fmt "%-12s %3d methods audited@." name
        (Array.length program.Program.methods))
    benches;
  Format.fprintf fmt "@.%-4s %-28s %12s %12s@." "idx" "transformation"
    "applications" "diagnostics";
  Array.iter
    (fun (e : Catalog.entry) ->
      Format.fprintf fmt "%-4d %-28s %12d %12d@." e.Catalog.index e.Catalog.name
        applications.(e.Catalog.index)
        diag_count.(e.Catalog.index))
    Catalog.all;
  let total_apps = Array.fold_left ( + ) 0 applications in
  let total_diags = List.length !all_diags in
  Format.fprintf fmt
    "@.%d benchmarks, %d methods, %d audited pass applications, %d diagnostics@."
    (List.length benches) !methods_checked total_apps total_diags;
  List.iter
    (fun (bench, d) ->
      Format.fprintf fmt "DIAGNOSTIC %s: %a@." bench Lint.pp_diagnostic d)
    (List.rev !all_diags);
  if total_diags = 0 then 0 else 1

let lint_quick =
  Arg.(value & flag & info [ "quick" ]
         ~doc:"Clamp the corpus to 2 SPECjvm98 + 2 DaCapo benchmarks.")

let lint_spec =
  Arg.(value & opt int 8 & info [ "spec" ] ~docv:"N"
         ~doc:"Number of SPECjvm98 benchmarks to audit.")

let lint_dacapo =
  Arg.(value & opt int 12 & info [ "dacapo" ] ~docv:"N"
         ~doc:"Number of DaCapo benchmarks to audit.")

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Audit every optimizer pass over the workload corpus with the \
             translation-validation lint; exit 1 on any diagnostic")
    Term.(const lint $ lint_quick $ lint_spec $ lint_dacapo)

let cmd =
  Cmd.group ~default:paper_term
    (Cmd.info "tessera_report"
       ~doc:"Reproduce the paper's tables and figures, or inspect a traced \
             run")
    [ paper_cmd; timeline_cmd; profile_cmd; regress_cmd; lint_cmd ]

let () = exit (Cmd.eval' cmd)
