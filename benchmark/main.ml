(* The repository benchmark: six seeded workloads from collection to
   serving, timed end to end and, in a separate traced run, per layer.

     benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
     benchmark/run.sh all [--seed N] [--seconds S] [--trace 0|1]
     benchmark/run.sh baseline [--seconds S]

   One workload run prints its metrics as a table and, as its last line,
   one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones, and the traced run also writes a Chrome trace to
   benchmark/out/.  "all" runs every workload, each in a process of its
   own; "baseline" records medians and quartiles in
   benchmark/baseline.json.  See benchmark/README.md. *)

open Tessera_benchmark
module Export = Tessera_obs.Export

let started = Unix.gettimeofday ()

let flat_flattens () =
  Tessera_obs.Metrics.(
    counter_value (counter default "flat_flatten_total"))

let run_workload ~workload ~seed ~seconds =
  match workload with
  | "collect-train" | "collect-fork" -> Wl_collect.run ~workload ~seed ~seconds
  | "evaluate" -> Wl_evaluate.run ~seed ~seconds
  | "startup-cold" | "startup-warm" -> Wl_startup.run ~workload ~seed ~seconds
  | "serve" -> Wl_serve.run ~seed ~seconds
  | w -> invalid_arg w

(* times at the reference host speed (see Hostspeed) *)
let end_to_end (o : Common.outcome) =
  let t = Hostspeed.scale in
  let p q = t (Summary.percentile o.Common.latencies_ms q) in
  [
    ("setup_s", t o.Common.setup_s);
    ("throughput_per_s", Summary.ratio o.Common.work (t o.Common.work_s));
    ("latency_ms_p50", p 50.0);
    ("latency_ms_p75", p 75.0);
    ("peak_rss_mb", o.Common.rss_mb);
  ]

let per_layer (o : Common.outcome) ~workload ~wall ~flattens ~gc0 =
  let inc = Ledger.incl and self = Ledger.self in
  let spans =
    [
      ("run.ops", float_of_int (Array.length o.Common.latencies_ms));
      ("workloads.generate_s", inc "workloads.generate");
      ("collect.run_s", inc "collect.run");
      ("archive.save_s", inc "archive.save");
      ("archive.load_s", inc "archive.load");
      ("harness.train_s", inc "harness.train");
      ("opt.passes_s", Ledger.passes_s ());
      ("opt.pass_applications", float_of_int (Ledger.pass_applications ()));
      ("opt.optimize_calls", float_of_int (Atomic.get Ledger.optimize_calls));
      ("jit.engine_create_s", inc "jit.engine_create");
      ("jit.compile_s", inc "jit.compile");
      ("jit.compile_other_s", self "jit.compile");
      ("jit.invoke_s", inc "jit.invoke");
      ("jit.execute_s", self "jit.invoke");
      ("features.extract_s", inc "features.extract");
      ("svm.predict_s", inc "svm.predict");
      ("flat.flattens", float_of_int (flat_flattens () - flattens));
      ("cache.open_s", inc "cache.open");
      ("cache.close_s", inc "cache.close");
      ("protocol.client_send_s", inc "protocol.client_send");
      ("protocol.client_recv_s", inc "protocol.client_recv");
      ("protocol.client_wait_s", inc "protocol.client_wait");
      ("pool.cpu_s", !Common.measured_cpu);
      ( "pool.parallel_efficiency",
        Summary.ratio !Common.measured_cpu
          (!Common.measured_wall *. float_of_int (Spec.jobs workload)) );
      ("bench.check_s", inc "bench.check");
      ("host.kernel_ms", Hostspeed.kernel_ms ());
      ("ledger.unaccounted_s", self "run");
    ]
  in
  let words0, majors0 = gc0 in
  let words1, majors1 = Common.gc_reading () in
  let readings =
    spans @ Drive.layer () @ o.Common.layer
    @ [
        ("gc.alloc_mwords", words1 -. words0);
        ("gc.major_collections", float_of_int (majors1 - majors0));
        ("trace.overhead_pct", 100.0 *. Summary.ratio (Ledger.overhead_s ()) wall);
      ]
  in
  List.map
    (fun (m : Spec.metric) ->
      (m.Spec.name, Option.value ~default:0.0 (List.assoc_opt m.Spec.name readings)))
    Spec.per_layer

(* Writes the trace, reads it back, and prints the ledger: every layer's
   self time, which with the unclaimed root sums to the traced wall. *)
let write_trace ~workload ~seed ~wall =
  let layers = Ledger.layers () in
  let path =
    Filename.concat Common.out_dir (Printf.sprintf "trace-%s-%Ld.json" workload seed)
  in
  let args =
    [
      ("wall_s", Json.Num wall);
      ( "self_s",
        Json.Obj (List.map (fun (n, t) -> (n, Json.Num t.Ledger.self)) layers) );
      ("passes", Json.Obj (Ledger.pass_breakdown ()));
      ( "gc_by_stage",
        Json.Obj
          (List.map
             (fun (n, (w, c)) ->
               (n, Json.Obj [ ("alloc_mwords", Json.Num w); ("major_collections", Json.int c) ]))
             !Common.stages) );
    ]
  in
  Common.mkdir_p Common.out_dir;
  Tessera_util.Fileio.atomic_write ~path (Ledger.chrome_json ~args);
  Common.check
    (Result.is_ok (Export.parse_json (In_channel.with_open_bin path In_channel.input_all)))
    "trace file does not parse";
  let accounted = List.fold_left (fun a (_, t) -> a +. t.Ledger.self) 0.0 layers in
  Printf.printf "ledger (self seconds):\n";
  List.iter (fun (n, t) -> Printf.printf "  %-24s %10.4f  (%d spans)\n" n t.Ledger.self t.Ledger.count) layers;
  Printf.printf "  %-24s %10.4f of %.4f s wall (%+.2f%%)\ntrace: %s\n" "sum" accounted wall
    (100.0 *. (accounted -. wall) /. wall) path

let run_one ~workload ~seed ~seconds ~trace =
  if trace then Ledger.start ();
  let flattens = flat_flattens () and gc0 = Common.gc_reading () in
  let o = run_workload ~workload ~seed ~seconds in
  Ledger.finish ();
  let wall = Unix.gettimeofday () -. started in
  let metrics =
    if trace then begin
      let m = per_layer o ~workload ~wall ~flattens ~gc0 in
      write_trace ~workload ~seed ~wall;
      m
    end
    else end_to_end o
  in
  Printf.printf "%s, seed %Ld, %d operations in %.1f s%s; host kernel %.4f ms (reference %.1f)\n"
    workload seed (Array.length o.Common.latencies_ms) seconds
    (if trace then ", traced" else "")
    (Hostspeed.kernel_ms ()) Hostspeed.reference_ms;
  List.iter
    (fun (n, v) -> Printf.printf "  %-32s %16.6f %s\n" n v (List.assoc n Spec.units))
    metrics;
  let attempted = !Common.attempted and failed = !Common.failed in
  print_endline
    (Spec.result_line ~correct:(failed = 0 && attempted > 0) ~attempted ~failed metrics)

(* -- all and baseline: one process per workload run ----------------- *)

let spawn args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  let last =
    String.split_on_char '\n' out |> List.filter (fun l -> String.trim l <> "") |> List.rev
  in
  match (status, last) with
  | Unix.WEXITED 0, line :: _ -> (
      match Export.parse_json line with
      | Ok j -> Some j
      | Error _ -> None)
  | _ -> None

let run_args ~workload ~seed ~seconds ~trace =
  [
    "--workload"; workload; "--seed"; Int64.to_string seed;
    "--seconds"; string_of_float seconds; "--trace"; (if trace then "1" else "0");
  ]

let metric_values j =
  match Export.member "metrics" j with
  | Some (Json.Obj ms) ->
      List.filter_map
        (fun (n, v) ->
          match Export.member "value" v with Some (Json.Num x) -> Some (n, x) | _ -> None)
        ms
  | _ -> []

let all ~seed ~seconds ~trace =
  let names = List.map (fun (m : Spec.metric) -> m.Spec.name) Spec.end_to_end in
  Printf.printf "%-14s %8s %15s" "workload" "correct" "failed/checks";
  if not trace then List.iter (Printf.printf " %16s") names;
  print_newline ();
  let results =
    List.map
      (fun workload ->
        match spawn (run_args ~workload ~seed ~seconds ~trace) with
        | None ->
            Printf.printf "%-14s %8s\n%!" workload "no result";
            false
        | Some j ->
            let correct = Export.member "correct" j = Some (Json.Bool true) in
            let num k = match Export.member k j with Some (Json.Num x) -> x | _ -> nan in
            Printf.printf "%-14s %8b %15s" workload correct
              (Printf.sprintf "%.0f/%.0f" (num "failed") (num "attempted"));
            let vs = metric_values j in
            if not trace then
              List.iter (fun n -> Printf.printf " %16.4f" (List.assoc n vs)) names;
            print_newline ();
            correct)
      Spec.workloads
  in
  if not (List.for_all Fun.id results) then exit 1

(* the commit measured, marked "-dirty" when the tree has changes *)
let git_commit () =
  match
    Unix.open_process_args_in "git" [| "git"; "describe"; "--always"; "--dirty"; "--abbrev=12" |]
  with
  | ic ->
      let c = String.trim (In_channel.input_all ic) in
      if Unix.close_process_in ic = Unix.WEXITED 0 && c <> "" then c else "unknown"
  | exception Unix.Unix_error _ -> "unknown"

(* runs per seed *)
let baseline_runs = 5

let baseline ~seconds =
  let stat xs =
    let xs = Array.of_list xs in
    let q = Summary.quartiles xs in
    Json.Obj
      [
        ("median", Json.Num (Summary.median xs));
        ("q1", Json.Num q.(0));
        ("q3", Json.Num q.(2));
        ("spread", Json.Num (Summary.spread xs));
      ]
  in
  let workload_entry workload =
    let per_seed seed =
      let results =
        List.init baseline_runs (fun _ ->
            match spawn (run_args ~workload ~seed ~seconds ~trace:false) with
            | Some j when Export.member "correct" j = Some (Json.Bool true) -> metric_values j
            | _ -> failwith (Printf.sprintf "baseline: %s seed %Ld failed" workload seed))
      in
      Printf.printf "%s seed %Ld: %d runs\n%!" workload seed baseline_runs;
      ( Int64.to_string seed,
        Json.Obj
          (List.map
             (fun (m : Spec.metric) ->
               (m.Spec.name, stat (List.map (List.assoc m.Spec.name) results)))
             Spec.end_to_end) )
    in
    (workload, Json.Obj (List.map per_seed [ 1L; 2L ]))
  in
  let doc =
    Json.Obj
      [
        ("host_cores", Json.int (Domain.recommended_domain_count ()));
        ( "jobs",
          Json.Obj
            (List.map (fun w -> (w, Json.int (Spec.jobs w))) Spec.workloads) );
        ("ocaml", Json.Jstr Sys.ocaml_version);
        ("commit", Json.Jstr (git_commit ()));
        ("seconds", Json.Num seconds);
        ("runs", Json.int baseline_runs);
        ("workloads", Json.Obj (List.map workload_entry Spec.workloads));
      ]
  in
  let path = Filename.concat "benchmark" "baseline.json" in
  Tessera_util.Fileio.atomic_write ~path (Json.to_string doc ^ "\n");
  Printf.printf "wrote %s\n" path

let () =
  let command = ref None and workload = ref None in
  let seed = ref 1L and seconds = ref 12.0 and trace = ref false in
  let specs =
    [
      ("--workload", Arg.String (fun w -> workload := Some w), "NAME run one workload");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "N input seed (default 1)");
      ("--seconds", Arg.Float (fun s -> seconds := s), "S length of the timed loop (default 12)");
      ( "--trace",
        Arg.Int (fun t -> trace := t <> 0),
        "0|1 report per-layer metrics from a traced run (default 0)" );
    ]
  in
  let usage =
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
     main.exe all [--seed N] [--seconds S] [--trace 0|1]\n\
     main.exe baseline [--seconds S]\n\
     workloads: " ^ String.concat ", " Spec.workloads
  in
  Arg.parse specs (fun c -> command := Some c) usage;
  match (!command, !workload) with
  | None, Some w when List.mem w Spec.workloads ->
      run_one ~workload:w ~seed:!seed ~seconds:!seconds ~trace:!trace
  | Some "all", None -> all ~seed:!seed ~seconds:!seconds ~trace:!trace
  | Some "baseline", None -> baseline ~seconds:!seconds
  | _ ->
      Arg.usage specs usage;
      exit 2
