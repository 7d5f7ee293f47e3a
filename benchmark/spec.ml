(* The metrics every run reports, by name.  BENCHMARK.json declares the
   same names with their units, directions and bounds; the self-test
   checks that the two agree. *)

type better = Lower | Higher

type metric = { name : string; unit : string; better : better }

let m name unit better = { name; unit; better }

(* Reported by every workload with tracing off.  Times are at the
   reference host speed (see Hostspeed). *)
let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "throughput_per_s" "1/s" Higher;
    m "latency_ms_p50" "ms" Lower;
    m "latency_ms_p75" "ms" Lower;
    m "peak_rss_mb" "MB" Lower;
  ]

(* Reported by every workload with tracing on.  Times are raw host
   seconds summed over the traced run; a layer a workload does not use
   reads 0. *)
let per_layer =
  [
    m "run.ops" "count" Higher;
    m "workloads.generate_s" "s" Lower;
    m "collect.run_s" "s" Lower;
    m "collect.ms_per_record" "ms" Lower;
    m "collect.records" "count" Higher;
    m "collect.trunk_invocations" "count" Lower;
    m "collect.forks" "count" Higher;
    m "collect.branches" "count" Higher;
    m "collect.branch_invocations" "count" Lower;
    m "collect.skipped_decisions" "count" Lower;
    m "collect.records_per_invocation" "ratio" Higher;
    m "archive.save_s" "s" Lower;
    m "archive.load_s" "s" Lower;
    m "archive.bytes" "byte" Lower;
    m "harness.train_s" "s" Lower;
    m "opt.passes_s" "s" Lower;
    m "opt.pass_applications" "count" Lower;
    m "opt.optimize_calls" "count" Lower;
    m "jit.engine_create_s" "s" Lower;
    m "jit.compile_s" "s" Lower;
    m "jit.compile_other_s" "s" Lower;
    m "jit.invoke_s" "s" Lower;
    m "jit.execute_s" "s" Lower;
    m "jit.compilations" "count" Lower;
    m "jit.aot_loads" "count" Higher;
    m "jit.app_vcycles" "count" Lower;
    m "jit.compile_vcycles" "count" Lower;
    m "jit.predictions" "count" Lower;
    m "features.extract_s" "s" Lower;
    m "svm.predict_s" "s" Lower;
    m "flat.flattens" "count" Lower;
    m "flat.persist_loads" "count" Higher;
    m "cache.open_s" "s" Lower;
    m "cache.close_s" "s" Lower;
    m "cache.hits" "count" Higher;
    m "cache.misses" "count" Lower;
    m "cache.stale" "count" Lower;
    m "cache.corrupt" "count" Lower;
    m "cache.bytes" "byte" Lower;
    m "protocol.client_send_s" "s" Lower;
    m "protocol.client_recv_s" "s" Lower;
    m "protocol.client_wait_s" "s" Lower;
    m "serve.server_cpu_s" "s" Lower;
    m "serve.predict_s" "s" Lower;
    m "serve.batches" "count" Lower;
    m "serve.rows_per_batch" "count" Higher;
    m "serve.server_latency_ms_p50" "ms" Lower;
    m "serve.server_latency_ms_p99" "ms" Lower;
    m "serve.shed" "count" Lower;
    m "serve.strikes" "count" Lower;
    m "eval.startup_speedup" "x" Higher;
    m "eval.throughput_speedup" "x" Higher;
    m "eval.compile_speedup" "x" Higher;
    m "pool.cpu_s" "s" Lower;
    m "pool.parallel_efficiency" "ratio" Higher;
    m "gc.alloc_mwords" "Mword" Lower;
    m "gc.major_collections" "count" Lower;
    m "bench.check_s" "s" Lower;
    m "host.kernel_ms" "ms" Lower;
    m "trace.overhead_pct" "%" Lower;
    m "ledger.unaccounted_s" "s" Lower;
  ]

let workloads =
  [ "collect-train"; "collect-fork"; "evaluate"; "startup-cold"; "startup-warm"; "serve" ]

(* the domains (collect-fork) or connections (serve) a workload keeps
   busy; at most the two cores of the machine the bounds were set on *)
let jobs = function "collect-fork" | "serve" -> 2 | _ -> 1

let better_name = function Lower -> "lower" | Higher -> "higher"

let units = List.map (fun m -> (m.name, m.unit)) (end_to_end @ per_layer)

(* the last line a run prints *)
let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.int attempted);
         ("failed", Json.int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, v) ->
                  ( name,
                    Json.Obj
                      [ ("value", Json.Num v); ("unit", Json.Jstr (List.assoc name units)) ] ))
                metrics) );
       ])
