(* collect-train and collect-fork: the collection layer used both ways.

   collect-train is [tessera_collect --quick && tessera_train] in
   miniature: one operation sweep-collects the five training benchmarks,
   round-trips every archive through a file and trains a model set on
   what it loaded.  collect-fork measures the same collector branching
   from engine snapshots on a pool of two domains instead of sweeping by
   recompilation.

   Each operation seeds its searches from the run's seed and its own
   index, so a run averages over more than a dozen searches: with one
   search seed per run, collect-train's throughput moved by 10% from seed
   to seed. *)

open Common
module Archive = Tessera_collect.Archive
module Collector = Tessera_collect.Collector

(* A tenth of the workload volume keeps one operation under a second,
   so a run holds more than a dozen. *)
let train_scale = 0.1
let fork_scale = 0.1
let fork_bench = "mtrt"
let fork_jobs = Spec.jobs "collect-fork"

type totals = {
  mutable records : int;
  mutable trunk : int;
  mutable forks : int;
  mutable branches : int;
  mutable branch_invocations : int;
  mutable skipped : int;
  mutable archive_bytes : int;
}

let add_stats tot (o : H.Collection.outcome) =
  List.iter
    (fun (s : Collector.stats) ->
      tot.trunk <- tot.trunk + s.Collector.entry_invocations;
      tot.forks <- tot.forks + s.Collector.forks;
      tot.branches <- tot.branches + s.Collector.branches;
      tot.branch_invocations <-
        tot.branch_invocations + s.Collector.branch_invocations;
      tot.skipped <- tot.skipped + s.Collector.skipped_decisions)
    o.H.Collection.stats

let op_seed seed i = Hash64.int (Hash64.int64 (Hash64.string Hash64.init "op") seed) i

let archives_digest archives =
  List.fold_left
    (fun h a -> Hash64.string h (Archive.to_string a))
    Hash64.init archives

let run ~workload ~seed ~seconds =
  let fork = workload = "collect-fork" in
  let scale = if fork then fork_scale else train_scale in
  let benches =
    if fork then [ Option.get (Suites.find fork_bench) ] else Suites.training_set
  in
  (* set-up: the programs the collections will run *)
  let digests, setup_s =
    setup (fun () ->
        List.map
          (fun b -> program_digest (generate (Suites.scale_bench b scale)))
          benches)
  in
  let tot =
    { records = 0; trunk = 0; forks = 0; branches = 0; branch_invocations = 0;
      skipped = 0; archive_bytes = 0 }
  in
  let collect cfg b =
    Ledger.span "collect.run" (fun () ->
        if fork then H.Collection.collect_bench ~cfg ~fork:true ~fork_jobs b
        else H.Collection.collect_bench ~cfg b)
  in
  (* archive write-back and reload, as tessera_collect and tessera_train
     do; returns the loaded archive *)
  let round_trip (o : H.Collection.outcome) =
    let path = work_path (o.H.Collection.tag ^ ".tsra") in
    Ledger.span "archive.save" (fun () ->
        Archive.save o.H.Collection.merged path);
    tot.archive_bytes <- tot.archive_bytes + (Unix.stat path).Unix.st_size;
    Ledger.span "archive.load" (fun () -> Archive.load path)
  in
  let op i =
    let cfg = config ~seed:(op_seed seed i) ~scale in
    let (outcomes, loaded), span =
      timed (fun () ->
          let outcomes = List.map (collect cfg) benches in
          if fork then (outcomes, [])
          else begin
            let loaded = List.map round_trip outcomes in
            let records =
              List.concat_map (fun (a : Archive.t) -> a.Archive.records) loaded
            in
            ignore
              (Ledger.span "harness.train" (fun () ->
                   H.Modelset.train ~name:"collect-train" records));
            (outcomes, loaded)
          end)
    in
    let merged = List.map (fun o -> o.H.Collection.merged) outcomes in
    List.iter
      (fun a -> tot.records <- tot.records + List.length a.Archive.records)
      merged;
    List.iter (add_stats tot) outcomes;
    verify (fun () ->
        if fork then
          List.iter
            (fun a ->
              check
                (Archive.equal a (Archive.of_string (Archive.to_string a)))
                "archive changed in encode/decode")
            merged
        else
          List.iter2
            (fun a b -> check (Archive.equal a b) "archive changed in save/load")
            merged loaded;
        if i = 0 then
          check_digest ~workload ~seed
            (List.fold_left Hash64.int64 (archives_digest merged) digests));
    span
  in
  let latencies_ms = timed_loop ~seconds op in
  let work_s = Array.fold_left ( +. ) 0.0 latencies_ms /. 1000.0 in
  let records = float_of_int tot.records in
  let invocations = float_of_int (tot.trunk + tot.branch_invocations) in
  {
    setup_s;
    latencies_ms;
    work = records;
    work_s;
    rss_mb = peak_rss_mb ();
    layer =
      [
        ("collect.ms_per_record", Summary.ratio (Ledger.incl "collect.run" *. 1000.0) records);
        ("collect.records", records);
        ("collect.trunk_invocations", float_of_int tot.trunk);
        ("collect.forks", float_of_int tot.forks);
        ("collect.branches", float_of_int tot.branches);
        ("collect.branch_invocations", float_of_int tot.branch_invocations);
        ("collect.skipped_decisions", float_of_int tot.skipped);
        ("collect.records_per_invocation", Summary.ratio records invocations);
        ("archive.bytes", float_of_int tot.archive_bytes);
      ];
  }
