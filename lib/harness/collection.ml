module Archive = Tessera_collect.Archive
module Collector = Tessera_collect.Collector
module Queue_ctrl = Tessera_modifiers.Queue_ctrl
module Suites = Tessera_workloads.Suites
module Generate = Tessera_workloads.Generate
module Values = Tessera_vm.Values

type outcome = {
  tag : string;
  bench : Suites.bench;
  randomized : Archive.t;
  progressive : Archive.t;
  merged : Archive.t;
  stats : Collector.stats list;
}

let entry_args k = [| Values.Int_v (Int64.of_int k) |]

let run_strategy ~cfg ~target ~fork ~fork_jobs ~program ~benchmark ~seed
    strategy =
  let search =
    if fork then
      Collector.Fork
        {
          (Collector.fork_defaults strategy) with
          Collector.fanout = cfg.Expconfig.fork_fanout;
          jobs = fork_jobs;
        }
    else Collector.Queue strategy
  in
  Collector.run
    ~config:
      {
        Collector.default_config with
        Collector.search;
        uses_per_modifier = cfg.Expconfig.uses_per_modifier;
        seed;
        max_entry_invocations = cfg.Expconfig.collect_invocations;
        target;
      }
    ~program ~benchmark ~entry_args ()

let collect_bench ?(cfg = Expconfig.default)
    ?(target = Tessera_vm.Target.zircon) ?(fork = false) ?(fork_jobs = 1)
    (bench : Suites.bench) =
  let bench_scaled = Suites.scale_bench bench cfg.Expconfig.bench_scale in
  let program = Generate.program bench_scaled.Suites.profile in
  let name = bench.Suites.profile.Tessera_workloads.Profile.name in
  let rand, rstats =
    run_strategy ~cfg ~target ~fork ~fork_jobs ~program
      ~benchmark:(name ^ ":randomized")
      ~seed:(Int64.add cfg.Expconfig.seed 1L)
      (Queue_ctrl.Randomized
         {
           count = cfg.Expconfig.randomized_count;
           density = cfg.Expconfig.randomized_density;
         })
  in
  let prog, pstats =
    run_strategy ~cfg ~target ~fork ~fork_jobs ~program
      ~benchmark:(name ^ ":progressive")
      ~seed:(Int64.add cfg.Expconfig.seed 2L)
      (Queue_ctrl.Progressive { l = cfg.Expconfig.progressive_l })
  in
  {
    tag = bench.Suites.tag;
    bench;
    randomized = rand;
    progressive = prog;
    merged = Archive.merge [ rand; prog ];
    stats = [ rstats; pstats ];
  }

let collect_training_set ?(cfg = Expconfig.default)
    ?(target = Tessera_vm.Target.zircon) ?(fork = false) ?(jobs = 1) () =
  (* each benchmark's two searches are seeded from cfg.seed only, so the
     outcomes are independent of which domain runs them; run_list keeps
     the training-set order.  In fork mode the pool parallelism moves
     inside each collection: one pool runs every branch of a search,
     hundreds of equal jobs against five benchmarks here, and nested
     pools would run sequentially anyway. *)
  if fork then
    List.map (collect_bench ~cfg ~target ~fork ~fork_jobs:jobs)
      Suites.training_set
  else
    Tessera_util.Pool.run_list ~jobs (collect_bench ~cfg ~target)
      Suites.training_set
