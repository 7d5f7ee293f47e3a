(* startup-cold and startup-warm: one operation is one program start-up
   — open the code cache, create the engine, run one benchmark iteration,
   close the cache — over every suite benchmark in turn.

   Cold start-ups each open an empty cache, so they compile everything and
   pay for write-back and compaction.  Warm start-ups open one read-only
   cache that set-up filled for all the programs, so store open, entry
   decoding and flat-form loads replace compilation. *)

open Common
module Codecache = Tessera_cache.Codecache
module Engine = Tessera_jit.Engine

type cache_totals = {
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable corrupt : int;
  mutable bytes : int;
}

(* Half the workload volume: a start-up is compilation-heavy, and a run
   then starts every program several times. *)
let scale = 0.5

let tot = { hits = 0; misses = 0; stale = 0; corrupt = 0; bytes = 0 }

(* one start-up; returns the digest of its entry results and its
   application cycles *)
let start_up ~seed ~dir ~readonly (b : Suites.bench) program =
  let cache = Ledger.span "cache.open" (fun () -> Codecache.create ~dir ~readonly ()) in
  let engine =
    Drive.create ~clock_seed:(clock_seed (config ~seed ~scale) seed) ~code_cache:cache
      program
  in
  let h = ref Hash64.init in
  for k = 0 to b.Suites.iteration_invocations - 1 do
    h := result_digest !h (Drive.invoke engine (arg_base seed + k))
  done;
  Drive.account engine;
  Ledger.span "cache.close" (fun () -> Codecache.close cache);
  let c = Codecache.counters cache in
  tot.hits <- tot.hits + c.Tessera_cache.Store.hits;
  tot.misses <- tot.misses + c.Tessera_cache.Store.misses;
  tot.stale <- tot.stale + c.Tessera_cache.Store.stale_entries;
  tot.corrupt <- tot.corrupt + c.Tessera_cache.Store.corrupt_entries;
  tot.bytes <- max tot.bytes (Codecache.byte_size cache);
  (!h, Engine.app_cycles engine)

(* the same iteration with no cache at all: what every start-up must
   return *)
let reference ~seed (b : Suites.bench) program =
  let engine =
    Engine.create
      ~config:
        {
          Engine.default_config with
          Engine.clock_seed = clock_seed (config ~seed ~scale) seed;
        }
      program
  in
  let h = ref Hash64.init in
  for k = 0 to b.Suites.iteration_invocations - 1 do
    h :=
      result_digest !h
        (Engine.invoke_entry engine [| Values.Int_v (Int64.of_int (arg_base seed + k)) |])
  done;
  !h

let run ~workload ~seed ~seconds =
  let warm = workload = "startup-warm" in
  let fills = ref 0 in
  let programs, setup_s =
    setup (fun () ->
        let programs =
          Array.map
            (fun b ->
              let b = Suites.scale_bench b scale in
              (b, generate b))
            (Array.of_list Suites.all)
        in
        if warm then begin
          incr fills;
          let dir = work_path (Printf.sprintf "warm-%d" !fills) in
          Array.iter (fun (b, p) -> ignore (start_up ~seed ~dir ~readonly:false b p)) programs
        end;
        programs)
  in
  let warm_dir = work_path (Printf.sprintf "warm-%d" !fills) in
  let results = ref [] in
  let op i =
    let j = i mod Array.length programs in
    let b, program = programs.(j) in
    let dir = if warm then warm_dir else work_path (Printf.sprintf "cold-%d" i) in
    let r, span = timed (fun () -> start_up ~seed ~dir ~readonly:warm b program) in
    results := (j, r) :: !results;
    if not warm then Ledger.span "bench.check" (fun () -> rm_rf dir);
    span
  in
  let latencies_ms = timed_loop ~cycle:(Array.length programs) ~seconds op in
  verify (fun () ->
      let refs = Hashtbl.create 32 in
      List.iter
        (fun (j, (digest, _)) ->
          let expect =
            match Hashtbl.find_opt refs j with
            | Some d -> d
            | None ->
                let b, p = programs.(j) in
                let d = reference ~seed b p in
                Hashtbl.replace refs j d;
                d
          in
          check (Int64.equal digest expect)
            (Printf.sprintf "start-up of %s returned other results than a run \
                             without cache" (name (fst programs.(j)))))
        !results;
      let digest0, cycles0 = List.assoc 0 (List.rev !results) in
      check_digest ~workload ~seed
        (Hash64.int64 (Hash64.int64 (program_digest (snd programs.(0))) digest0) cycles0));
  {
    setup_s;
    latencies_ms;
    work = float_of_int (Array.length latencies_ms);
    work_s = Array.fold_left ( +. ) 0.0 latencies_ms /. 1000.0;
    rss_mb = peak_rss_mb ();
    layer =
      [
        ("cache.hits", float_of_int tot.hits);
        ("cache.misses", float_of_int tot.misses);
        ("cache.stale", float_of_int tot.stale);
        ("cache.corrupt", float_of_int tot.corrupt);
        ("cache.bytes", float_of_int tot.bytes);
        (* store hits serve compiled code (AOT loads) and flat forms *)
        ("flat.persist_loads", float_of_int (tot.hits - !Drive.aot_loads));
      ];
  }
