(* evaluate: the paper's Figures 6-13 path over the fifteen benchmarks
   the model never trained on.  One operation runs one benchmark without
   and with the set-up model, for one iteration (start-up) and for ten
   (throughput), exactly as Evaluation.run_once does for the trial the
   seed selects.  Throughput is virtual cycles executed per host second. *)

open Common
module Evaluation = H.Evaluation

let scale = 0.25
let throughput_iterations = 10

type run = { app : int64; compile : int64; compilations : int }

let run_once ~(cfg : H.Expconfig.t) ~seed ?model (b : Suites.bench) program
    ~iterations =
  let engine = Drive.create ?model ~clock_seed:(clock_seed cfg seed) program in
  for it = 0 to iterations - 1 do
    for k = 0 to b.Suites.iteration_invocations - 1 do
      ignore (Drive.invoke engine (arg_base seed + (it * 31) + k))
    done
  done;
  Drive.account engine;
  {
    app = Drive.Engine.app_cycles engine;
    compile = Drive.Engine.total_compile_cycles engine;
    compilations = Drive.Engine.compile_count engine;
  }

let geomean = function
  | [] -> 0.0
  | xs -> Tessera_util.Stats.geomean (Array.of_list xs)

let run ~seed ~seconds =
  let cfg = config ~seed ~scale in
  (* each benchmark, its scaled form, and that form's program *)
  let (model, programs), setup_s =
    setup (fun () ->
        ( setup_model ~seed,
          Array.of_list
            (List.map
               (fun b ->
                 let scaled = Suites.scale_bench b scale in
                 (b, scaled, generate scaled))
               held_out) ))
  in
  (* the four runs of each benchmark's first operation, in run order:
     baseline and model at one iteration, then at ten; later operations
     on the same benchmark must repeat them exactly *)
  let firsts = Hashtbl.create 16 in
  let work = ref 0.0 in
  let op i =
    let j = i mod Array.length programs in
    let _, scaled, program = programs.(j) in
    let runs, span =
      timed (fun () ->
          List.map
            (fun (model, iterations) ->
              run_once ~cfg ~seed ?model scaled program ~iterations)
            [
              (None, 1);
              (Some model, 1);
              (None, throughput_iterations);
              (Some model, throughput_iterations);
            ])
    in
    List.iter (fun r -> work := !work +. Int64.to_float r.app) runs;
    (match Hashtbl.find_opt firsts j with
    | None -> Hashtbl.replace firsts j runs
    | Some first -> check (runs = first) "a repeated evaluation gave other cycles");
    span
  in
  let latencies_ms = timed_loop ~cycle:(Array.length programs) ~seconds op in
  verify (fun () ->
      (* the runs above must agree with the library's own run_once *)
      let b0, _, program0 = programs.(0) in
      let runs0 = Hashtbl.find firsts 0 in
      let same (r : run) model =
        let m =
          Evaluation.run_once ~cfg ?model ~bench:b0 ~iterations:1 ~trial:(trial seed) ()
        in
        Int64.equal r.app m.Evaluation.app_cycles
        && Int64.equal r.compile m.Evaluation.compile_cycles
        && r.compilations = m.Evaluation.compilations
      in
      check (same (List.nth runs0 0) None) "baseline run differs from Evaluation.run_once";
      check (same (List.nth runs0 1) (Some model)) "model run differs from Evaluation.run_once";
      check_digest ~workload:"evaluate" ~seed
        (List.fold_left
           (fun h r -> Hash64.int64 (Hash64.int64 h r.app) r.compile)
           (program_digest program0) runs0));
  let ratio f =
    Hashtbl.fold
      (fun _ runs acc ->
        match runs with
        | [ b1; m1; b10; m10 ] -> f b1 m1 b10 m10 :: acc
        | _ -> acc)
      firsts []
    |> geomean
  in
  let vc x = Int64.to_float x in
  {
    setup_s;
    latencies_ms;
    work = !work;
    work_s = Array.fold_left ( +. ) 0.0 latencies_ms /. 1000.0;
    rss_mb = peak_rss_mb ();
    layer =
      [
        ("eval.startup_speedup", ratio (fun b1 m1 _ _ -> vc b1.app /. vc m1.app));
        ( "eval.throughput_speedup",
          ratio (fun _ _ b10 m10 -> vc b10.app /. vc m10.app) );
        ( "eval.compile_speedup",
          ratio (fun b1 m1 b10 m10 ->
              (vc b1.compile +. vc b10.compile +. 1.0)
              /. (vc m1.compile +. vc m10.compile +. 1.0)) );
      ];
  }
