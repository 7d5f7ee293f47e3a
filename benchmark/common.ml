(* What the workloads share: seeded inputs, the set-up model, the timed
   loop, output checks, and process-level readings. *)

module H = Tessera_harness
module Suites = Tessera_workloads.Suites
module Profile = Tessera_workloads.Profile
module Generate = Tessera_workloads.Generate
module Hash64 = Tessera_util.Hash64
module Program = Tessera_il.Program
module Values = Tessera_vm.Values

let now = Unix.gettimeofday

(* [f ()] with the interval it ran in *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, (t0, now ()))

(* -- seeded inputs -------------------------------------------------- *)

(* [--seed] changes the inputs, never the code.  It seeds the experiment
   configuration (the collectors' searches, the engines' clocks) and the
   arguments programs run on; the programs themselves stay the suite's,
   because a new program per seed changes the work a run does by far more
   than any bound could hold.  The serve workload alone draws seeded
   programs, since only their feature vectors reach it. *)
let config ~seed ~scale =
  {
    H.Expconfig.quick with
    H.Expconfig.seed = Hash64.int64 (Hash64.string Hash64.init "benchmark") seed;
    bench_scale = scale;
  }

(* The evaluation trial a seed selects: like Evaluation.run_once, the
   engines of a trial run on clock seed [cfg.seed + trial] and call the
   entry method with arguments from [17 * trial]. *)
let trial seed = Int64.to_int seed
let clock_seed (cfg : H.Expconfig.t) seed = Int64.add cfg.H.Expconfig.seed seed
let arg_base seed = 17 * trial seed

let name (b : Suites.bench) = b.Suites.profile.Profile.name
let held_out = List.filter (fun b -> not b.Suites.trainable) Suites.all

let generate (b : Suites.bench) =
  Ledger.span "workloads.generate" (fun () -> Generate.program b.Suites.profile)

let program_digest p =
  let h = ref Hash64.init in
  for i = 0 to Program.method_count p - 1 do
    h := Hash64.int64 !h (Tessera_il.Meth.fingerprint (Program.meth p i))
  done;
  !h

let result_digest h = function
  | Ok v -> Hash64.int64 (Hash64.byte h 1) (Values.checksum v)
  | Error trap -> Hash64.string (Hash64.byte h 2) (Values.trap_name trap)

(* -- the set-up model ----------------------------------------------

   Evaluation and serving need a trained model set.  Set-up makes one
   the way a user does — sweep collection of the training benchmarks,
   then training — at 0.15 of the workload volume, so that set-up stays
   short enough to repeat. *)
let model_scale = 0.15

let setup_model ~seed =
  let cfg = config ~seed ~scale:model_scale in
  let outcomes =
    List.map
      (fun b ->
        Ledger.span "collect.run" (fun () -> H.Collection.collect_bench ~cfg b))
      Suites.training_set
  in
  Ledger.span "harness.train" (fun () ->
      H.Training.train_on_all ~name:"setup" outcomes)

(* -- process readings ----------------------------------------------- *)

(* peak resident set (VmHWM) of a process, in MB *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
  |> Option.value ~default:0.0

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let gc_reading () =
  let s = Gc.quick_stat () in
  ( (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words) /. 1e6,
    s.Gc.major_collections )

(* allocation (Mwords) and major collections of each stage of the run *)
let stages : (string * (float * int)) list ref = ref []

let stage name f =
  let w0, c0 = gc_reading () in
  let v = f () in
  let w1, c1 = gc_reading () in
  stages := !stages @ [ (name, (w1 -. w0, c1 - c0)) ];
  v

(* Set-up runs at least [setup_reps] times and for at least
   [setup_min_s], so that a set-up of a millisecond is timed over
   hundreds of repeats.  The median time is [setup_s], and the last
   result is the one measured. *)
let setup_reps = 3
let setup_min_s = 0.3

let setup f =
  stage "setup" (fun () ->
      let t0 = now () in
      let rec go runs =
        Hostspeed.tick ();
        let v, (a, b) = timed f in
        let runs = (b -. a) :: runs in
        if List.length runs >= setup_reps && b -. t0 >= setup_min_s then
          (v, Summary.median (Array.of_list runs))
        else go runs
      in
      go [])

(* -- the timed loop ------------------------------------------------- *)

(* host seconds and process CPU seconds of the timed loop *)
let measured_wall = ref 0.0
let measured_cpu = ref 0.0

(* Runs [op 0], [op 1], ... until [seconds] have passed and a whole
   number of [cycle]s is done, so every input of the cycle weighs the
   same in the run's statistics.  Each op returns the interval of its
   timed work, which leaves its output checks out; the result is each
   op's latency in ms. *)
let timed_loop ?(cycle = 1) ~seconds op =
  stage "measure" (fun () ->
      let t0 = now () and cpu0 = cpu_s () in
      let spans = ref [] in
      let i = ref 0 in
      while now () -. t0 < seconds || !i mod cycle <> 0 do
        Hostspeed.tick ();
        spans := op !i :: !spans;
        incr i
      done;
      measured_wall := now () -. t0;
      measured_cpu := cpu_s () -. cpu0;
      Array.of_list (List.rev_map (fun (a, b) -> 1000.0 *. (b -. a)) !spans))

(* -- output checks -------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "check failed: %s\n%!" what
  end

(* Output checks run with the pass hook detached, so that reference
   runs made to check against stay out of the optimizer's totals. *)
let verify f =
  Ledger.span "bench.check" (fun () ->
      let hook = !Tessera_opt.Manager.lint_hook in
      Tessera_opt.Manager.lint_hook := None;
      Fun.protect ~finally:(fun () -> Tessera_opt.Manager.lint_hook := hook) f)

let out_dir = Filename.concat "benchmark" "out"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Per-process working directory inside the checkout, removed at exit. *)
let work_dir =
  lazy
    (let d = Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
     mkdir_p d;
     let pid = Unix.getpid () in
     at_exit (fun () -> if Unix.getpid () = pid then rm_rf d);
     d)

let work_path name = Filename.concat (Lazy.force work_dir) name

(* The same seed must give the same outputs whether or not the run is
   traced: the first run of a (workload, seed) pair with this build
   records a digest of its deterministic outputs, and every later run
   compares against it. *)
let build = lazy (String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12)

let check_digest ~workload ~seed digest =
  let dir = Filename.concat out_dir "digests" in
  mkdir_p dir;
  let path =
    Filename.concat dir (Printf.sprintf "%s-%Ld-%s" workload seed (Lazy.force build))
  in
  let text = Printf.sprintf "%Lx\n" digest in
  if Sys.file_exists path then
    check
      (In_channel.with_open_bin path In_channel.input_all = text)
      (Printf.sprintf "%s: outputs differ from an earlier run with seed %Ld"
         workload seed)
  else Tessera_util.Fileio.atomic_write ~path text

(* -- what a workload hands back ------------------------------------- *)

(* Times are raw host times; the report reads them at the reference host
   speed. *)
type outcome = {
  setup_s : float;  (** median set-up time *)
  latencies_ms : float array;  (** one per timed operation *)
  work : float;  (** units of work done by the timed operations *)
  work_s : float;  (** seconds those operations took *)
  rss_mb : float;
  layer : (string * float) list;  (** per-layer readings it makes itself *)
}
