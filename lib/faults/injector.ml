module Channel = Tessera_protocol.Channel
module Prng = Tessera_util.Prng
module Trace = Tessera_obs.Trace

exception Injected of string

(* injected faults land on the same timeline as the JIT/cache events
   they perturb, so a trace shows cause next to effect *)
let trace_fault name =
  if !Trace.enabled then Trace.instant ~cat:"fault" name

type stats = {
  mutable writes : int;
  mutable reads : int;
  mutable dropped : int;
  mutable corrupted : int;
  mutable duplicated : int;
  mutable garbage : int;
  mutable delayed : int;
  mutable crashes : int;
  mutable revivals : int;
  mutable compile_faults : int;
}

let fresh_stats () =
  {
    writes = 0;
    reads = 0;
    dropped = 0;
    corrupted = 0;
    duplicated = 0;
    garbage = 0;
    delayed = 0;
    crashes = 0;
    revivals = 0;
    compile_faults = 0;
  }

type t = {
  spec : Spec.t;
  rng : Prng.t;
  stats : stats;
  sleep : float -> unit;
  mutable crashed : bool;
  mutable crash_ops : int;  (* operations attempted while crashed *)
  mutable next_crash_at : int option;  (* writes count that triggers a crash *)
}

let create ?(sleep = fun _ -> ()) ~spec ~seed () =
  {
    spec;
    rng = Prng.create seed;
    stats = fresh_stats ();
    sleep;
    crashed = false;
    crash_ops = 0;
    next_crash_at = spec.Spec.crash_after;
  }

let stats t = t.stats
let crashed t = t.crashed

let pp_stats fmt s =
  Format.fprintf fmt
    "writes=%d reads=%d dropped=%d corrupted=%d duplicated=%d garbage=%d \
     delayed=%d crashes=%d revivals=%d compile_faults=%d"
    s.writes s.reads s.dropped s.corrupted s.duplicated s.garbage s.delayed
    s.crashes s.revivals s.compile_faults

(* crash bookkeeping: after [crash_after] written frames the endpoint is
   "down" and every operation raises Closed; after [revive_after] further
   attempted operations it comes back (operator restart), with the
   underlying input flushed so the revived endpoint starts on a clean
   stream.  The crash trigger then re-arms [crash_after] writes in the
   future, so a revived endpoint gets a full fresh lease. *)
let check_crash t base =
  if t.crashed then begin
    t.crash_ops <- t.crash_ops + 1;
    match t.spec.Spec.revive_after with
    | Some m when t.crash_ops >= m ->
        t.crashed <- false;
        t.crash_ops <- 0;
        t.stats.revivals <- t.stats.revivals + 1;
        trace_fault "revival";
        t.next_crash_at <-
          Option.map (fun n -> t.stats.writes + n) t.spec.Spec.crash_after;
        ignore (Channel.drain base)
    | _ -> raise Channel.Closed
  end

let note_write t base =
  t.stats.writes <- t.stats.writes + 1;
  match t.next_crash_at with
  | Some n when (not t.crashed) && t.stats.writes > n ->
      t.crashed <- true;
      t.crash_ops <- 0;
      t.stats.crashes <- t.stats.crashes + 1;
      trace_fault "crash";
      ignore (Channel.drain base)
  | _ -> ()

let corrupt_string t s =
  let b = Bytes.of_string s in
  let i = Prng.int t.rng (Bytes.length b) in
  let bit = Prng.int t.rng 8 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
  Bytes.to_string b

let on_write t base s =
  note_write t base;
  check_crash t base;
  if Prng.bernoulli t.rng t.spec.Spec.drop then begin
    t.stats.dropped <- t.stats.dropped + 1;
    trace_fault "drop"
  end
  else begin
    if Prng.bernoulli t.rng t.spec.Spec.garbage then begin
      t.stats.garbage <- t.stats.garbage + 1;
      trace_fault "garbage";
      let n = 1 + Prng.int t.rng 8 in
      Channel.write base (String.init n (fun _ -> Char.chr (Prng.int t.rng 256)))
    end;
    let s =
      if String.length s > 0 && Prng.bernoulli t.rng t.spec.Spec.corrupt then begin
        t.stats.corrupted <- t.stats.corrupted + 1;
        trace_fault "corrupt";
        corrupt_string t s
      end
      else s
    in
    Channel.write base s;
    if Prng.bernoulli t.rng t.spec.Spec.dup then begin
      t.stats.duplicated <- t.stats.duplicated + 1;
      trace_fault "duplicate";
      Channel.write base s
    end;
    if t.spec.Spec.delay_ms > 0 then begin
      t.stats.delayed <- t.stats.delayed + 1;
      t.sleep (float_of_int t.spec.Spec.delay_ms /. 1000.0)
    end
  end

let on_read_avail t base n =
  check_crash t base;
  t.stats.reads <- t.stats.reads + 1;
  Channel.read_avail base n

let wrap_channel t ch =
  Channel.wrap
    ~on_write:(fun base s -> on_write t base s)
    ~on_read_avail:(fun base n -> on_read_avail t base n)
    ch

let compile_fault t ~meth_id =
  if Prng.bernoulli t.rng t.spec.Spec.compile_fail then begin
    t.stats.compile_faults <- t.stats.compile_faults + 1;
    trace_fault "compile_fault";
    raise (Injected (Printf.sprintf "injected compile fault (method %d)" meth_id))
  end
