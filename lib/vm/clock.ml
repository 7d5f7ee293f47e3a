module Prng = Tessera_util.Prng

(* Cycles are a native int: 63 bits hold about 2.3e9 virtual seconds at
   Cost.cycles_per_ms, and an unboxed counter keeps [advance] — called
   once per executed instruction — free of allocation.  The interface
   still speaks int64; only [now] and [read_tsc] box. *)
type t = {
  mutable cycles : int;
  mutable core : int;
  mutable next_migration : int;
  mutable migrations : int;
  cores : int;
  rng : Prng.t;
}

(* The Linux balancer can move a thread every ~200 ms; in practice it is
   less frequent (Section 4.2).  We draw intervals in [200 ms, 5 s]. *)
let draw_interval rng =
  let ms = 200 + Prng.int rng 4800 in
  ms * Cost.cycles_per_ms

let create ?(cores = 8) ?(seed = 0x7E55E7AL) () =
  let rng = Prng.create seed in
  {
    cycles = 0;
    core = 0;
    next_migration = draw_interval rng;
    migrations = 0;
    cores;
    rng;
  }

let migrate t =
  while t.cycles >= t.next_migration do
    t.core <- (t.core + 1 + Prng.int t.rng (max 1 (t.cores - 1))) mod t.cores;
    t.migrations <- t.migrations + 1;
    if !Tessera_obs.Trace.enabled then
      Tessera_obs.Trace.instant ~cycles:(Int64.of_int t.next_migration) ~cat:"vm"
        ~args:[ ("core", Tessera_obs.Trace.Int (Int64.of_int t.core)) ]
        "core_migration";
    t.next_migration <- t.next_migration + draw_interval t.rng
  done

let advance t n =
  if n < 0 then invalid_arg "Clock.advance: negative";
  let c = t.cycles + n in
  t.cycles <- c;
  if c >= t.next_migration then migrate t

let copy t = { t with rng = Prng.copy t.rng }

let restore dst src =
  if dst.cores <> src.cores then invalid_arg "Clock.restore: core count differs";
  dst.cycles <- src.cycles;
  dst.core <- src.core;
  dst.next_migration <- src.next_migration;
  dst.migrations <- src.migrations;
  Prng.set_state dst.rng (Prng.state src.rng)

let now t = Int64.of_int t.cycles
let read_tsc t = (Int64.of_int t.cycles, t.core)
let core t = t.core
let migrations t = t.migrations
let ms t = float_of_int t.cycles /. float_of_int Cost.cycles_per_ms
