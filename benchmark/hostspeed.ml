(* Host speed, measured by a fixed kernel interleaved with the work.

   On a shared machine the same work can run at half speed for minutes
   at a time, so the raw wall times of identical runs spread by more
   than any useful bound.  The benchmark therefore times a small fixed
   kernel at least every [cadence] seconds between operations, and
   scales every end-to-end time by [reference_ms] over the run's median
   kernel time: times read as they would on a host where the kernel
   takes [reference_ms].

   The kernel chases pointers around a table that stays in a core's
   private cache, and allocates nothing.  No change to the library can
   make it faster or slower: neither the heap a workload leaves behind
   nor its garbage collector touches it.  A kernel that allocated ran up
   to 15% slower beside some workloads' heaps and made their scaled
   times noisier than the raw ones. *)

let now = Unix.gettimeofday

let slots = 1 lsl 15
let steps = 200_000

(* one random cycle through every slot (Sattolo's algorithm) *)
let table =
  let a = Array.init slots Fun.id in
  let rng = Random.State.make [| 0x5eed |] in
  for i = slots - 1 downto 1 do
    let j = Random.State.int rng i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let chase n =
  let i = ref 0 in
  for _ = 1 to n do
    i := table.(!i)
  done;
  !i

(* the kernel's median time on an unloaded core of the machine the
   bounds were set on *)
let reference_ms = 1.0
let cadence = 0.2

(* seconds of every timed kernel run: this process's, and in the serve
   workload the server's too *)
let samples : float list ref = ref []
let last = ref neg_infinity

(* one untimed lap brings the table back into cache, so a sample times
   the core and not what the work evicted *)
let sample () =
  ignore (Sys.opaque_identity (chase slots));
  let t0 = now () in
  ignore (Sys.opaque_identity (chase steps));
  let t1 = now () in
  samples := (t1 -. t0) :: !samples;
  last := t1

let tick () = if now () -. !last >= cadence then sample ()

let kernel_ms () = 1000.0 *. Summary.median (Array.of_list !samples)

(* host seconds, read at the reference speed *)
let scale t = t *. reference_ms /. kernel_ms ()
