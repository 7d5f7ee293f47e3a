(** Deterministic sampling profiler driven by the virtual clock.

    The interpreters (the flat dispatch loop, which runs interpreted
    methods and compiled code alike, and the tree walker) call
    {!charge} with every cycle cost they charge against the fuel meter; a sample fires each time {!period} charged cycles accumulate,
    attributed to the (method, block, opcode) executing at the boundary.
    Because firing depends only on the charged-cycle sequence — never on
    wall time — the same seed yields a byte-identical profile, checked
    through {!to_canonical_string}.

    A fire that spans [k] periods (one coarse cost crossing several
    boundaries) carries weight [k], so estimated cycles
    ([samples × period]) account for every charged cycle to within one
    period per site.

    Off by default, like [Trace]: the interpreters read [!enabled] once
    per run, so the profiler-off cost is at most one well-predicted
    branch on a local flag per charge (measured within the <3%
    observability budget by [bench profile]).  The site
    table is bounded ({!enable}'s [max_sites]); weight landing past the
    bound is counted in {!dropped_samples}, never silently lost.
    Single-domain discipline: fires are mutex-guarded so concurrent
    domains cannot corrupt the table, but the credit counter is shared —
    profile one domain at a time for exact attribution. *)

val enabled : bool ref
(** Branch on [!enabled] before doing any attribution work. *)

val enable : ?period:int -> ?max_sites:int -> unit -> unit
(** Clears captured samples and turns sampling on.  [period] (default
    4096) is the virtual-cycle sampling stride; [max_sites] (default
    4096) bounds the attribution table.  Raises [Invalid_argument] when
    either is non-positive. *)

val disable : unit -> unit
(** Stops sampling; captured samples remain readable. *)

val reset : unit -> unit
(** Drops captured samples and restores a full credit period. *)

val charge : meth:string -> block:int -> op:string -> int -> unit
(** [charge ~meth ~block ~op cost] accounts [cost] charged cycles to the
    given site.  Hot path: one subtraction and one branch unless a
    period boundary is crossed. *)

(** {1 Reading the profile} *)

val period : unit -> int
val total_samples : unit -> int

val dropped_samples : unit -> int
(** Weight that landed once the site table was full. *)

val site_count : unit -> int

val samples : unit -> ((string * int * string) * int) list
(** [((method, block, opcode), samples)] in canonical (key-sorted)
    order. *)

val hot_methods : unit -> (string * int) list
(** Samples aggregated per method, hottest first (ties broken by
    name, so the ranking is deterministic). *)

val hot_ops : unit -> (string * int) list
(** Samples aggregated per opcode, hottest first. *)

val flame_lines : unit -> string list
(** Collapsed-stack flame-graph lines, ["meth;block_N;op count"], in
    canonical order — feed to any flamegraph.pl-compatible renderer. *)

val to_canonical_string : unit -> string
(** Deterministic rendering of the whole profile (header plus key-sorted
    sites) — the determinism oracle: same seed ⇒ byte-identical. *)

val to_json : unit -> string
(** The profile as a JSON object: sampling parameters, hot-method and
    hot-opcode rankings with estimated cycles, and flame lines. *)

val report : Format.formatter -> unit
(** Human-readable top-10 hot methods and opcodes. *)
