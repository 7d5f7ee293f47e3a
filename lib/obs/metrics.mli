(** Metrics registry: named counters, gauges, and fixed-bucket
    histograms, with a Prometheus-style text exposition.

    Subsystems register their instruments by name instead of keeping
    scattered mutable record fields, so every reporting surface (CLI
    metrics dump, the model server's [Stats] request, tests) reads one
    canonical view.  Registration is idempotent: asking for an existing
    name of the same kind returns the existing instrument (so module
    initialization order does not matter); asking for an existing name
    of a {e different} kind raises [Invalid_argument].

    Registries are values: per-engine state (one simulated JVM each)
    lives in its own registry, process-wide state (the model server's
    request counters) in {!default}.  Instrument updates never hash.

    Domain safety: registration, {!expose}, {!names}, and {!reset} are
    mutex-guarded, so concurrent domains may register against one
    registry (e.g. {!default}) freely.  Counter updates are atomic and
    each histogram guards its own buckets, so concurrent writers of one
    counter or histogram never lose an update.  Gauges are plain
    stores: give each gauge one writer. *)

type t
(** A registry. *)

type counter
type gauge
type histogram

val create : unit -> t

val default : t
(** The process-wide registry. *)

(** {1 Registration} *)

val counter : t -> ?help:string -> string -> counter
val gauge : t -> ?help:string -> string -> gauge

val histogram : t -> ?help:string -> ?buckets:float array -> string -> histogram
(** [buckets] are upper bounds in increasing order; a [+Inf] bucket is
    implicit.  Default: powers of 10 from 1e3 to 1e9 (cycle scales). *)

(** {1 Counters} — monotonically non-decreasing *)

val inc : counter -> unit
val add : counter -> int -> unit
(** [add c n] with [n < 0] raises [Invalid_argument]. *)

val counter_value : counter -> int

(** {1 Gauges} *)

val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} *)

val observe : histogram -> float -> unit

val bucket_counts : histogram -> (float * int) array
(** [(upper_bound, count)] per bucket, cumulative-free (each bucket
    holds only its own observations); the last entry is the [+Inf]
    bucket ([infinity]). *)

val histogram_sum : histogram -> float
val histogram_count : histogram -> int

val quantile : histogram -> float -> float
(** [quantile h q] with [q] in [\[0, 1\]] walks the cumulative bucket
    counts to the bucket containing the [q·count]-th observation and
    interpolates linearly inside it — exact at bucket resolution (feed a
    histogram whose bounds are the distinct observed values for exact
    answers), and deterministic: identical counts give identical
    quantiles.  Returns [nan] on an empty histogram; observations in the
    [+Inf] bucket report the largest finite bound.  Raises
    [Invalid_argument] when [q] is outside [\[0, 1\]]. *)

val count_le : histogram -> float -> int
(** [count_le h v] is the number of observations in buckets whose upper
    bound is [<= v] — a conservative (never over-counting) tally of
    observations known to be [<= v], the primitive behind the serving
    SLO monitor.  Exact when [v] is one of the bucket bounds. *)

(** {1 Reporting} *)

val expose : t -> string
(** Prometheus text exposition format, instruments sorted by name (the
    output is deterministic given deterministic instrument values).
    Histogram buckets are emitted cumulatively with [le] labels, per the
    format. *)

val names : t -> string list
(** Sorted. *)

val escape_help : string -> string
(** Prometheus text-format HELP escaping: [\\] → [\\\\], newline →
    [\\n].  Applied by {!expose}; exposed for property tests. *)

val escape_label_value : string -> string
(** Label-value escaping: HELP escaping plus ["] → [\\"]. *)

val reset : t -> unit
(** Zero every instrument (keeps registrations); for tests. *)
