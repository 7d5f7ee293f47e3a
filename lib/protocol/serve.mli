(** Model serving: the one loop that answers the wire protocol.

    [Serve] multiplexes {!Conn}s through a non-blocking engine designed
    around robustness: bounded per-connection and global request queues with
    real backpressure (a connection at its bound is simply not read),
    load-shedding past a high-water mark (answered with
    {!Message.Overloaded}, never silence, so client circuit breakers
    trip cleanly), per-connection error budgets (a byzantine peer is
    closed after [max_protocol_errors] strikes or resync exhaustion,
    not argued with forever), batched SVM prediction across the queued
    feature vectors of all clients, supervised prediction workers that
    are restarted from a factory on crash without dropping any
    connection, and a deadline-bounded graceful drain.

    The engine is driven by {!tick} — one bounded scheduling round —
    so in-process peers ({!lockstep}, tests, [bench serve]) run it
    deterministically, while {!serve_fds} wraps it in a [select] loop
    over descriptors: a socket listener, or a pre-accepted FIFO pair.  Everything is instrumented through
    {!Tessera_obs.Metrics.default} ([serve_*] gauges, counters, and the
    [serve_latency_seconds] histogram). *)

type batch_predictor =
  level:Tessera_opt.Plan.level ->
  float array array ->
  Tessera_modifiers.Modifier.t array
(** One SVM pass over a batch of raw (unnormalized) feature vectors of
    one level; must return one modifier per input row. *)

type config = {
  max_conns : int;  (** accept refuses (with [Overloaded]) past this *)
  per_conn_queue : int;  (** per-connection queued-request bound *)
  queue_hwm : int;  (** global queue high-water mark: shed above *)
  max_batch : int;  (** requests handed to a worker per batch *)
  max_protocol_errors : int;  (** strikes before a connection is closed *)
  resync_budget : int;  (** per-connection {!Conn} resync budget *)
  drain_deadline_s : float;  (** default {!finish_drain} bound *)
  workers : int;  (** supervised prediction workers (≥ 1) *)
  now : unit -> float;
      (** clock used for latency histograms and drain deadlines;
          defaults to [Unix.gettimeofday] — tests pass virtual clocks *)
  stats : unit -> string;  (** [Stats_req] answer; defaults to the
                               default-registry exposition *)
  slo_objective_s : float;
      (** declared latency objective in seconds (default 10 ms);
          exported as [serve_slo_objective_seconds] *)
  slo_target : float;
      (** fraction of requests that must meet the objective (default
          0.99); the error budget is [1 - slo_target] *)
  slo_window : int;
      (** burn-rate window in ticks (default 256): one latency-histogram
          snapshot is retained per {!tick} *)
}

val default_config : config

type counters = {
  mutable accepted : int;
  mutable refused : int;  (** connections refused at capacity/drain *)
  mutable conns_closed : int;
  mutable requests : int;  (** messages handled *)
  mutable predictions : int;
  mutable shed : int;  (** [Overloaded] answers *)
  mutable errors : int;  (** [Error_msg] answers *)
  mutable strikes : int;
  mutable struck_out : int;  (** connections closed over the error cap *)
  mutable dropped : int;  (** queued requests whose connection died *)
  mutable worker_restarts : int;
}

val pp_counters : Format.formatter -> counters -> unit

type t

val create : ?config:config -> make_predictor:(int -> batch_predictor) -> unit -> t
(** [make_predictor wid] builds (and, after a crash, rebuilds) the
    predictor of worker [wid]. *)

val accept : t -> Channel.t -> Conn.t option
(** Register a connection.  [None] — after an [Overloaded] reply and a
    close — when the engine is draining or at [max_conns]. *)

val tick : t -> int
(** One scheduling round: pump every connection with queue room, handle
    decoded messages (control frames answered inline, predictions
    queued, overload shed, strikes counted), then dispatch at most one
    batch per worker and write the replies.  Returns the number of
    events processed — 0 means the engine is idle. *)

val drain : t -> unit
(** Enter graceful drain: stop accepting and stop reading; queued
    requests are still answered by subsequent {!tick}s. *)

val drained : t -> bool
val finish_drain : ?deadline_s:float -> t -> bool
(** Drain, tick until the queue is flushed or the deadline passes, then
    close every connection.  [true] iff the flush completed in time. *)

val serve_fds :
  ?select_timeout_s:float ->
  ?listen:Unix.file_descr ->
  ?wrap:(Channel.t -> Channel.t) ->
  t ->
  stop:(unit -> bool) ->
  bool
(** Select loop over the descriptors of the roster until [stop ()], then
    {!finish_drain}; returns the drain verdict.  With [listen], new
    connections are accepted from that socket, each channel passed
    through [wrap] (default identity; the fault injector hooks in here).
    Without it the roster is the connections {!accept}ed before the
    call, and the loop also ends once they have all closed. *)

val lockstep : t -> Channel.t -> unit -> unit
(** [lockstep t ch] serves the in-process endpoint [ch] one call at a
    time: each call accepts [ch] if the engine has no open connection,
    then runs one {!tick}.  Closing the connection (end of stream, error
    cap, a dead peer) leaves [ch] open, so the next call accepts it
    again.  Pass the result as {!Client.connect}'s [lockstep]. *)

val counters : t -> counters
val queue_depth : t -> int
val draining : t -> bool

val vcycles : t -> int64
(** The engine's virtual clock: advanced once per {!tick} and once per
    request-span emission.  Register [fun () -> vcycles t] as the
    {!Tessera_obs.Trace} cycle source so client-side spans share the
    server's time base.

    Traced requests (a non-none {!Tracectx.t} in the [Predict] frame)
    emit [queue_wait] / [batch_wait] / [predict] / [reply] child spans
    on this clock, category ["serve"], carrying [trace], [parent], and
    [tid] args — the per-request critical path rendered by
    [tessera_report timeline] and the Chrome export. *)

val slo_burn_rate : t -> float
(** Rolling error-budget burn rate: the fraction of recent requests
    (over [slo_window] ticks) slower than [slo_objective_s], divided by
    the budget [1 - slo_target].  1.0 means burning exactly the budget;
    above 1.0 the objective is being missed.  Also exported as the
    [serve_slo_burn_rate] gauge (and thus through [Stats_req]). *)

val connection_count : t -> int
val connections : t -> Conn.t list
(** Open connections, in accept order. *)
