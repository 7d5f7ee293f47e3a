(** Compiler-side client of the model protocol, hardened for deployment.

    The compiler must never fail — or hang — because the model did.
    Every request carries a deadline; timeouts and malformed responses
    are retried with exponential backoff and jitter; persistent failure
    trips a circuit breaker that short-circuits every prediction to the
    paper's default-plan fallback and periodically half-opens via [Ping]
    to detect recovery.  Each failure class is counted separately (and
    logged once), so operators can tell a slow model from a crashed one
    from a garbage-emitting one.

    Replies are read with {!Channel.read_avail} into the client's own
    buffer and decoded with {!Message.scan}, the decoder the server
    uses.  While a reply is incomplete the client waits on the channel's
    descriptor until the deadline.  Bytes past a reply (a duplicated
    frame) stay buffered and answer the next exchange.  Any failure
    clears the buffer; a timeout or a malformed reply also drains the
    channel, so the retry starts on a clean stream. *)

type failure =
  | Timeout
      (** no complete response within the deadline — at once on an
          in-memory channel, whose bytes only arrive between calls *)
  | Malformed  (** a response arrived but failed frame validation *)
  | Closed  (** the channel is closed / the peer is gone *)
  | Server_error  (** the server answered [Error_msg] *)
  | Overloaded
      (** the server shed this request ([Message.Overloaded]); not
          retried — consecutive sheds trip the breaker, backing the
          client off exactly when the server asks for relief *)
  | Unexpected_reply  (** a valid but contextually wrong message *)

val failure_name : failure -> string

type outcome =
  | Predicted of Tessera_modifiers.Modifier.t
  | Fallback of failure  (** retries exhausted; use the default plan *)
  | Breaker_skip  (** circuit breaker open; request never sent *)

type breaker = Breaker_closed | Breaker_open | Breaker_half_open

val breaker_name : breaker -> string

type config = {
  deadline_ms : int;  (** per-request response deadline *)
  max_retries : int;  (** extra attempts on timeout/malformed *)
  backoff_base_ms : float;
  backoff_max_ms : float;
  breaker_threshold : int;  (** consecutive failed requests that trip *)
  breaker_cooldown : int;  (** skipped requests before half-opening *)
  jitter_seed : int64;  (** seed of the backoff-jitter PRNG *)
  sleep : float -> unit;
      (** backoff sleep, in seconds; defaults to a no-op so in-process
          lockstep setups stay deterministic — two-process deployments
          pass [Unix.sleepf] *)
  log : string -> unit;
      (** once-per-failure-class diagnostics; defaults to
          {!Tessera_obs.Log.warn} (leveled, stderr, optionally mirrored
          into the trace buffer) *)
}

val default_config : config

type counters = {
  mutable requests : int;
  mutable predicted : int;
  mutable fallbacks : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable malformed : int;
  mutable closed : int;
  mutable server_errors : int;
  mutable overloaded : int;
  mutable unexpected : int;
  mutable breaker_skips : int;
  mutable breaker_trips : int;
  mutable breaker_half_opens : int;
  mutable breaker_recoveries : int;
}
(** Invariant: [predicted + fallbacks + breaker_skips = requests]. *)

type t

val connect :
  ?model_name:string ->
  ?lockstep:(unit -> unit) ->
  ?config:config ->
  Channel.t ->
  t
(** Sends [Init] and waits for [Init_ok], retrying per [config].  If the
    handshake cannot be completed the client still returns — with the
    breaker open, so every prediction falls back until a later half-open
    ping finds the server alive.  [lockstep], when given, is run between
    sending a request and reading the response — in-process setups pass
    {!Serve.lockstep} over the other endpoint of an in-memory pipe, so
    one engine tick answers each request.  Also sets [SIGPIPE] to ignore (where supported), so a peer
    dying mid-write surfaces as a counted fallback instead of killing
    the process. *)

val predict :
  t ->
  level:Tessera_opt.Plan.level ->
  features:float array ->
  Tessera_modifiers.Modifier.t
(** Any failure falls back to the null modifier (the original
    compilation plan).  Equivalent to {!predict_result} with the outcome
    collapsed. *)

val predict_result :
  t -> level:Tessera_opt.Plan.level -> features:float array -> outcome
(** Like {!predict} but keeps the failure class visible.  Never raises. *)

val ping : t -> bool

val stats : t -> string option
(** One [Stats_req] round trip: the server's metrics exposition, or
    [None] on any failure (never raises, not retried, not counted as a
    prediction failure). *)

val counters : t -> counters
val breaker_state : t -> breaker
val pp_counters : Format.formatter -> counters -> unit

val backoff_delay : t -> int -> float
(** [backoff_delay t attempt] is the retry sleep in seconds for the
    given 0-based attempt: full jitter, uniform in
    [(0, min (base * 2^attempt) max]].  Draws from the client's jitter
    PRNG (so calling it advances the stream); exposed for property
    tests of the bound. *)

val shutdown : t -> unit
