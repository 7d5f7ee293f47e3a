module Modifier = Tessera_modifiers.Modifier
module Prng = Tessera_util.Prng
module Trace = Tessera_obs.Trace
module Log = Tessera_obs.Log

type failure =
  | Timeout
  | Malformed
  | Closed
  | Server_error
  | Overloaded
  | Unexpected_reply

let failure_name = function
  | Timeout -> "timeout"
  | Malformed -> "malformed response"
  | Closed -> "channel closed"
  | Server_error -> "server error reply"
  | Overloaded -> "overloaded (request shed by the server)"
  | Unexpected_reply -> "unexpected reply"

type outcome =
  | Predicted of Modifier.t
  | Fallback of failure
  | Breaker_skip

type breaker = Breaker_closed | Breaker_open | Breaker_half_open

let breaker_name = function
  | Breaker_closed -> "closed"
  | Breaker_open -> "open"
  | Breaker_half_open -> "half-open"

type config = {
  deadline_ms : int;
  max_retries : int;
  backoff_base_ms : float;
  backoff_max_ms : float;
  breaker_threshold : int;
  breaker_cooldown : int;
  jitter_seed : int64;
  sleep : float -> unit;
  log : string -> unit;
}

let default_config =
  {
    deadline_ms = 200;
    max_retries = 2;
    backoff_base_ms = 4.0;
    backoff_max_ms = 250.0;
    breaker_threshold = 5;
    breaker_cooldown = 16;
    jitter_seed = 0x5EEDL;
    sleep = (fun _ -> ());
    log = Log.warn;
  }

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

let fresh_counters () =
  {
    requests = 0;
    predicted = 0;
    fallbacks = 0;
    retries = 0;
    timeouts = 0;
    malformed = 0;
    closed = 0;
    server_errors = 0;
    overloaded = 0;
    unexpected = 0;
    breaker_skips = 0;
    breaker_trips = 0;
    breaker_half_opens = 0;
    breaker_recoveries = 0;
  }

type t = {
  ch : Channel.t;
  mutable inbuf : string;  (* reply bytes read but not yet decoded *)
  lockstep : unit -> unit;
  config : config;
  rng : Prng.t;
  counters : counters;
  logged : (failure, unit) Hashtbl.t;
  mutable breaker : breaker;
  mutable consecutive_failures : int;
  mutable open_skips : int;
}

let counters t = t.counters
let breaker_state t = t.breaker

let pp_counters fmt c =
  Format.fprintf fmt
    "requests=%d predicted=%d fallbacks=%d retries=%d timeouts=%d \
     malformed=%d closed=%d server_errors=%d overloaded=%d unexpected=%d \
     breaker_skips=%d trips=%d half_opens=%d recoveries=%d"
    c.requests c.predicted c.fallbacks c.retries c.timeouts c.malformed
    c.closed c.server_errors c.overloaded c.unexpected c.breaker_skips
    c.breaker_trips c.breaker_half_opens c.breaker_recoveries

let record_failure t f =
  if !Trace.enabled then
    Trace.instant ~cat:"protocol"
      ~args:[ ("class", Trace.Str (failure_name f)) ]
      "model_failure";
  let c = t.counters in
  (match f with
  | Timeout -> c.timeouts <- c.timeouts + 1
  | Malformed -> c.malformed <- c.malformed + 1
  | Closed -> c.closed <- c.closed + 1
  | Server_error -> c.server_errors <- c.server_errors + 1
  | Overloaded -> c.overloaded <- c.overloaded + 1
  | Unexpected_reply -> c.unexpected <- c.unexpected + 1);
  if not (Hashtbl.mem t.logged f) then begin
    Hashtbl.add t.logged f ();
    t.config.log
      (Printf.sprintf
         "tessera-client: model %s; falling back to the default plan \
          (further occurrences counted, not logged)"
         (failure_name f))
  end

(* Waits up to [timeout] seconds for input on [ch]: [false] when nothing
   came or [ch] has no descriptor.  A signal ends the wait early with
   [true], so the caller reads again and re-checks its deadline. *)
let await ch timeout =
  match Channel.read_fd ch with
  | None -> false
  | Some fd -> (
      match Unix.select [ fd ] [] [] timeout with
      | r, _, _ -> r <> []
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> true)

(* The next reply, decoded by [Message.scan] out of [inbuf], which
   [Channel.read_avail] refills.  A descriptor is waited on until
   [deadline]; an in-memory pair only receives bytes between calls, so
   running dry there is a timeout at once.  Bytes past the reply (a
   duplicated frame, say) stay buffered and answer the next exchange.
   Raises [Channel.Closed] at end of stream. *)
let rec read_reply t ~deadline =
  match Message.scan t.inbuf ~pos:0 with
  | Message.Scan_msg (m, next) ->
      t.inbuf <- String.sub t.inbuf next (String.length t.inbuf - next);
      Ok m
  | Message.Scan_bad _ -> Error Malformed
  | Message.Scan_need_more -> (
      match Channel.read_avail t.ch 65536 with
      | "" ->
          let remaining = deadline -. Unix.gettimeofday () in
          if remaining > 0.0 && await t.ch remaining then read_reply t ~deadline
          else Error Timeout
      | s ->
          t.inbuf <- t.inbuf ^ s;
          read_reply t ~deadline)

(* one request/response exchange; never raises *)
let round_trip t msg =
  let deadline =
    Unix.gettimeofday () +. (float_of_int t.config.deadline_ms /. 1000.0)
  in
  let reply =
    match
      Message.send t.ch msg;
      t.lockstep ();
      read_reply t ~deadline
    with
    | r -> r
    | exception Channel.Closed -> Error Closed
    | exception _ -> Error Unexpected_reply
  in
  (match reply with
  | Ok _ -> ()
  | Error f ->
      t.inbuf <- "";
      (* a late or half-delivered response must not poison the next
         exchange: flush whatever is buffered *)
      if f = Timeout || f = Malformed then
        try ignore (Channel.drain t.ch) with _ -> ());
  reply

let backoff_delay t attempt =
  let capped =
    Float.min
      (t.config.backoff_base_ms *. (2.0 ** float_of_int attempt))
      t.config.backoff_max_ms
  in
  (* full jitter (AWS style): uniform in (0, capped].  A floor at
     [capped] would make every retrying client wait the entire backoff
     and keep their retries correlated — the opposite of jitter. *)
  capped *. (1.0 -. Prng.float t.rng 1.0) /. 1000.0

let trip t =
  if t.breaker <> Breaker_open then begin
    if !Trace.enabled then
      Trace.instant ~cat:"protocol"
        ~args:
          [
            ( "consecutive_failures",
              Trace.Int (Int64.of_int t.consecutive_failures) );
          ]
        "breaker_open";
    if t.counters.breaker_trips = 0 then
      t.config.log
        (Printf.sprintf
           "tessera-client: circuit breaker open after %d consecutive \
            failures; predictions fall back to the default plan"
           t.consecutive_failures);
    t.breaker <- Breaker_open;
    t.open_skips <- 0;
    t.counters.breaker_trips <- t.counters.breaker_trips + 1
  end

let note_success t =
  t.consecutive_failures <- 0

let note_failure t =
  t.consecutive_failures <- t.consecutive_failures + 1;
  if
    t.breaker = Breaker_closed
    && t.consecutive_failures >= t.config.breaker_threshold
  then trip t

let ping_once t =
  match round_trip t Message.Ping with Ok Message.Pong -> true | _ -> false

(* breaker is open and the cooldown has elapsed: probe the server with a
   ping; recover on Pong, re-open otherwise *)
let half_open_probe t =
  t.breaker <- Breaker_half_open;
  t.counters.breaker_half_opens <- t.counters.breaker_half_opens + 1;
  if !Trace.enabled then Trace.instant ~cat:"protocol" "breaker_half_open";
  if ping_once t then begin
    t.breaker <- Breaker_closed;
    t.consecutive_failures <- 0;
    t.counters.breaker_recoveries <- t.counters.breaker_recoveries + 1;
    if !Trace.enabled then Trace.instant ~cat:"protocol" "breaker_closed";
    t.config.log "tessera-client: circuit breaker closed (server recovered)";
    true
  end
  else begin
    t.breaker <- Breaker_open;
    t.open_skips <- 0;
    if !Trace.enabled then Trace.instant ~cat:"protocol" "breaker_reopen";
    false
  end

let predict_result t ~level ~features =
  let c = t.counters in
  c.requests <- c.requests + 1;
  let proceed =
    match t.breaker with
    | Breaker_closed | Breaker_half_open -> true
    | Breaker_open ->
        t.open_skips <- t.open_skips + 1;
        t.open_skips >= t.config.breaker_cooldown && half_open_probe t
  in
  if not proceed then begin
    c.breaker_skips <- c.breaker_skips + 1;
    Breaker_skip
  end
  else
    (* client-side root span for the end-to-end request: the server
       parents its queue/batch/predict/reply children under [ctx], so
       the export renders this span's extent against the server's
       breakdown.  Untraced (zero wire bytes) while tracing is off. *)
    let ctx = if !Trace.enabled then Tracectx.fresh () else Tracectx.none in
    let span ph name =
      if not (Tracectx.is_none ctx) then
        Trace.emit
          ~args:
            [
              ("trace", Trace.Int (Int64.of_int ctx.trace_id));
              ("tid", Trace.Int (Int64.of_int ctx.trace_id));
            ]
          ~cat:"protocol" ph name
    in
    span Trace.Span_begin "request";
    let finish r =
      span Trace.Span_end "request";
      r
    in
    let rec go attempt =
      match round_trip t (Message.Predict { level; features; trace = ctx }) with
      | Ok (Message.Prediction { modifier; trace = _ }) ->
          note_success t;
          c.predicted <- c.predicted + 1;
          Predicted modifier
      | Ok (Message.Error_msg _) ->
          record_failure t Server_error;
          note_failure t;
          c.fallbacks <- c.fallbacks + 1;
          Fallback Server_error
      | Ok Message.Overloaded ->
          (* the server shed this request: do not retry into the
             overload — fall back now and let consecutive sheds trip the
             breaker, which is exactly the relief valve the server is
             asking for *)
          record_failure t Overloaded;
          note_failure t;
          c.fallbacks <- c.fallbacks + 1;
          Fallback Overloaded
      | Ok _ ->
          record_failure t Unexpected_reply;
          note_failure t;
          c.fallbacks <- c.fallbacks + 1;
          Fallback Unexpected_reply
      | Error f ->
          record_failure t f;
          let retryable = match f with Timeout | Malformed -> true | _ -> false in
          if retryable && attempt < t.config.max_retries then begin
            c.retries <- c.retries + 1;
            if !Trace.enabled then
              Trace.instant ~cat:"protocol"
                ~args:[ ("attempt", Trace.Int (Int64.of_int (attempt + 1))) ]
                "retry";
            t.config.sleep (backoff_delay t attempt);
            go (attempt + 1)
          end
          else begin
            note_failure t;
            c.fallbacks <- c.fallbacks + 1;
            Fallback f
          end
    in
    finish (go 0)

let predict t ~level ~features =
  match predict_result t ~level ~features with
  | Predicted m -> m
  | Fallback _ | Breaker_skip -> Modifier.null

let ping t = ping_once t

let stats t =
  match round_trip t Message.Stats_req with
  | Ok (Message.Stats_text s) -> Some s
  | _ -> None

let connect ?(model_name = "default") ?(lockstep = fun () -> ())
    ?(config = default_config) ch =
  (* a peer that dies mid-session must surface as EPIPE → Closed → a
     counted fallback, not a SIGPIPE kill of the whole compiler *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let t =
    {
      ch;
      inbuf = "";
      lockstep;
      config;
      rng = Prng.create config.jitter_seed;
      counters = fresh_counters ();
      logged = Hashtbl.create 8;
      breaker = Breaker_closed;
      consecutive_failures = 0;
      open_skips = 0;
    }
  in
  let rec go attempt =
    match round_trip t (Message.Init { model_name }) with
    | Ok Message.Init_ok -> true
    | Ok _ | Error _ ->
        if attempt < config.max_retries then begin
          t.counters.retries <- t.counters.retries + 1;
          config.sleep (backoff_delay t attempt);
          go (attempt + 1)
        end
        else false
  in
  if not (go 0) then begin
    config.log
      "tessera-client: connect failed; starting with the circuit breaker \
       open (every prediction falls back to the default plan until the \
       server answers a ping)";
    trip t
  end;
  t

let shutdown t =
  (try
     Message.send t.ch Message.Shutdown;
     t.lockstep ()
   with _ -> ());
  try Channel.close t.ch with _ -> ()
