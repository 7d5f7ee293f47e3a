(* The concurrent serving layer: Conn's incremental decoder, the Serve
   engine's backpressure / shedding / error-budget / drain behaviour,
   the supervised workers, and the interleaving property that concurrent
   fault-injected connections never corrupt each other's replies. *)

module Channel = Tessera_protocol.Channel
module Message = Tessera_protocol.Message
module Tracectx = Tessera_protocol.Tracectx
module Conn = Tessera_protocol.Conn
module Serve = Tessera_protocol.Serve
module Client = Tessera_protocol.Client
module Spec = Tessera_faults.Spec
module Injector = Tessera_faults.Injector
module Modifier = Tessera_modifiers.Modifier
module Plan = Tessera_opt.Plan
module Prng = Tessera_util.Prng

let msg_testable = Alcotest.testable Message.pp Message.equal

let null_predictor _wid ~level:_ rows =
  Array.map (fun (_ : float array) -> Modifier.null) rows

(* a predictor that echoes features.(0) back inside the modifier, so a
   reply's owner is checkable end to end *)
let echo_predictor _wid ~level:_ rows =
  Array.map
    (fun (f : float array) ->
      Modifier.of_bits (Int64.of_float (if Array.length f > 0 then f.(0) else 0.0)))
    rows

let predict ?(tag = 0.0) level =
  Message.Predict
    { level; features = [| tag; 1.0; 2.0 |]; trace = Tracectx.none }

(* ------------------------------------------------------------------ *)
(* Conn                                                                *)
(* ------------------------------------------------------------------ *)

let test_conn_partial_frames () =
  let a, b = Channel.pipe_pair () in
  let conn = Conn.create ~id:0 b in
  let wire = Message.encode (predict Plan.Hot) in
  let half = String.length wire / 2 in
  Channel.write a (String.sub wire 0 half);
  Alcotest.(check int) "half a frame yields nothing" 0
    (List.length (Conn.pump conn));
  Channel.write a (String.sub wire half (String.length wire - half));
  (match Conn.pump conn with
  | [ Conn.Msg m ] ->
      Alcotest.check msg_testable "reassembled" (predict Plan.Hot) m
  | evs -> Alcotest.fail (Printf.sprintf "expected 1 Msg, got %d events"
                            (List.length evs)));
  Alcotest.(check int) "no strikes" 0 (Conn.strikes conn)

let test_conn_garbage_resync () =
  let a, b = Channel.pipe_pair () in
  let conn = Conn.create ~id:0 b in
  let pump () =
    let events = Conn.pump conn in
    ( List.filter_map (function Conn.Msg m -> Some m | _ -> None) events,
      List.length
        (List.filter (function Conn.Strike _ -> true | _ -> false) events) )
  in
  Channel.write a "this is not a frame";
  Channel.write a (Message.encode Message.Ping);
  let msgs, strikes = pump () in
  Alcotest.(check (list msg_testable)) "frame after garbage decodes"
    [ Message.Ping ] msgs;
  Alcotest.(check bool) "garbage struck" true (strikes >= 1);
  (* a frame with a corrupted checksum, then a valid one: the bad frame
     is struck and skipped, the stream picks up at the next magic *)
  let bad = Bytes.of_string (Message.encode Message.Pong) in
  let last = Bytes.length bad - 1 in
  Bytes.set bad last (Char.chr (Char.code (Bytes.get bad last) lxor 1));
  Channel.write a (Bytes.to_string bad);
  Message.send a (Message.Init { model_name = "x" });
  let msgs, strikes = pump () in
  Alcotest.(check (list msg_testable)) "frame after a bad checksum decodes"
    [ Message.Init { model_name = "x" } ] msgs;
  Alcotest.(check bool) "bad checksum struck" true (strikes >= 1);
  Alcotest.(check bool) "still active" true (Conn.state conn = Conn.Active)

let test_conn_resync_exhaustion () =
  let a, b = Channel.pipe_pair () in
  let conn = Conn.create ~resync_budget:8 ~id:0 b in
  Channel.write a (String.make 64 'x');
  let events = Conn.pump conn in
  Alcotest.(check bool) "ends with Eof" true
    (match List.rev events with Conn.Eof :: _ -> true | _ -> false);
  Alcotest.(check bool) "closed" true (Conn.state conn = Conn.Closed);
  Alcotest.(check (list msg_testable)) "nothing decoded after close" []
    (List.filter_map (function Conn.Msg m -> Some m | _ -> None)
       (Conn.pump conn))

let test_conn_frame_cap () =
  let a, b = Channel.pipe_pair () in
  let conn = Conn.create ~id:0 b in
  for _ = 1 to 5 do Message.send a Message.Ping done;
  Alcotest.(check int) "capped at 2 frames" 2
    (List.length (Conn.pump ~max_frames:2 conn));
  Alcotest.(check int) "rest stays buffered" 3
    (List.length (Conn.pump conn))

(* ------------------------------------------------------------------ *)
(* Serve                                                               *)
(* ------------------------------------------------------------------ *)

let mk_engine ?(config = Serve.default_config) ?(predictor = null_predictor) ()
    =
  Serve.create ~config ~make_predictor:predictor ()

let attach engine =
  let server_end, client_end = Channel.pipe_pair () in
  match Serve.accept engine server_end with
  | Some conn -> (conn, client_end)
  | None -> Alcotest.fail "accept refused"

let drain_replies ch =
  let rx = Conn.create ~id:999 ch in
  List.filter_map (function Conn.Msg m -> Some m | _ -> None) (Conn.pump rx)

let tick_n engine n = for _ = 1 to n do ignore (Serve.tick engine) done

let test_serve_session () =
  let engine = mk_engine () in
  let _conn, ch = attach engine in
  Message.send ch (Message.Init { model_name = "t" });
  Message.send ch Message.Ping;
  Message.send ch (predict Plan.Warm);
  tick_n engine 3;
  Alcotest.(check (list msg_testable)) "handshake, pong, prediction"
    [ Message.Init_ok; Message.Pong;
      Message.Prediction { modifier = Modifier.null; trace = Tracectx.none } ]
    (drain_replies ch);
  Alcotest.(check int) "one prediction counted" 1
    (Serve.counters engine).Serve.predictions

let test_serve_backpressure_not_shed () =
  (* a connection that batches 6 predicts at a 2-deep bound is decoded
     two frames per tick — never shed, never lost *)
  let config =
    { Serve.default_config with Serve.per_conn_queue = 2; queue_hwm = 100 }
  in
  let engine = mk_engine ~config () in
  let _conn, ch = attach engine in
  for _ = 1 to 6 do Message.send ch (predict Plan.Hot) done;
  tick_n engine 10;
  let preds =
    List.length
      (List.filter
         (function Message.Prediction _ -> true | _ -> false)
         (drain_replies ch))
  in
  Alcotest.(check int) "all six answered" 6 preds;
  Alcotest.(check int) "none shed" 0 (Serve.counters engine).Serve.shed

let test_serve_global_hwm_sheds () =
  let config =
    {
      Serve.default_config with
      Serve.per_conn_queue = 8;
      queue_hwm = 2;
      workers = 1;
      max_batch = 2;
    }
  in
  let engine = mk_engine ~config () in
  let chans = List.init 6 (fun _ -> snd (attach engine)) in
  List.iter (fun ch -> Message.send ch (predict Plan.Hot)) chans;
  ignore (Serve.tick engine);
  let replies = List.concat_map drain_replies chans in
  let count p = List.length (List.filter p replies) in
  Alcotest.(check int) "overload answered, not silent" 4
    (count (function Message.Overloaded -> true | _ -> false));
  Alcotest.(check int) "shed counter agrees" 4
    (Serve.counters engine).Serve.shed;
  tick_n engine 3;
  Alcotest.(check int) "queued two still answered" 2
    ((Serve.counters engine).Serve.predictions)

let test_serve_error_budget () =
  let config = { Serve.default_config with Serve.max_protocol_errors = 3 } in
  let engine = mk_engine ~config () in
  let conn, ch = attach engine in
  (* client->server Pong is well-formed but contextually wrong *)
  for _ = 1 to 3 do
    Message.send ch Message.Pong;
    ignore (Serve.tick engine)
  done;
  Alcotest.(check bool) "still open inside the budget" true
    (Conn.state conn <> Conn.Closed);
  Message.send ch Message.Pong;
  ignore (Serve.tick engine);
  Alcotest.(check bool) "struck out past the budget" true
    (Conn.state conn = Conn.Closed);
  Alcotest.(check int) "struck_out counted" 1
    (Serve.counters engine).Serve.struck_out;
  let errors =
    List.filter
      (function Message.Error_msg _ -> true | _ -> false)
      (drain_replies ch)
  in
  Alcotest.(check bool) "every strike was answered" true
    (List.length errors >= 4)

(* One peer's frame whose length varint decodes to [min_int] costs that
   peer a strike; the engine keeps serving everyone else in the same
   ticks. *)
let test_serve_hostile_length () =
  let engine = mk_engine () in
  let hostile, hostile_ch = attach engine in
  let _honest, honest_ch = attach engine in
  Channel.write hostile_ch Helpers.negative_length_frame;
  Message.send honest_ch (Message.Init { model_name = "t" });
  Message.send honest_ch (predict Plan.Hot);
  tick_n engine 3;
  Alcotest.(check bool) "hostile peer struck" true (Conn.strikes hostile >= 1);
  Alcotest.(check (list msg_testable)) "honest peer answered"
    [ Message.Init_ok;
      Message.Prediction { modifier = Modifier.null; trace = Tracectx.none } ]
    (drain_replies honest_ch)

let test_serve_worker_restart () =
  let generation = ref 0 in
  let make_predictor _wid =
    incr generation;
    let gen = !generation in
    fun ~level:_ rows ->
      if gen = 1 then failwith "injected crash";
      Array.map (fun (_ : float array) -> Modifier.null) rows
  in
  let config = { Serve.default_config with Serve.workers = 1 } in
  let engine = Serve.create ~config ~make_predictor () in
  let _conn, ch = attach engine in
  Message.send ch (predict Plan.Hot);
  tick_n engine 3;
  Alcotest.(check int) "restarted once" 1
    (Serve.counters engine).Serve.worker_restarts;
  Alcotest.(check (list msg_testable)) "retried on the fresh worker"
    [ Message.Prediction { modifier = Modifier.null; trace = Tracectx.none } ]
    (drain_replies ch)

let test_serve_conn_shutdown () =
  let engine = mk_engine () in
  let conn, ch = attach engine in
  Message.send ch (predict Plan.Hot);
  Message.send ch Message.Shutdown;
  tick_n engine 3;
  Alcotest.(check (list msg_testable)) "queued predict answered before close"
    [ Message.Prediction { modifier = Modifier.null; trace = Tracectx.none } ]
    (drain_replies ch);
  Alcotest.(check bool) "connection retired" true
    (Conn.state conn = Conn.Closed);
  Alcotest.(check int) "engine roster empty" 0 (Serve.connection_count engine);
  Alcotest.(check int) "retirement counted exactly once" 1
    (Serve.counters engine).Serve.conns_closed

let test_serve_graceful_drain () =
  let config =
    { Serve.default_config with Serve.workers = 1; max_batch = 1 }
  in
  let engine = mk_engine ~config () in
  let clients = List.init 4 (fun _ -> attach engine) in
  List.iter (fun (_, ch) -> Message.send ch (predict Plan.Cold)) clients;
  ignore (Serve.tick engine) (* requests are queued *);
  Serve.drain engine;
  (* new connections are refused during drain, queued work is answered *)
  Alcotest.(check bool) "accept refused while draining" true
    (Serve.accept engine (fst (Channel.pipe_pair ())) = None);
  Alcotest.(check bool) "drain finishes in time" true
    (Serve.finish_drain ~deadline_s:5.0 engine);
  List.iter
    (fun (_, ch) ->
      let preds =
        List.filter
          (function Message.Prediction _ -> true | _ -> false)
          (drain_replies ch)
      in
      Alcotest.(check int) "queued request answered through drain" 1
        (List.length preds))
    clients;
  Alcotest.(check int) "every connection closed" 0
    (Serve.connection_count engine)

let test_serve_drain_deadline () =
  (* a virtual clock that jumps far past the deadline on every read
     makes the flush impossible: finish_drain must report false, not
     spin *)
  let vnow = ref 0.0 in
  let config =
    {
      Serve.default_config with
      Serve.workers = 1;
      max_batch = 1;
      now = (fun () -> vnow := !vnow +. 10.0; !vnow);
    }
  in
  let engine = mk_engine ~config () in
  let _conn, ch = attach engine in
  for _ = 1 to 4 do Message.send ch (predict Plan.Hot) done;
  ignore (Serve.tick engine);
  Alcotest.(check bool) "deadline exceeded is reported" false
    (Serve.finish_drain ~deadline_s:5.0 engine)

(* ------------------------------------------------------------------ *)
(* Cross-connection isolation (the satellite qcheck property)           *)
(* ------------------------------------------------------------------ *)

(* N concurrent connections, each with an independent fault spec, each
   tagging its requests with its own id: every Prediction a client
   manages to decode must carry its own tag — faults on neighbouring
   connections (or on its own!) may lose replies but never cross wires
   or corrupt a decoded one. *)
let test_isolation_property () =
  QCheck.Test.make ~count:40
    ~name:"fault-injected connections never corrupt each other's replies"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let n = 2 + Prng.int rng 6 in
      let config =
        { Serve.default_config with Serve.workers = 1 + Prng.int rng 3 }
      in
      let engine = Serve.create ~config ~make_predictor:echo_predictor () in
      let clients =
        Array.init n (fun i ->
            let server_end, client_end = Channel.pipe_pair () in
            let spec =
              {
                Spec.default with
                Spec.corrupt = Prng.float rng 0.4;
                garbage = Prng.float rng 0.3;
                drop = Prng.float rng 0.3;
              }
            in
            let wrapped =
              if i mod 2 = 0 then
                Injector.wrap_channel
                  (Injector.create
                     ~sleep:(fun _ -> ())
                     ~spec
                     ~seed:(Int64.of_int (seed + i))
                     ())
                  server_end
              else server_end
            in
            (match Serve.accept engine wrapped with
            | Some _ -> ()
            | None -> QCheck.Test.fail_report "accept refused");
            (client_end, Conn.create ~id:i client_end))
      in
      let ok = ref true in
      let rounds = 12 in
      for _ = 1 to rounds do
        Array.iteri
          (fun i (ch, _) ->
            try
              Message.send ch
                (Message.Predict
                   {
                     level = Plan.Hot;
                     features = [| float_of_int (i + 1); 0.0 |];
                     trace = Tracectx.none;
                   })
            with Channel.Closed -> ())
          clients;
        ignore (Serve.tick engine);
        Array.iteri
          (fun i (_, rx) ->
            List.iter
              (function
                | Conn.Msg (Message.Prediction { modifier; _ }) ->
                    if Modifier.to_bits modifier <> Int64.of_int (i + 1) then
                      ok := false
                | _ -> ())
              (Conn.pump rx))
          clients
      done;
      ignore (Serve.finish_drain ~deadline_s:5.0 engine);
      !ok)

(* ------------------------------------------------------------------ *)
(* Closes on a dead peer, descriptor serving without a listener, and    *)
(* client Overloaded                                                    *)
(* ------------------------------------------------------------------ *)

let test_serve_dead_peer_counted () =
  (* the server end crashes on its first write: the Init_ok reply finds
     the peer gone and the send closes the connection, which must be
     counted like every other close *)
  let engine = mk_engine () in
  let server_raw, client_ch = Channel.pipe_pair () in
  let inj =
    Injector.create ~spec:{ Spec.default with Spec.crash_after = Some 0 }
      ~seed:1L ()
  in
  ignore (Serve.accept engine (Injector.wrap_channel inj server_raw));
  Message.send client_ch (Message.Init { model_name = "t" });
  tick_n engine 2;
  let c = Serve.counters engine in
  Alcotest.(check int) "no open connection" 0 (Serve.connection_count engine);
  Alcotest.(check int) "accepted" 1 c.Serve.accepted;
  Alcotest.(check int) "the close is counted" 1 c.Serve.conns_closed

(* One pre-accepted connection over two Unix pipes; returns the client's
   end (reads replies, writes requests). *)
let attach_pipes engine =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let res_r, res_w = Unix.pipe ~cloexec:true () in
  (match Serve.accept engine (Channel.of_fds req_r res_w) with
  | Some _ -> ()
  | None -> Alcotest.fail "accept refused");
  Channel.of_fds res_r req_w

(* a stop that fires only after a generous bound, recording whether it
   was what ended the loop *)
let watchdog () =
  let fired = ref false in
  let deadline = Unix.gettimeofday () +. 10.0 in
  ( fired,
    fun () ->
      if Unix.gettimeofday () > deadline then fired := true;
      !fired )

let test_serve_fds_no_listener () =
  let engine = mk_engine ~predictor:echo_predictor () in
  let client = attach_pipes engine in
  Message.send client (Message.Init { model_name = "t" });
  Message.send client (predict ~tag:5.0 Plan.Warm);
  Message.send client Message.Shutdown;
  let fired, stop = watchdog () in
  Alcotest.(check bool) "drain verdict" true (Serve.serve_fds engine ~stop);
  Alcotest.(check bool) "the empty roster ended the loop" false !fired;
  Alcotest.(check int) "roster empty" 0 (Serve.connection_count engine);
  Alcotest.check msg_testable "handshake" Message.Init_ok
    (Helpers.recv client);
  Alcotest.check msg_testable "prediction"
    (Message.Prediction { modifier = Modifier.of_bits 5L; trace = Tracectx.none })
    (Helpers.recv client);
  Channel.close client

let test_serve_fds_stopped () =
  let engine = mk_engine () in
  let client = attach_pipes engine in
  Message.send client (predict Plan.Hot);
  Alcotest.(check bool) "drain verdict" true
    (Serve.serve_fds engine ~stop:(fun () -> true));
  Alcotest.(check int) "roster empty" 0 (Serve.connection_count engine);
  Alcotest.(check int) "the connection was closed" 1
    (Serve.counters engine).Serve.conns_closed;
  Alcotest.check_raises "the client sees end of stream" Channel.Closed
    (fun () -> ignore (Helpers.recv client));
  Channel.close client

let test_client_overloaded_fallback () =
  let server_ch, client_ch = Channel.pipe_pair () in
  (* a server that answers the handshake but sheds every prediction *)
  let lockstep () =
    match Helpers.recv server_ch with
    | Message.Init _ -> Message.send server_ch Message.Init_ok
    | Message.Predict _ -> Message.send server_ch Message.Overloaded
    | _ -> ()
  in
  let client = Client.connect ~model_name:"t" ~lockstep client_ch in
  (match Client.predict_result client ~level:Plan.Hot ~features:[| 1.0 |] with
  | Client.Fallback Client.Overloaded -> ()
  | Client.Predicted _ -> Alcotest.fail "predicted instead of falling back"
  | Client.Fallback f -> Alcotest.fail ("wrong failure: " ^ Client.failure_name f)
  | Client.Breaker_skip -> Alcotest.fail "breaker skipped the request");
  let c = Client.counters client in
  Alcotest.(check int) "overloaded counted" 1 c.Client.overloaded;
  Alcotest.(check int) "shed requests are not retried into the overload" 0
    c.Client.retries

let suite =
  List.map QCheck_alcotest.to_alcotest [ test_isolation_property () ]
  @ [
      Alcotest.test_case "conn: partial frames reassemble" `Quick
        test_conn_partial_frames;
      Alcotest.test_case "conn: garbage strikes, then resyncs" `Quick
        test_conn_garbage_resync;
      Alcotest.test_case "conn: resync exhaustion closes" `Quick
        test_conn_resync_exhaustion;
      Alcotest.test_case "conn: frame cap leaves input buffered" `Quick
        test_conn_frame_cap;
      Alcotest.test_case "serve: handshake, ping, predict" `Quick
        test_serve_session;
      Alcotest.test_case "serve: batched sends backpressure, not shed" `Quick
        test_serve_backpressure_not_shed;
      Alcotest.test_case "serve: global high-water mark sheds Overloaded"
        `Quick test_serve_global_hwm_sheds;
      Alcotest.test_case "serve: protocol error budget closes the peer"
        `Quick test_serve_error_budget;
      Alcotest.test_case "serve: a negative frame length strikes one peer only"
        `Quick test_serve_hostile_length;
      Alcotest.test_case "serve: crashed worker restarts, batch retried"
        `Quick test_serve_worker_restart;
      Alcotest.test_case "serve: per-connection shutdown flushes then closes"
        `Quick test_serve_conn_shutdown;
      Alcotest.test_case "serve: graceful drain answers queued work" `Quick
        test_serve_graceful_drain;
      Alcotest.test_case "serve: drain deadline is honoured" `Quick
        test_serve_drain_deadline;
      Alcotest.test_case "serve: a dead peer's close is counted" `Quick
        test_serve_dead_peer_counted;
      Alcotest.test_case "serve_fds: no listener, serves until the roster empties"
        `Quick test_serve_fds_no_listener;
      Alcotest.test_case "serve_fds: no listener, stopped at once, drains"
        `Quick test_serve_fds_stopped;
      Alcotest.test_case "client: Overloaded reply reaches the wire" `Quick
        test_client_overloaded_fallback;
    ]

(* ------------------------------------------------------------------ *)
(* Request tracing through the serving engine                           *)
(* ------------------------------------------------------------------ *)

module Trace = Tessera_obs.Trace

let with_trace f =
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ();
      Trace.clear_cycle_source ())
    f

let trace_arg e =
  match List.assoc_opt "trace" e.Trace.args with
  | Some (Trace.Int i) -> Some (Int64.to_int i)
  | _ -> None

let rec cycles_monotone = function
  | a :: (b :: _ as rest) ->
      Int64.compare a.Trace.cycles b.Trace.cycles <= 0 && cycles_monotone rest
  | _ -> true

(* One lockstep client over one engine: the client's end-to-end
   [request] root and the server's queue/batch/predict/reply children
   share a trace id and the engine's virtual clock. *)
let test_traced_request_full_tree () =
  with_trace (fun () ->
      let engine = mk_engine () in
      Trace.set_cycle_source (fun () -> Serve.vcycles engine);
      let _conn, ch = attach engine in
      let client =
        Client.connect ~model_name:"traced"
          ~lockstep:(fun () -> tick_n engine 4)
          ch
      in
      ignore (Client.predict client ~level:Plan.Warm ~features:[| 1.0; 2.0 |]);
      let events = Trace.events () in
      let roots =
        List.filter
          (fun e -> e.Trace.cat = "protocol" && e.Trace.name = "request")
          events
      in
      (match roots with
      | [ b; e ] ->
          Alcotest.(check bool) "root opens then closes" true
            (b.Trace.ph = Trace.Span_begin && e.Trace.ph = Trace.Span_end)
      | l ->
          Alcotest.failf "expected one request B/E pair, got %d events"
            (List.length l));
      let root_trace =
        match trace_arg (List.hd roots) with
        | Some id -> id
        | None -> Alcotest.fail "request span carries no trace id"
      in
      List.iter
        (fun name ->
          let spans =
            List.filter
              (fun e -> e.Trace.cat = "serve" && e.Trace.name = name)
              events
          in
          Alcotest.(check int) (name ^ " has a B/E pair") 2
            (List.length spans);
          List.iter
            (fun e ->
              Alcotest.(check (option int)) (name ^ " shares the trace id")
                (Some root_trace) (trace_arg e))
            spans)
        [ "queue_wait"; "batch_wait"; "predict"; "reply" ];
      Alcotest.(check bool) "server spans ride a monotone virtual clock" true
        (cycles_monotone
           (List.filter (fun e -> e.Trace.cat = "serve") events)))

(* qcheck: across a mixed fleet (several clients, varying request
   counts, optional garbage preamble, untraced traffic interleaved),
   every accepted traced request yields exactly one well-formed span
   tree, and untraced requests emit nothing. *)
let test_span_tree_property () =
  QCheck.Test.make ~count:25
    ~name:"every accepted traced request yields a well-formed span tree"
    QCheck.(pair (list_of_size Gen.(1 -- 4) (int_bound 3)) bool)
    (fun (fleet, garbage) ->
      with_trace (fun () ->
          let engine = mk_engine ~predictor:echo_predictor () in
          Trace.set_cycle_source (fun () -> Serve.vcycles engine);
          let sent = ref [] in
          List.iteri
            (fun i n ->
              let _conn, ch = attach engine in
              if garbage && i = 0 then Channel.write ch "not a frame at all";
              for k = 1 to n do
                let ctx = Tracectx.fresh () in
                sent := ctx.Tracectx.trace_id :: !sent;
                Message.send ch
                  (Message.Predict
                     {
                       level = Plan.levels.(k mod Array.length Plan.levels);
                       features = [| float_of_int k; 1.0 |];
                       trace = ctx;
                     })
              done;
              (* untraced traffic must not emit serve spans *)
              Message.send ch (predict Plan.Cold))
            fleet;
          tick_n engine 40;
          let serve_evs =
            List.filter (fun e -> e.Trace.cat = "serve") (Trace.events ())
          in
          let ids =
            List.sort_uniq compare (List.filter_map trace_arg serve_evs)
          in
          let expected = List.sort_uniq compare !sent in
          if ids <> expected then
            QCheck.Test.fail_reportf
              "span trace ids disagree with sent ids: %d vs %d"
              (List.length ids) (List.length expected)
          else
            List.for_all
              (fun id ->
                let evs =
                  List.filter (fun e -> trace_arg e = Some id) serve_evs
                in
                let count name ph =
                  List.length
                    (List.filter
                       (fun e -> e.Trace.name = name && e.Trace.ph = ph)
                       evs)
                in
                let pair_of name =
                  count name Trace.Span_begin = 1
                  && count name Trace.Span_end = 1
                in
                let starts_queued =
                  match evs with
                  | e :: _ ->
                      e.Trace.name = "queue_wait"
                      && e.Trace.ph = Trace.Span_begin
                  | [] -> false
                in
                pair_of "queue_wait" && pair_of "batch_wait"
                && pair_of "predict" && pair_of "reply"
                && count "request_dropped" Trace.Instant = 0
                && starts_queued && cycles_monotone evs)
              expected))

(* ------------------------------------------------------------------ *)
(* SLO burn rate                                                        *)
(* ------------------------------------------------------------------ *)

(* The burn-rate window is a delta against the oldest retained
   latency-histogram snapshot, so requests must land after the first
   tick to be counted — spread them over rounds. *)
let run_slo_fleet advance =
  let now = ref 0.0 in
  let config =
    {
      Serve.default_config with
      Serve.now =
        (fun () ->
          let t = !now in
          now := t +. advance;
          t);
      slo_objective_s = 0.01;
      slo_target = 0.9;
      slo_window = 16;
    }
  in
  let engine = mk_engine ~config () in
  let _conn, ch = attach engine in
  for _ = 1 to 4 do
    Message.send ch (predict Plan.Warm);
    Message.send ch (predict Plan.Warm);
    ignore (Serve.tick engine)
  done;
  ignore (Serve.tick engine);
  Serve.slo_burn_rate engine

let test_slo_burn_rate () =
  Alcotest.(check (float 1e-9)) "fast answers burn nothing" 0.0
    (run_slo_fleet 1e-6);
  Alcotest.(check bool) "slow answers burn past the budget" true
    (run_slo_fleet 0.05 > 1.0)

let suite =
  suite
  @ [
      Alcotest.test_case "traced request renders a full span tree" `Quick
        test_traced_request_full_tree;
      QCheck_alcotest.to_alcotest (test_span_tree_property ());
      Alcotest.test_case "slo burn rate tracks the latency objective"
        `Quick test_slo_burn_rate;
    ]
