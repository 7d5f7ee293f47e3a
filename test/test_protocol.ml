module Channel = Tessera_protocol.Channel
module Message = Tessera_protocol.Message
module Tracectx = Tessera_protocol.Tracectx
module Serve = Tessera_protocol.Serve
module Client = Tessera_protocol.Client
module Modifier = Tessera_modifiers.Modifier
module Plan = Tessera_opt.Plan
module Prng = Tessera_util.Prng

let msg_testable = Alcotest.testable Message.pp Message.equal

let roundtrip m =
  let a, b = Channel.pipe_pair () in
  Message.send a m;
  Helpers.recv b

let test_message_roundtrips () =
  List.iter
    (fun m -> Alcotest.check msg_testable "roundtrip" m (roundtrip m))
    [
      Message.Init { model_name = "H3" };
      Message.Init_ok;
      Message.Predict
        { level = Plan.Warm; features = [| 0.0; 0.5; 1.0 |];
          trace = Tracectx.none };
      Message.Predict { level = Plan.Cold; features = [||]; trace = Tracectx.none };
      Message.Prediction
        { modifier = Modifier.of_disabled [ 0; 17; 57 ]; trace = Tracectx.none };
      Message.Ping;
      Message.Pong;
      Message.Shutdown;
      Message.Error_msg "boom";
    ]

let test_message_random_roundtrips () =
  QCheck.Test.make ~count:100 ~name:"random predict frames roundtrip"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let m =
        Message.Predict
          {
            level = Prng.choose rng Plan.levels;
            features = Array.init (Prng.int rng 71) (fun _ -> Prng.float rng 1.0);
            trace = Tracectx.none;
          }
      in
      Message.equal m (roundtrip m))

module Codec = Tessera_util.Codec

(* A hand-built frame (magic, tag, length varint, payload, CRC-32 LE)
   with an honest checksum, so a test can reach the checks that run
   after the CRC: the tag, the payload and the trace tail. *)
let frame ~tag payload =
  let body = Buffer.create 64 in
  Codec.write_u8 body tag;
  Codec.write_varint body (String.length payload);
  Buffer.add_string body payload;
  let body = Buffer.contents body in
  let crc = Tessera_util.Crc32.string body in
  let crc_le =
    String.init 4 (fun i ->
        Char.chr
          (Int32.to_int
             (Int32.logand (Int32.shift_right_logical crc (8 * i)) 0xFFl)))
  in
  "\xa7" ^ body ^ crc_le

(* A well-formed traced frame to put after a frame under test: the
   verdict on the first frame must not depend on the bytes that follow
   it in the buffer. *)
let valid_frame =
  Message.encode
    (Message.Predict
       {
         level = Plan.Hot;
         features = [| 0.25; 0.5; 0.75 |];
         trace = { Tracectx.trace_id = 9; span_id = 9 };
       })

let test_malformed_detected () =
  let check_bad what want s =
    List.iter
      (fun (what, s) ->
        match Message.scan s ~pos:0 with
        | Message.Scan_bad why -> Alcotest.(check string) what want why
        | Message.Scan_msg (m, _) ->
            Alcotest.failf "%s: decoded as %s" what
              (Format.asprintf "%a" Message.pp m)
        | Message.Scan_need_more ->
            Alcotest.failf "%s: waited for more bytes" what)
      [ (what, s); (what ^ ", then a valid frame", s ^ valid_frame) ]
  in
  check_bad "unknown tag" "unknown tag 42" (frame ~tag:42 "");
  (* a predict frame that claims 3 features and carries none *)
  let claims_three = Buffer.create 4 in
  Codec.write_varint claims_three (Plan.level_index Plan.Hot);
  Codec.write_varint claims_three 3;
  check_bad "truncated payload" "truncated payload: feature"
    (frame ~tag:3 (Buffer.contents claims_three));
  (* the length alone rejects the frame: no waiting for 1 MiB of payload *)
  let oversized = Buffer.create 8 in
  Buffer.add_char oversized Message.magic;
  Codec.write_u8 oversized 3;
  Codec.write_varint oversized ((1 lsl 20) + 1);
  check_bad "oversized frame" "oversized frame" (Buffer.contents oversized);
  check_bad "negative length" "oversized frame" Helpers.negative_length_frame

let test_server_client_session () =
  let server_ch, client_ch = Channel.pipe_pair () in
  let served = ref 0 in
  let failing = ref false in
  let predict features =
    if !failing then failwith "model exploded";
    incr served;
    Modifier.of_disabled [ Array.length features mod 58 ]
  in
  let engine =
    Serve.create ~make_predictor:(fun _ ~level:_ rows -> Array.map predict rows) ()
  in
  let lockstep = Serve.lockstep engine server_ch in
  let client = Client.connect ~model_name:"test" ~lockstep client_ch in
  Alcotest.(check bool) "ping" true (Client.ping client);
  let m = Client.predict client ~level:Plan.Hot ~features:(Array.make 5 0.1) in
  Alcotest.(check (list int)) "predicted modifier" [ 5 ]
    (Modifier.disabled_indices m);
  Alcotest.(check int) "served one predict" 1 !served;
  (* a predictor exception becomes Error_msg and the client falls back *)
  failing := true;
  Message.send client_ch
    (Message.Predict { level = Plan.Hot; features = [||]; trace = Tracectx.none });
  lockstep ();
  (match Helpers.recv client_ch with
  | Message.Error_msg _ -> ()
  | other -> Alcotest.fail (Format.asprintf "expected error, got %a" Message.pp other));
  (* shutdown ends the session: the connection closes *)
  Message.send client_ch Message.Shutdown;
  lockstep ();
  Alcotest.(check int) "shutdown closes the connection" 0
    (Serve.connection_count engine);
  Alcotest.(check int) "one connection, closed once" 1
    (Serve.counters engine).Serve.conns_closed

let test_fifo_two_process () =
  let dir = Filename.get_temp_dir_name () in
  let path_a = Filename.concat dir (Printf.sprintf "tsr_test_%d.a" (Unix.getpid ())) in
  let path_b = Filename.concat dir (Printf.sprintf "tsr_test_%d.b" (Unix.getpid ())) in
  let open_a, open_b = Channel.fifo_pair ~path_a ~path_b in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with _ -> ()) [ path_a; path_b ])
    (fun () ->
      match Unix.fork () with
      | 0 ->
          (* child: echo server over real named pipes, the pair served as
             one pre-accepted connection *)
          let engine =
            Serve.create
              ~make_predictor:(fun _ ~level:_ rows ->
                Array.map
                  (fun features -> Modifier.of_disabled [ Array.length features ])
                  rows)
              ()
          in
          ignore (Serve.accept engine (open_a ()));
          Unix._exit (if Serve.serve_fds engine ~stop:(fun () -> false) then 0 else 1)
      | pid ->
          let ch = open_b () in
          let client = Client.connect ~model_name:"fifo" ch in
          let m = Client.predict client ~level:Plan.Cold ~features:(Array.make 7 0.0) in
          Alcotest.(check (list int)) "fifo prediction" [ 7 ]
            (Modifier.disabled_indices m);
          Client.shutdown client;
          let _, status = Unix.waitpid [] pid in
          Alcotest.(check bool) "server exited" true (status = Unix.WEXITED 0))

(* The client against a descriptor peer that answers slowly: the reply
   frame arrives as two writes 20 ms apart, well inside the deadline, so
   the client must wait for the second half rather than time out. *)
let test_client_split_reply () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let res_r, res_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close res_r;
      let ch = Channel.of_fds req_r res_w in
      (* the child must never return into the test runner *)
      let status =
        try
          match Helpers.recv ch with
          | Message.Init _ -> (
              Message.send ch Message.Init_ok;
              match Helpers.recv ch with
              | Message.Predict { features; _ } ->
                  let reply =
                    Message.encode
                      (Message.Prediction
                         {
                           modifier = Modifier.of_disabled [ Array.length features ];
                           trace = Tracectx.none;
                         })
                  in
                  let half = String.length reply / 2 in
                  Channel.write ch (String.sub reply 0 half);
                  Unix.sleepf 0.02;
                  Channel.write ch
                    (String.sub reply half (String.length reply - half));
                  (try ignore (Helpers.recv ch) with _ -> ());
                  0
              | _ -> 2)
          | _ -> 1
        with _ -> 3
      in
      Unix._exit status
  | pid ->
      Unix.close req_r;
      Unix.close res_w;
      let ch = Channel.of_fds res_r req_w in
      let client =
        Client.connect ~model_name:"slow"
          ~config:{ Client.default_config with Client.log = ignore }
          ch
      in
      (match Client.predict_result client ~level:Plan.Hot ~features:(Array.make 3 0.5) with
      | Client.Predicted m ->
          Alcotest.(check (list int)) "prediction" [ 3 ]
            (Modifier.disabled_indices m)
      | Client.Fallback f -> Alcotest.fail ("fell back: " ^ Client.failure_name f)
      | Client.Breaker_skip -> Alcotest.fail "breaker skipped the request");
      let k = Client.counters client in
      Alcotest.(check int) "no retries" 0 k.Client.retries;
      Alcotest.(check int) "no timeouts" 0 k.Client.timeouts;
      Client.shutdown client;
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "peer exited 0" true (status = Unix.WEXITED 0)

(* The client against descriptors nobody answers: each of the three
   handshake attempts waits out its deadline, then the client comes up
   with the breaker open instead of hanging.  Handshake failures are
   retried but not filed under a failure class, so the attempts show as
   two retries and the time spent. *)
let test_client_silent_peer () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let res_r, res_w = Unix.pipe ~cloexec:true () in
  let deadline_ms = 50 in
  let config =
    { Client.default_config with Client.deadline_ms; log = ignore }
  in
  let t0 = Unix.gettimeofday () in
  let client = Client.connect ~model_name:"silent" ~config (Channel.of_fds res_r req_w) in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "breaker open" true
    (Client.breaker_state client = Client.Breaker_open);
  Alcotest.(check int) "three attempts" 2 (Client.counters client).Client.retries;
  Alcotest.(check bool) "waited out every deadline" true
    (elapsed >= 3.0 *. float_of_int deadline_ms /. 1000.0);
  Alcotest.(check bool) "well under 5 s" true (elapsed < 5.0);
  Client.shutdown client;
  List.iter Unix.close [ req_r; res_w ]

(* A reply whose length varint decodes negative is a malformed reply,
   retried and then a fallback: never an exception out of the client. *)
let test_client_hostile_reply () =
  let server_ch, client_ch = Channel.pipe_pair () in
  let lockstep () =
    match Helpers.recv server_ch with
    | Message.Init _ -> Message.send server_ch Message.Init_ok
    | Message.Predict _ -> Channel.write server_ch Helpers.negative_length_frame
    | _ -> ()
  in
  let config = { Client.default_config with Client.log = ignore } in
  let client = Client.connect ~model_name:"t" ~config ~lockstep client_ch in
  (match Client.predict_result client ~level:Plan.Hot ~features:[| 1.0 |] with
  | Client.Fallback Client.Malformed -> ()
  | Client.Predicted _ -> Alcotest.fail "predicted from a hostile reply"
  | Client.Fallback f -> Alcotest.fail ("wrong failure: " ^ Client.failure_name f)
  | Client.Breaker_skip -> Alcotest.fail "breaker skipped the request");
  let c = Client.counters client in
  Alcotest.(check int) "every attempt malformed" (1 + c.Client.retries)
    c.Client.malformed;
  Alcotest.(check int) "nothing unexpected" 0 c.Client.unexpected

let test_channel_close () =
  let a, b = Channel.pipe_pair () in
  Channel.close a;
  Alcotest.check_raises "read after close" Channel.Closed (fun () ->
      ignore (Channel.read_avail b 1))

(* a descriptor read copies out only the bytes it read: a 64 KiB cap must
   not cost a 64 KiB buffer per call *)
let test_read_avail_allocation () =
  let r, w = Unix.pipe ~cloexec:true () in
  let ch = Channel.of_fds r w in
  Fun.protect
    ~finally:(fun () -> Channel.close ch)
    (fun () ->
      Channel.write ch "warm!";
      Alcotest.(check string) "warm-up read" "warm!" (Channel.read_avail ch 65536);
      Channel.write ch "hello";
      Gc.minor ();
      let _, _, major0 = Gc.counters () in
      let got = Channel.read_avail ch 65536 in
      let _, _, major1 = Gc.counters () in
      Alcotest.(check string) "pending bytes" "hello" got;
      Alcotest.(check bool) "under 1024 major words" true
        (major1 -. major0 < 1024.0))

let suite =
  [
    Alcotest.test_case "message roundtrips" `Quick test_message_roundtrips;
    QCheck_alcotest.to_alcotest (test_message_random_roundtrips ());
    Alcotest.test_case "malformed frames detected" `Quick test_malformed_detected;
    Alcotest.test_case "server/client session" `Quick test_server_client_session;
    Alcotest.test_case "two-process FIFO" `Quick test_fifo_two_process;
    Alcotest.test_case "client: reply split across two writes" `Quick
      test_client_split_reply;
    Alcotest.test_case "client: silent descriptor peer times out" `Quick
      test_client_silent_peer;
    Alcotest.test_case "client: negative-length reply is malformed" `Quick
      test_client_hostile_reply;
    Alcotest.test_case "channel close" `Quick test_channel_close;
    Alcotest.test_case "channel: read_avail allocates only what it reads"
      `Quick test_read_avail_allocation;
  ]

(* ------------------------------------------------------------------ *)
(* Trace context                                                       *)
(* ------------------------------------------------------------------ *)

let test_tracectx_roundtrip () =
  let t = Tracectx.fresh () in
  let c = Tracectx.child t in
  Alcotest.(check bool) "fresh is traced" false (Tracectx.is_none t);
  Alcotest.(check bool) "child keeps the trace id" true
    (c.Tracectx.trace_id = t.Tracectx.trace_id);
  Alcotest.(check bool) "child gets a new span id" true
    (c.Tracectx.span_id <> t.Tracectx.span_id);
  List.iter
    (fun ctx ->
      let buf = Buffer.create 16 in
      Tracectx.write buf ctx;
      let r = Codec.reader_of_string (Buffer.contents buf) in
      Alcotest.(check bool) "write/read_opt roundtrip" true
        (Tracectx.equal ctx (Tracectx.read_opt r)))
    [ t; c ];
  let r = Codec.reader_of_string "" in
  Alcotest.(check bool) "end of payload reads as untraced" true
    (Tracectx.is_none (Tracectx.read_opt r))

let test_traced_message_roundtrips () =
  let ctx = Tracectx.fresh () in
  List.iter
    (fun m -> Alcotest.check msg_testable "traced roundtrip" m (roundtrip m))
    [
      Message.Predict { level = Plan.Warm; features = [| 1.0 |]; trace = ctx };
      Message.Prediction
        { modifier = Modifier.null; trace = Tracectx.child ctx };
    ]

(* A CRC-valid frame whose trailing trace bytes are garbage must decode
   as an untraced request — never a strike.  The frame is built by
   [frame] so the trace bytes can be corrupted while the checksum stays
   honest. *)
let predict_frame_with_tail tail =
  let payload = Buffer.create 32 in
  Codec.write_varint payload (Plan.level_index Plan.Warm);
  Codec.write_varint payload 2;
  Codec.write_f64 payload 1.5;
  Codec.write_f64 payload 2.5;
  Buffer.add_string payload tail;
  frame ~tag:3 (Buffer.contents payload)

let test_garbage_trace_degrades () =
  List.iter
    (fun (what, tail) ->
      let frame = predict_frame_with_tail tail in
      List.iter
        (fun (what, buf) ->
          match Message.scan buf ~pos:0 with
          | Message.Scan_msg (Message.Predict { features; trace; _ }, consumed)
            ->
              Alcotest.(check int) (what ^ ": whole frame consumed")
                (String.length frame) consumed;
              Alcotest.(check int) (what ^ ": features intact") 2
                (Array.length features);
              Alcotest.(check bool) (what ^ ": degrades to untraced") true
                (Tracectx.is_none trace)
          | Message.Scan_msg (m, _) ->
              Alcotest.failf "%s: unexpected message %s" what
                (Format.asprintf "%a" Message.pp m)
          | Message.Scan_need_more -> Alcotest.failf "%s: need more" what
          | Message.Scan_bad e -> Alcotest.failf "%s: struck: %s" what e)
        [ (what, frame); (what ^ ", then a valid frame", frame ^ valid_frame) ])
    [
      ("truncated varint", "\xff\xff\xff");
      ("zero trace id", "\x00\x05");
      ("half a context", "\x07");
    ]

let suite =
  suite
  @ [
      Alcotest.test_case "trace context roundtrip" `Quick
        test_tracectx_roundtrip;
      Alcotest.test_case "traced messages roundtrip" `Quick
        test_traced_message_roundtrips;
      Alcotest.test_case "garbage trace context degrades to untraced" `Quick
        test_garbage_trace_degrades;
    ]
