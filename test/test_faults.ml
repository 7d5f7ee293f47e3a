(* The fault-injection subsystem and the resilience layers it exercises:
   spec parsing, chunked channel semantics, frame integrity (CRC +
   resync), the hardened client's retry/breaker behaviour, and the JIT
   engine's degradation ladder. *)

open Helpers
module Channel = Tessera_protocol.Channel
module Message = Tessera_protocol.Message
module Tracectx = Tessera_protocol.Tracectx
module Client = Tessera_protocol.Client
module Spec = Tessera_faults.Spec
module Injector = Tessera_faults.Injector
module Engine = Tessera_jit.Engine
module Compiler = Tessera_jit.Compiler
module Plan = Tessera_opt.Plan
module Modifier = Tessera_modifiers.Modifier
module Program = Tessera_il.Program
module Prng = Tessera_util.Prng

let parse_exn s =
  match Spec.parse s with
  | Ok spec -> spec
  | Error e -> Alcotest.fail (Printf.sprintf "spec %S rejected: %s" s e)

(* ---------- spec parsing ---------- *)

let test_spec_parse () =
  let s = parse_exn "drop:0.01,corrupt:0.005,delay:50,crash_after:200" in
  Alcotest.(check (float 1e-9)) "drop" 0.01 s.Spec.drop;
  Alcotest.(check (float 1e-9)) "corrupt" 0.005 s.Spec.corrupt;
  Alcotest.(check int) "delay" 50 s.Spec.delay_ms;
  Alcotest.(check (option int)) "crash_after" (Some 200) s.Spec.crash_after;
  Alcotest.(check (option int)) "revive_after" None s.Spec.revive_after;
  Alcotest.(check bool) "empty is default" true (Spec.parse "" = Ok Spec.default);
  Alcotest.(check bool) "default is null" true (Spec.is_null Spec.default);
  Alcotest.(check bool) "parsed is not null" false (Spec.is_null s);
  (* round-trip through the printer *)
  Alcotest.(check bool) "to_string round-trips" true
    (Spec.parse (Spec.to_string s) = Ok s);
  (* alias *)
  let d = parse_exn "duplicate:0.25" in
  Alcotest.(check (float 1e-9)) "duplicate alias" 0.25 d.Spec.dup;
  (* rejects *)
  List.iter
    (fun bad ->
      match Spec.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "spec %S accepted" bad)
      | Error _ -> ())
    [ "nope:1"; "drop:1.5"; "drop:-0.1"; "drop"; "crash_after:x" ]

let test_spec_no_crash () =
  let s = parse_exn "drop:0.5,crash_after:10,revive_after:5" in
  let s' = Spec.no_crash s in
  Alcotest.(check (option int)) "crash stripped" None s'.Spec.crash_after;
  Alcotest.(check (option int)) "revive stripped" None s'.Spec.revive_after;
  Alcotest.(check (float 1e-9)) "rest kept" 0.5 s'.Spec.drop

(* ---------- channel chunk semantics ---------- *)

let test_channel_chunking () =
  let a, b = Channel.pipe_pair () in
  Channel.write a "ab";
  Channel.write a "cdef";
  Channel.write a "g";
  Alcotest.(check string) "read across chunks" "abc" (Channel.read_avail b 3);
  Alcotest.(check string) "read remainder" "defg" (Channel.read_avail b 4);
  Channel.write a "xyz";
  (* a read asking for more than is buffered returns what is there *)
  Alcotest.(check string) "short read returns the buffer" "xyz"
    (Channel.read_avail b 5);
  Alcotest.(check string) "nothing buffered" "" (Channel.read_avail b 1);
  Channel.write a "tail";
  Alcotest.(check int) "drain counts" 4 (Channel.drain b);
  Alcotest.(check string) "nothing left after drain" "" (Channel.read_avail b 1);
  Channel.close a;
  Alcotest.check_raises "closed after close" Channel.Closed (fun () ->
      ignore (Channel.read_avail b 1))

let test_channel_stream_integrity () =
  (* random interleaving of writes and reads must reproduce the exact
     byte stream (guards the chunk-queue cursor arithmetic) *)
  let rng = Prng.create 99L in
  let a, b = Channel.pipe_pair () in
  let sent = Buffer.create 4096 and got = Buffer.create 4096 in
  let pending = ref 0 in
  for _ = 1 to 1000 do
    if Prng.bernoulli rng 0.6 then begin
      let n = 1 + Prng.int rng 40 in
      let s = String.init n (fun _ -> Char.chr (Prng.int rng 256)) in
      Channel.write a s;
      Buffer.add_string sent s;
      pending := !pending + n
    end
    else begin
      let n = 1 + Prng.int rng 60 in
      if n <= !pending then begin
        Buffer.add_string got (Channel.read_avail b n);
        pending := !pending - n
      end
    end
  done;
  if !pending > 0 then Buffer.add_string got (Channel.read_avail b !pending);
  Alcotest.(check bool) "stream integrity" true
    (Buffer.contents sent = Buffer.contents got)

(* ---------- frame integrity ---------- *)

(* Any single bit flip anywhere in a frame must end in a rejected frame
   ([Scan_bad], or end of stream while a corrupted length waits for
   bytes that never come) — never in a silently different message. *)
let test_bit_flips_never_decode () =
  let messages =
    [
      Message.Ping;
      Message.Init { model_name = "H3" };
      Message.Predict
        { level = Plan.Hot; features = [| 0.25; -1.0; 3.5 |];
          trace = Tracectx.none };
      Message.Prediction
        { modifier = Modifier.of_disabled [ 3; 41 ]; trace = Tracectx.none };
    ]
  in
  List.iter
    (fun m ->
      let frame = Message.encode m in
      for bit = 0 to (String.length frame * 8) - 1 do
        let flipped = Bytes.of_string frame in
        let i = bit / 8 in
        Bytes.set flipped i
          (Char.chr (Char.code (Bytes.get flipped i) lxor (1 lsl (bit mod 8))));
        let a, b = Channel.pipe_pair () in
        Channel.write a (Bytes.to_string flipped);
        Channel.close a;
        match recv b with
        | m' ->
            Alcotest.fail
              (Format.asprintf "bit %d flip of %a decoded as %a" bit Message.pp
                 m Message.pp m')
        | exception (Bad_frame _ | Channel.Closed) -> ()
      done)
    messages

(* ---------- client resilience ---------- *)

let lockstep_config =
  { Client.default_config with Client.log = ignore }

(* A full client/server session over an in-memory pipe pair with
   injectors on both endpoints, advanced in lockstep. *)
let session ?(config = lockstep_config) ?(requests = 40) ~spec ~seed () =
  let server_raw, client_raw = Channel.pipe_pair () in
  let server_inj = Injector.create ~spec ~seed () in
  let client_inj =
    Injector.create ~spec:(Spec.no_crash spec) ~seed:(Int64.add seed 1L) ()
  in
  let server_ch = Injector.wrap_channel server_inj server_raw in
  let client_ch = Injector.wrap_channel client_inj client_raw in
  let lockstep = lockstep_server server_ch in
  let client = Client.connect ~model_name:"faulty" ~lockstep ~config client_ch in
  let outcomes =
    List.init requests (fun i ->
        Client.predict_result client ~level:Plan.Hot
          ~features:(Array.make (1 + (i mod 7)) 0.25))
  in
  (client, outcomes, server_inj, client_inj)

let check_counter_invariant client =
  let k = Client.counters client in
  Alcotest.(check int) "predicted+fallbacks+skips = requests"
    k.Client.requests
    (k.Client.predicted + k.Client.fallbacks + k.Client.breaker_skips)

let fault_matrix =
  [
    "drop:0.3";
    "corrupt:0.3";
    "garbage:0.2";
    "dup:0.3";
    "drop:0.1,corrupt:0.1,dup:0.1,garbage:0.1";
    "drop:0.05,corrupt:0.02,crash_after:6,revive_after:9";
    "crash_after:1";
  ]

let test_client_survives_fault_matrix () =
  List.iter
    (fun spec_str ->
      let spec = parse_exn spec_str in
      List.iter
        (fun seed ->
          let client, outcomes, _, _ = session ~spec ~seed () in
          check_counter_invariant client;
          Alcotest.(check int)
            (Printf.sprintf "all outcomes resolved (%s)" spec_str)
            40 (List.length outcomes))
        [ 1L; 2L; 3L ])
    fault_matrix

let test_clean_session_all_predicted () =
  let client, outcomes, _, _ = session ~spec:Spec.default ~seed:1L () in
  check_counter_invariant client;
  Alcotest.(check bool) "all predicted" true
    (List.for_all
       (function Client.Predicted _ -> true | _ -> false)
       outcomes);
  let k = Client.counters client in
  Alcotest.(check int) "no fallbacks" 0 k.Client.fallbacks;
  Alcotest.(check int) "no retries" 0 k.Client.retries

let test_failure_classes_distinguished () =
  (* pure corruption must be counted as malformed/timeouts, never
     misfiled under closed or server_errors (moderate rate so the
     handshake itself survives) *)
  let spec = parse_exn "corrupt:0.15" in
  let client, _, server_inj, client_inj = session ~spec ~seed:5L () in
  let k = Client.counters client in
  let corrupted =
    (Injector.stats server_inj).Injector.corrupted
    + (Injector.stats client_inj).Injector.corrupted
  in
  Alcotest.(check bool) "some frames were corrupted" true (corrupted > 0);
  Alcotest.(check bool) "corruption detected" true
    (k.Client.malformed + k.Client.timeouts > 0);
  Alcotest.(check int) "no closed" 0 k.Client.closed;
  Alcotest.(check int) "no server errors" 0 k.Client.server_errors

let outcome_string = function
  | Client.Predicted m ->
      "p" ^ String.concat "," (List.map string_of_int (Modifier.disabled_indices m))
  | Client.Fallback f -> "f" ^ Client.failure_name f
  | Client.Breaker_skip -> "s"

let test_injector_deterministic () =
  let run () =
    let spec = parse_exn "drop:0.2,corrupt:0.2,dup:0.1,crash_after:8,revive_after:6" in
    let client, outcomes, server_inj, client_inj = session ~spec ~seed:7L () in
    ( Format.asprintf "%a" Client.pp_counters (Client.counters client),
      Format.asprintf "%a" Injector.pp_stats (Injector.stats server_inj),
      Format.asprintf "%a" Injector.pp_stats (Injector.stats client_inj),
      List.map outcome_string outcomes )
  in
  Alcotest.(check bool) "same seed, same session" true (run () = run ())

(* Known answers for the client's failure handling: every [fault_matrix]
   session at seeds 1-3, digested over the client's counters and
   outcomes and both injectors' stats.  The client injector's [reads] is
   left out: it counts how the client reads its channel, not how it
   classifies a reply.  A timeout filed as malformed, or a retry that
   stops happening, moves the digest; reading in bigger chunks does
   not. *)
let fault_matrix_digest = "5fd538529b9a9e1592573630f7b3d67e"

let test_fault_matrix_known_answers () =
  let session_text spec_str seed =
    let client, outcomes, server_inj, client_inj =
      session ~spec:(parse_exn spec_str) ~seed ()
    in
    let client_stats = { (Injector.stats client_inj) with Injector.reads = 0 } in
    String.concat "\n"
      [
        Format.asprintf "%s seed %Ld" spec_str seed;
        Format.asprintf "%a" Client.pp_counters (Client.counters client);
        String.concat " " (List.map outcome_string outcomes);
        Format.asprintf "%a" Injector.pp_stats (Injector.stats server_inj);
        Format.asprintf "%a" Injector.pp_stats client_stats;
      ]
  in
  let text =
    String.concat "\n"
      (List.concat_map
         (fun spec_str ->
           List.map (session_text spec_str) [ 1L; 2L; 3L ])
         fault_matrix)
  in
  Alcotest.(check string) "fault-matrix sessions digest" fault_matrix_digest
    (Digest.to_hex (Digest.string text))

let test_breaker_trips_and_recovers () =
  (* deterministic crash at the server's 6th frame; first half-open ping
     revives it (and is consumed by the restart), the second finds it
     alive and closes the breaker again *)
  let spec = parse_exn "crash_after:5,revive_after:16" in
  let config = { lockstep_config with Client.breaker_cooldown = 4 } in
  let client, _, server_inj, _ = session ~config ~requests:30 ~spec ~seed:1L () in
  check_counter_invariant client;
  let k = Client.counters client in
  let s = Injector.stats server_inj in
  Alcotest.(check bool) "server crashed" true (s.Injector.crashes >= 1);
  Alcotest.(check bool) "server revived" true (s.Injector.revivals >= 1);
  Alcotest.(check bool) "breaker tripped" true (k.Client.breaker_trips >= 1);
  Alcotest.(check bool) "breaker half-opened" true
    (k.Client.breaker_half_opens >= 2);
  Alcotest.(check bool) "breaker recovered" true
    (k.Client.breaker_recoveries >= 1);
  Alcotest.(check bool) "skips while open" true (k.Client.breaker_skips > 0);
  Alcotest.(check bool) "predictions resumed after recovery" true
    (k.Client.predicted > 4)

let test_connect_survives_dead_server () =
  (* no lockstep at all: the handshake times out, the client comes up
     with the breaker open and every prediction falls back *)
  let _, client_raw = Channel.pipe_pair () in
  let client =
    Client.connect ~model_name:"dead" ~config:lockstep_config client_raw
  in
  Alcotest.(check bool) "breaker open after failed handshake" true
    (Client.breaker_state client = Client.Breaker_open);
  (match Client.predict_result client ~level:Plan.Cold ~features:[| 1.0 |] with
  | Client.Breaker_skip -> ()
  | Client.Fallback _ -> ()
  | Client.Predicted _ -> Alcotest.fail "predicted against a dead server");
  check_counter_invariant client

(* ---------- backoff jitter ---------- *)

let test_backoff_full_jitter () =
  (* full jitter: every delay is uniform in (0, capped] seconds — never
     zero (a zero sleep would hammer a struggling server), never above
     the exponential cap, and actually jittered (not a constant) *)
  QCheck.Test.make ~count:100 ~name:"backoff delay is full jitter in (0, cap]"
    (QCheck.make
       QCheck.Gen.(triple (int_range 1 1000) (int_range 1 5000) (int_bound 20)))
    (fun (base_ms, max_ms, attempt) ->
      let config =
        {
          lockstep_config with
          Client.backoff_base_ms = float_of_int base_ms;
          backoff_max_ms = float_of_int max_ms;
          jitter_seed = Int64.of_int ((base_ms * 7919) + attempt);
        }
      in
      (* a dead server: connect fails fast and leaves a usable client *)
      let _, client_raw = Channel.pipe_pair () in
      let client = Client.connect ~model_name:"jitter" ~config client_raw in
      let capped_s =
        Float.min
          (float_of_int base_ms *. (2.0 ** float_of_int attempt))
          (float_of_int max_ms)
        /. 1000.0
      in
      let draws = List.init 32 (fun _ -> Client.backoff_delay client attempt) in
      List.for_all (fun d -> d > 0.0 && d <= capped_s) draws
      && List.exists (fun d -> d <> List.hd draws) draws)

(* ---------- engine degradation ---------- *)

let sync_config =
  { Engine.default_config with Engine.async_compile = false }

let test_engine_quarantines_failing_compiles () =
  let p = gen_program 42L in
  let meth_id = p.Program.entry in
  let callbacks =
    {
      Engine.no_callbacks with
      Engine.pre_compile = Some (fun _ ~meth_id:_ ~level:_ -> failwith "injected");
    }
  in
  let e = Engine.create ~config:sync_config ~callbacks p in
  Engine.request_compile e ~meth_id ~level:Plan.Cold ();
  Engine.request_compile e ~meth_id ~level:Plan.Cold ();
  Alcotest.(check int) "both attempts failed" 2 (Engine.compile_failures e);
  Alcotest.(check int) "nothing installed" 0 (Engine.compile_count e);
  Alcotest.(check int) "method quarantined" 1 (Engine.quarantined_methods e);
  Alcotest.(check bool) "no_more set" true (Engine.state e meth_id).Engine.no_more;
  (* the program still runs, interpreted *)
  match Engine.invoke_entry e (entry_args 0) with
  | Ok _ | Error _ -> ()

let test_engine_budget_degrades () =
  let p = gen_program 42L in
  let meth_id = p.Program.entry in
  let cold =
    Compiler.compile ~program:p ~level:Plan.Cold (Program.meth p meth_id)
  in
  (* budget = exactly the cold compile: higher levels are rejected and
     degrade down the ladder until something fits *)
  let config =
    { sync_config with Engine.compile_cycle_budget = Some cold.Compiler.compile_cycles }
  in
  let e = Engine.create ~config p in
  Engine.request_compile e ~meth_id ~level:Plan.Scorching ();
  Alcotest.(check int) "exactly one compile installed" 1 (Engine.compile_count e);
  Alcotest.(check bool) "over-budget plans rejected" true
    (Engine.budget_rejections e >= 1);
  Alcotest.(check bool) "degraded down the ladder" true
    (Engine.degraded_compiles e >= 1);
  Alcotest.(check int) "not quarantined" 0 (Engine.quarantined_methods e)

let test_engine_budget_exhausted_stays_interpreted () =
  let p = gen_program 42L in
  let meth_id = p.Program.entry in
  let config = { sync_config with Engine.compile_cycle_budget = Some 0 } in
  let e = Engine.create ~config p in
  Engine.request_compile e ~meth_id ~level:Plan.Scorching ();
  Alcotest.(check int) "nothing fits a zero budget" 0 (Engine.compile_count e);
  Alcotest.(check int) "quarantined" 1 (Engine.quarantined_methods e);
  (* full ladder was tried: one rejection per level *)
  Alcotest.(check int) "five rejections" 5 (Engine.budget_rejections e);
  Alcotest.(check int) "four degradations" 4 (Engine.degraded_compiles e);
  match Engine.invoke_entry e (entry_args 0) with
  | Ok _ | Error _ -> ()

let test_engine_modifier_fallback () =
  let p = gen_program 42L in
  let meth_id = p.Program.entry in
  let callbacks =
    {
      Engine.no_callbacks with
      Engine.choose_modifier =
        Some (fun _ ~meth_id:_ ~level:_ -> failwith "predictor exploded");
    }
  in
  let e = Engine.create ~config:sync_config ~callbacks p in
  Engine.request_compile e ~meth_id ~level:Plan.Cold ();
  Alcotest.(check int) "fell back to default plan" 1 (Engine.modifier_fallbacks e);
  Alcotest.(check int) "compile still happened" 1 (Engine.compile_count e)

(* ---------- end to end: engine + faulty protocol ---------- *)

let test_engine_over_faulty_protocol () =
  (* the whole ladder at once: JIT engine consulting a model server over
     an in-memory pipe with drops, corruption, and a mid-session server
     crash — the run must complete with every compilation landing under
     either the predicted or the default plan *)
  let spec = parse_exn "drop:0.05,corrupt:0.03,garbage:0.02,crash_after:5,revive_after:16" in
  List.iter
    (fun seed ->
      let p = gen_program 77L in
      let server_raw, client_raw = Channel.pipe_pair () in
      let server_inj = Injector.create ~spec ~seed () in
      let client_inj =
        Injector.create ~spec:(Spec.no_crash spec) ~seed:(Int64.add seed 1L) ()
      in
      let server_ch = Injector.wrap_channel server_inj server_raw in
      let client_ch = Injector.wrap_channel client_inj client_raw in
      let client =
        Client.connect ~model_name:"e2e" ~lockstep:(lockstep_server server_ch)
          ~config:lockstep_config client_ch
      in
      let choose _engine ~meth_id:_ ~level =
        Some (Client.predict client ~level ~features:(Array.make 4 0.5))
      in
      let e =
        Engine.create
          ~config:{ Engine.default_config with Engine.trigger_scale = 0.01 }
          ~callbacks:
            { Engine.no_callbacks with Engine.choose_modifier = Some choose }
          p
      in
      for k = 0 to 24 do
        match Engine.invoke_entry e (entry_args k) with
        | Ok _ | Error _ -> ()
      done;
      check_counter_invariant client;
      let k = Client.counters client in
      Alcotest.(check bool) "model was consulted" true (k.Client.requests > 0);
      Alcotest.(check bool) "methods still compiled" true
        (Engine.methods_compiled e > 0))
    [ 1L; 2L; 3L ]

let suite =
  [
    Alcotest.test_case "spec parsing" `Quick test_spec_parse;
    Alcotest.test_case "spec no_crash" `Quick test_spec_no_crash;
    Alcotest.test_case "channel chunking" `Quick test_channel_chunking;
    Alcotest.test_case "channel stream integrity" `Quick
      test_channel_stream_integrity;
    Alcotest.test_case "bit flips never decode" `Quick
      test_bit_flips_never_decode;
    Alcotest.test_case "client survives fault matrix" `Quick
      test_client_survives_fault_matrix;
    Alcotest.test_case "clean session all predicted" `Quick
      test_clean_session_all_predicted;
    Alcotest.test_case "failure classes distinguished" `Quick
      test_failure_classes_distinguished;
    Alcotest.test_case "injector deterministic" `Quick
      test_injector_deterministic;
    Alcotest.test_case "fault-matrix sessions: known answers" `Quick
      test_fault_matrix_known_answers;
    Alcotest.test_case "breaker trips and recovers" `Quick
      test_breaker_trips_and_recovers;
    Alcotest.test_case "connect survives dead server" `Quick
      test_connect_survives_dead_server;
    QCheck_alcotest.to_alcotest (test_backoff_full_jitter ());
    Alcotest.test_case "engine quarantines failing compiles" `Quick
      test_engine_quarantines_failing_compiles;
    Alcotest.test_case "engine budget degrades" `Quick
      test_engine_budget_degrades;
    Alcotest.test_case "engine zero budget stays interpreted" `Quick
      test_engine_budget_exhausted_stays_interpreted;
    Alcotest.test_case "engine modifier fallback" `Quick
      test_engine_modifier_fallback;
    Alcotest.test_case "engine over faulty protocol" `Quick
      test_engine_over_faulty_protocol;
  ]
