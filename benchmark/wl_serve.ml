(* serve: the model server over a Unix socket, with no program execution
   at all — the codec, Conn, Serve and SVM prediction do all the work.

   A forked child runs Serve.serve_fds with the set-up model.  This
   process holds two closed-loop connections: [latency] keeps one request
   in flight, as a JIT compile thread blocked on its answer does, and
   [bulk] keeps sixteen.  Feature rows are the raw features of every
   method of the seeded programs, with levels cycling cold, warm, hot;
   every reply must equal the in-process prediction for its row. *)

open Common
module Serve = Tessera_protocol.Serve
module Conn = Tessera_protocol.Conn
module Channel = Tessera_protocol.Channel
module Message = Tessera_protocol.Message
module Plan = Tessera_opt.Plan
module Modifier = Tessera_modifiers.Modifier
module Features = Tessera_features.Features
module Metrics = Tessera_obs.Metrics

let bulk_window = 16
let levels = [| Plan.Cold; Plan.Warm; Plan.Hot |]

(* a connection that makes no progress this long has failed *)
let stall_s = 10.0

(* the benchmark's program under a generator seed mixed with the run's:
   a new program of the same shape *)
let seeded (b : Suites.bench) seed =
  let p = b.Suites.profile in
  let seed = Hash64.int64 (Hash64.int64 Hash64.init p.Profile.seed) seed in
  { b with Suites.profile = { p with Profile.seed } }

type row = { level : Plan.level; features : float array; expect : Modifier.t }

let rows ~seed model =
  List.concat_map
    (fun b ->
      let p = generate (seeded b seed) in
      List.init (Program.method_count p) (fun i ->
          Ledger.span "features.extract" (fun () ->
              Features.extract ~program:p (Program.meth p i))))
    Suites.all
  |> List.mapi (fun i f ->
         let level = levels.(i mod Array.length levels) in
         let features = Array.map float_of_int (Features.to_array f) in
         {
           level;
           features;
           expect = H.Modelset.server_predictor model ~level ~features;
         })
  |> Array.of_list

(* -- the server child ----------------------------------------------- *)

(* Serves until SIGTERM, or until this process's parent is gone, then
   writes its report to [report] and exits without running the parent's
   exit handlers.  It samples the host-speed kernel on its own core as it
   goes, and reports the samples. *)
let serve_child model ~parent ~listen ~report =
  Hostspeed.samples := [];
  let predict_s = ref 0.0 and batches = ref 0 and batch_rows = ref 0 in
  let make_predictor _ =
    let predict = H.Modelset.server_batch_predictor model in
    fun ~level feats ->
      let t0 = now () in
      let r = predict ~level feats in
      predict_s := !predict_s +. (now () -. t0);
      incr batches;
      batch_rows := !batch_rows + Array.length feats;
      r
  in
  let engine = Serve.create ~make_predictor () in
  let stop = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
  let clean =
    Serve.serve_fds engine ~listen ~wrap:Fun.id ~stop:(fun () ->
        Hostspeed.tick ();
        !stop || Unix.getppid () <> parent)
  in
  let c = Serve.counters engine in
  let h = Metrics.histogram Metrics.default "serve_latency_seconds" in
  let q p = if Metrics.histogram_count h = 0 then 0.0 else Metrics.quantile h p *. 1000.0 in
  let fields =
    [
      ("clean", Json.Bool clean);
      ("predictions", Json.int c.Serve.predictions);
      ("shed", Json.int c.Serve.shed);
      ("errors", Json.int c.Serve.errors);
      ("strikes", Json.int c.Serve.strikes);
      ("serve.server_cpu_s", Json.Num (cpu_s ()));
      ("serve.predict_s", Json.Num !predict_s);
      ("serve.batches", Json.int !batches);
      ("serve.rows_per_batch", Json.Num (Summary.ratio (float_of_int !batch_rows) (float_of_int !batches)));
      ("serve.server_latency_ms_p50", Json.Num (q 0.5));
      ("serve.server_latency_ms_p99", Json.Num (q 0.99));
      ("peak_rss_mb", Json.Num (peak_rss_mb ()));
      ("kernel", Json.Arr (List.map (fun d -> Json.Num d) !Hostspeed.samples));
    ]
  in
  let oc = Unix.out_channel_of_descr report in
  output_string oc (Json.to_string (Json.Obj fields));
  close_out oc;
  Unix._exit 0

let start_server model =
  let path = work_path "serve.sock" in
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX path);
  Unix.listen listen 8;
  let rd, wr = Unix.pipe ~cloexec:true () in
  let parent = Unix.getpid () in
  flush_all ();
  match Unix.fork () with
  | 0 -> (
      Unix.close rd;
      try serve_child model ~parent ~listen ~report:wr with _ -> Unix._exit 2)
  | pid ->
      Unix.close wr;
      Unix.close listen;
      (pid, path, rd)

(* SIGTERM starts the child's graceful drain; its report arrives on the
   pipe before it exits *)
let stop_server (pid, _, rd) =
  Unix.kill pid Sys.sigterm;
  let report = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  (report, status)

(* -- the client ----------------------------------------------------- *)

type client = {
  fd : Unix.file_descr;
  ch : Channel.t;
  conn : Conn.t;
  window : int;
  inflight : (int, float) Hashtbl.t;  (** request id -> send time *)
  mutable dead : bool;
}

let connect path id window =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ch = Channel.of_fds fd fd in
  Message.send ch (Message.Init { model_name = "benchmark" });
  { fd; ch; conn = Conn.create ~id ch; window; inflight = Hashtbl.create 32; dead = false }

(* Both connections for [seconds], then until every request is answered;
   returns the latency connection's request intervals, the answered
   count, and the interval of the whole. *)
let drive path rows ~seconds =
  let latency = connect path 0 1 and bulk = connect path 1 bulk_window in
  let clients = [ latency; bulk ] in
  let next_id = ref 0 in
  let lat = ref [] and answered = ref 0 in
  let fail = check false in
  let send c =
    incr next_id;
    let id = !next_id in
    let r = rows.(id mod Array.length rows) in
    Ledger.span "protocol.client_send" (fun () ->
        Message.send c.ch
          (Message.Predict
             {
               level = r.level;
               features = r.features;
               trace = { Tessera_protocol.Tracectx.trace_id = id; span_id = 1 };
             }));
    Hashtbl.replace c.inflight id (now ())
  in
  let receive c =
    let events = Conn.pump c.conn in
    List.iter
      (function
        | Conn.Msg (Message.Prediction { modifier; trace }) -> (
            let id = trace.Tessera_protocol.Tracectx.trace_id in
            match Hashtbl.find_opt c.inflight id with
            | None -> fail "reply to a request never sent"
            | Some t0 ->
                Hashtbl.remove c.inflight id;
                if c == latency then lat := (t0, now ()) :: !lat;
                incr answered;
                check
                  (Modifier.equal modifier rows.(id mod Array.length rows).expect)
                  "reply differs from the in-process prediction")
        | Conn.Msg Message.Init_ok -> ()
        | Conn.Msg m ->
            (* shed or error: the oldest request of this connection failed *)
            fail (Format.asprintf "server answered %a" Message.pp m);
            (match Hashtbl.fold (fun id _ acc -> min id acc) c.inflight max_int with
            | id when id < max_int -> Hashtbl.remove c.inflight id
            | _ -> ())
        | Conn.Strike why -> fail ("protocol error: " ^ why)
        | Conn.Eof -> c.dead <- true)
      events
  in
  let busy () = List.exists (fun c -> not c.dead && Hashtbl.length c.inflight > 0) clients in
  let t0, t1 =
    stage "measure" (fun () ->
        Hostspeed.sample ();
        let t0 = now () and cpu0 = cpu_s () in
        let deadline = t0 +. seconds in
        let last_progress = ref t0 in
        while (now () < deadline || busy ()) && now () -. !last_progress < stall_s do
          (* the host-speed kernel runs only while no latency request is
             in flight, so that it never adds to a measured latency *)
          if Hashtbl.length latency.inflight = 0 then Hostspeed.tick ();
          if now () < deadline then
            List.iter
              (fun c ->
                while (not c.dead) && Hashtbl.length c.inflight < c.window do
                  send c
                done)
              clients;
          let readable, _, _ =
            Ledger.span "protocol.client_wait" (fun () ->
                try Unix.select (List.map (fun c -> c.fd) clients) [] [] 1.0
                with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], []))
          in
          if readable <> [] then last_progress := now ();
          List.iter
            (fun c ->
              if List.mem c.fd readable then
                Ledger.span "protocol.client_recv" (fun () -> receive c))
            clients
        done;
        let t1 = now () in
        measured_wall := t1 -. t0;
        measured_cpu := cpu_s () -. cpu0;
        (t0, t1))
  in
  List.iter
    (fun c ->
      Hashtbl.iter (fun _ _ -> fail "request never answered") c.inflight;
      (try Message.send c.ch Message.Shutdown with Channel.Closed -> ());
      Channel.close c.ch)
    clients;
  (!lat, !answered, t0, t1)

let run ~seed ~seconds =
  let (model, rows), setup_s =
    setup (fun () ->
        let model = setup_model ~seed in
        (model, rows ~seed model))
  in
  let server = start_server model in
  let _, path, _ = server in
  let (lat, answered, t0, t1), (report, status) =
    match drive path rows ~seconds with
    | r -> (r, stop_server server)
    | exception e ->
        ignore (stop_server server);
        raise e
  in
  let server_layer, server_rss, server_kernel =
    match Tessera_obs.Export.parse_json report with
    | Ok (Json.Obj fields) ->
        let num k = match List.assoc_opt k fields with Some (Json.Num x) -> x | _ -> 0.0 in
        check (List.assoc_opt "clean" fields = Some (Json.Bool true)) "server drain missed its deadline";
        check (num "shed" = 0.0 && num "errors" = 0.0) "server shed or failed requests";
        check (num "predictions" = float_of_int answered) "server and client disagree on predictions";
        ( List.filter_map
            (fun (k, v) ->
              match v with
              | Json.Num x when String.contains k '.' -> Some (k, x)
              | _ -> None)
            fields
          @ [ ("serve.shed", num "shed"); ("serve.strikes", num "strikes") ],
          num "peak_rss_mb",
          match List.assoc_opt "kernel" fields with
          | Some (Json.Arr samples) ->
              List.filter_map (function Json.Num d -> Some d | _ -> None) samples
          | _ -> [] )
    | _ ->
        check false "no report from the server";
        ([], 0.0, [])
  in
  (* the server's core serves every request, so its speed counts too *)
  Hostspeed.samples := server_kernel @ !Hostspeed.samples;
  check (status = Unix.WEXITED 0) "server did not exit cleanly";
  check_digest ~workload:"serve" ~seed
    (Array.fold_left
       (fun h r -> Hash64.int64 h (Modifier.to_bits r.expect))
       Hash64.init rows);
  {
    setup_s;
    latencies_ms = Array.of_list (List.rev_map (fun (a, b) -> 1000.0 *. (b -. a)) lat);
    work = float_of_int answered;
    work_s = t1 -. t0;
    rss_mb = server_rss;
    layer = server_layer;
  }
