(* Model server: answers Predict requests (Section 7 of the paper).

   One serving loop, [Tessera_protocol.Serve], in two deployment shapes:

   - named pipes (default, the paper's setup): the IN_FIFO/OUT_FIFO pair
     is one connection, accepted once a client opens both ends; serving
     ends when that client shuts down or goes away;

   - --socket PATH: many concurrent clients over a Unix domain socket,
     accepted as they connect, until SIGTERM/SIGINT.

   Both get bounded queues with backpressure, load-shedding (Overloaded)
   past the high-water mark, per-connection error budgets, batched SVM
   prediction, supervised prediction workers, the SLO burn-rate gauge,
   and a deadline-bounded graceful drain on SIGTERM/SIGINT.

   --fault-spec wraps each connection in its own deterministic fault
   injector: connection k (counting from 0, so the FIFO pair is
   connection 0) is seeded N+k for --fault-seed N.  The resilience of
   real clients can then be exercised: dropped/corrupted responses,
   delays, and a simulated crash.

   Exit status: 0 if the drain completed within --drain-deadline and no
   injector simulated a crash, 1 otherwise. *)

open Cmdliner
module Harness = Tessera_harness
module Channel = Tessera_protocol.Channel
module Serve = Tessera_protocol.Serve
module Spec = Tessera_faults.Spec
module Injector = Tessera_faults.Injector
module Codecache = Tessera_cache.Codecache

(* The serving deployment owns the shared code-cache directory: verify
   it at startup (every frame is CRC-checked on open) and, unless
   read-only, compact away any damage or garbage found, so compiler
   clients warm-start from a scrubbed store. *)
let scrub_code_cache dir capacity_mb readonly =
  let c = Codecache.create ~dir ~capacity_mb ~readonly () in
  Format.printf "code cache %s: %d entries, %d bytes, %a%s@." dir
    (Codecache.entry_count c) (Codecache.byte_size c) Codecache.pp_counters
    (Codecache.counters c)
    (if readonly then " (readonly)" else "");
  Codecache.close c

let dump_metrics metrics_out =
  (* the same exposition a live client gets from a Stats_req, dumped for
     post-mortem scraping *)
  Option.iter
    (fun path ->
      Tessera_util.Fileio.atomic_write ~path
        (Tessera_obs.Metrics.expose Tessera_obs.Metrics.default))
    metrics_out

(* Opening a FIFO blocks until the client opens the other end.  A
   SIGTERM meanwhile interrupts the open: stop waiting for a client then
   ([None]); retry any other interruption. *)
let rec open_fifo ~stop path flag =
  match Unix.openfile path [ flag ] 0 with
  | fd -> Some fd
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if !stop then None else open_fifo ~stop path flag

let open_fifos ~stop in_fifo out_fifo =
  List.iter
    (fun p ->
      (try Unix.unlink p with Unix.Unix_error _ -> ());
      Unix.mkfifo p 0o600)
    [ in_fifo; out_fifo ];
  Printf.printf "serving: reading %s, writing %s\n%!" in_fifo out_fifo;
  match open_fifo ~stop in_fifo Unix.O_RDONLY with
  | None -> None
  | Some fin -> (
      match open_fifo ~stop out_fifo Unix.O_WRONLY with
      | None ->
          Unix.close fin;
          None
      | Some fout -> Some (Channel.of_fds fin fout))

let listen_on path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX path);
  Unix.listen listen 128;
  listen

let run model_dir in_fifo out_fifo socket fault_spec fault_seed code_cache_dir
    code_cache_mb code_cache_readonly resync_budget max_protocol_errors
    max_conns per_conn_queue queue_hwm workers drain_deadline slo_objective
    slo_target metrics_out =
  (* a client that vanishes mid-write must surface as Channel.Closed
     (EPIPE), not kill the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Option.iter
    (fun dir -> scrub_code_cache dir code_cache_mb code_cache_readonly)
    code_cache_dir;
  let ms = Harness.Modelset.load ~name:"server" ~dir:model_dir in
  let stop = ref false in
  let on_signal _ = stop := true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  let config =
    {
      Serve.default_config with
      Serve.resync_budget;
      max_protocol_errors;
      max_conns;
      per_conn_queue;
      queue_hwm;
      workers;
      drain_deadline_s = drain_deadline;
      slo_objective_s = slo_objective;
      slo_target;
    }
  in
  let engine =
    Serve.create ~config
      ~make_predictor:(fun _ -> Harness.Modelset.server_batch_predictor ms)
      ()
  in
  (* request spans are stamped on the serving engine's virtual clock;
     register it so any other events this process emits share the axis *)
  Tessera_obs.Trace.set_cycle_source (fun () -> Serve.vcycles engine);
  (* connection k (from 0) gets its own deterministic injector, seeded
     N+k, so a faulty client's stream is independent of its neighbours' *)
  let injectors = ref [] in
  let wrap ch =
    match fault_spec with
    | None -> ch
    | Some spec ->
        let seed = fault_seed + List.length !injectors in
        let inj =
          Injector.create ~sleep:Unix.sleepf ~spec ~seed:(Int64.of_int seed) ()
        in
        injectors := (seed, inj) :: !injectors;
        Injector.wrap_channel inj ch
  in
  Option.iter
    (fun spec ->
      Printf.printf "injecting faults per connection: %s (base seed %d)\n%!"
        (Spec.to_string spec) fault_seed)
    fault_spec;
  let clean =
    match socket with
    | Some path ->
        let listen = listen_on path in
        Printf.printf "serving on %s (%d workers, hwm %d, error cap %d)\n%!"
          path workers queue_hwm max_protocol_errors;
        let clean =
          Serve.serve_fds engine ~listen ~wrap ~stop:(fun () -> !stop)
        in
        (try Unix.close listen with Unix.Unix_error _ -> ());
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        clean
    | None ->
        (* the FIFO pair is one connection, accepted before the loop *)
        Option.iter
          (fun ch -> ignore (Serve.accept engine (wrap ch)))
          (open_fifos ~stop in_fifo out_fifo);
        Serve.serve_fds engine ~stop:(fun () -> !stop)
  in
  dump_metrics metrics_out;
  let crashed =
    List.fold_left
      (fun crashed (seed, inj) ->
        let s = Injector.stats inj in
        Format.printf "%s: seed=%d %a@."
          (if s.Injector.crashes > 0 then "simulated crash" else "injected faults")
          seed Injector.pp_stats s;
        crashed || s.Injector.crashes > 0)
      false (List.rev !injectors)
  in
  Format.printf "drain %s: %a@."
    (if clean then "complete" else "DEADLINE EXCEEDED")
    Serve.pp_counters (Serve.counters engine);
  Format.printf "slo: objective %.4fs target %.3f, final burn rate %.3f@."
    slo_objective slo_target
    (Serve.slo_burn_rate engine);
  if clean && not crashed then 0 else 1

let model_dir =
  Arg.(required & pos 0 (some dir) None & info [] ~docv:"MODEL_DIR"
         ~doc:"Model-set directory (from tessera_train).")

let in_fifo =
  Arg.(value & opt string "/tmp/tessera.req" & info [ "in" ] ~docv:"FIFO"
         ~doc:"Request pipe (created; ignored with --socket).")

let out_fifo =
  Arg.(value & opt string "/tmp/tessera.res" & info [ "out" ] ~docv:"FIFO"
         ~doc:"Response pipe (created; ignored with --socket).")

let socket =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Serve many concurrent clients over a Unix domain socket at \
               PATH instead of one client over the FIFO pair.  Serving \
               runs until SIGTERM or SIGINT.")

let spec_conv =
  Arg.conv
    ( (fun s ->
        match Spec.parse s with Ok v -> Ok v | Error e -> Error (`Msg e)),
      fun fmt s -> Format.pp_print_string fmt (Spec.to_string s) )

let fault_spec =
  Arg.(value & opt (some spec_conv) None & info [ "fault-spec" ] ~docv:"SPEC"
         ~doc:"Inject faults into every served connection, e.g. \
               drop:0.02,corrupt:0.01,crash_after:500.  Each connection \
               gets an independent injector; a simulated crash makes the \
               exit status 1.")

let fault_seed =
  Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"N"
         ~doc:"Base PRNG seed of the fault injectors: connection k, \
               counting from 0, uses seed N+k (the FIFO pair keeps N).")

let code_cache_dir =
  Arg.(value & opt (some string) None & info [ "code-cache" ] ~docv:"DIR"
         ~doc:"Verify (and unless read-only, compact) the shared \
               compiled-code cache at startup before serving.")

let code_cache_mb =
  Arg.(value & opt int 64 & info [ "code-cache-mb" ] ~docv:"MB"
         ~doc:"Capacity enforced while scrubbing the code cache.")

let code_cache_readonly =
  Arg.(value & flag & info [ "code-cache-readonly" ]
         ~doc:"Verify the code cache without rewriting it.")

let resync_budget =
  Arg.(value & opt int 4096 & info [ "resync-budget" ] ~docv:"BYTES"
         ~doc:"Bytes a connection may scan for the next frame magic between \
               two good frames before it is declared unsalvageable and \
               closed.")

let max_protocol_errors =
  Arg.(value & opt int 16 & info [ "max-protocol-errors" ] ~docv:"N"
         ~doc:"Protocol errors (malformed frames, unexpected messages) a \
               connection may accumulate before it is closed.")

let max_conns =
  Arg.(value & opt int 4096 & info [ "max-conns" ] ~docv:"N"
         ~doc:"Connection cap; accepts past it are answered Overloaded and \
               closed (--socket only).")

let per_conn_queue =
  Arg.(value & opt int 8 & info [ "per-conn-queue" ] ~docv:"N"
         ~doc:"Per-connection queued-request bound; a connection at its \
               bound is not read until replies drain (backpressure).")

let queue_hwm =
  Arg.(value & opt int 1024 & info [ "queue-hwm" ] ~docv:"N"
         ~doc:"Global queue high-water mark; Predict requests above it are \
               answered Overloaded (load shedding).")

let workers =
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
         ~doc:"Supervised prediction workers; a crashed worker is restarted \
               without dropping connections.")

let drain_deadline =
  Arg.(value & opt float 5.0 & info [ "drain-deadline" ] ~docv:"SECONDS"
         ~doc:"Bound on the graceful drain at shutdown (SIGTERM, SIGINT, \
               or the FIFO client leaving); exit status 1 if the queued \
               requests are not answered in time.")

let slo_objective =
  Arg.(value & opt float 0.01 & info [ "slo-objective" ] ~docv:"SECONDS"
         ~doc:"Latency objective of the serving SLO: a request answered \
               slower than this counts against the error budget.")

let slo_target =
  Arg.(value & opt float 0.99 & info [ "slo-target" ] ~docv:"FRACTION"
         ~doc:"Fraction of requests that must meet --slo-objective; the \
               rolling burn rate (error fraction over budget) is exported \
               as the serve_slo_burn_rate gauge and via stats requests.")

let metrics_out =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
         ~doc:"Write the server's Prometheus metrics exposition to FILE at \
               shutdown (the same text a client receives for a stats \
               request).")

let cmd =
  Cmd.v
    (Cmd.info "tessera_server"
       ~doc:"Serve a trained model set over named pipes or a Unix socket")
    Term.(const run $ model_dir $ in_fifo $ out_fifo $ socket $ fault_spec
          $ fault_seed $ code_cache_dir $ code_cache_mb $ code_cache_readonly
          $ resync_budget $ max_protocol_errors $ max_conns $ per_conn_queue
          $ queue_hwm $ workers $ drain_deadline $ slo_objective $ slo_target
          $ metrics_out)

let () = exit (Cmd.eval' cmd)
