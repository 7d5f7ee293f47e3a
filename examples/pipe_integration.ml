(* The two-process integration of Section 7: the machine-learned model
   runs in a separate process and the compiler queries it over named
   pipes, so models can be swapped without changing the compiler.

   This example forks a model-server child, connects the JIT's
   strategy-control hook to the protocol client, runs a benchmark, and
   shuts the server down.  It exits non-zero unless the server child
   exited 0.

   Run with: dune exec examples/pipe_integration.exe *)

module Harness = Tessera_harness
module Suites = Tessera_workloads.Suites
module Engine = Tessera_jit.Engine
module Values = Tessera_vm.Values
module Channel = Tessera_protocol.Channel
module Client = Tessera_protocol.Client
module Serve = Tessera_protocol.Serve
module Features = Tessera_features.Features

let () =
  let cfg = Harness.Expconfig.quick in
  (* a quick model from one benchmark's data *)
  let outcome =
    Harness.Collection.collect_bench ~cfg (List.hd Suites.training_set)
  in
  let ms = Harness.Training.train_on_all ~name:"piped" [ outcome ] in

  let dir = Filename.get_temp_dir_name () in
  let req = Filename.concat dir "tessera_example.req" in
  let res = Filename.concat dir "tessera_example.res" in
  let open_server, open_client = Channel.fifo_pair ~path_a:req ~path_b:res in

  match Unix.fork () with
  | 0 ->
      (* child: the model server, serving the pipe pair as its one
         connection until the client shuts it down *)
      let ch = open_server () in
      let server =
        Serve.create
          ~make_predictor:(fun _ -> Harness.Modelset.server_batch_predictor ms)
          ()
      in
      ignore (Serve.accept server ch);
      exit (if Serve.serve_fds server ~stop:(fun () -> false) then 0 else 1)
  | child_pid ->
      let ch = open_client () in
      let client = Client.connect ~model_name:"piped" ch in
      Format.printf "connected to model server (pid %d), ping: %b@." child_pid
        (Client.ping client);

      (* strategy control queries the external model for every compile *)
      let choose_modifier engine ~meth_id ~level =
        let m =
          Tessera_il.Program.meth (Engine.program engine) meth_id
        in
        let features =
          Array.map float_of_int (Features.to_array (Features.extract m))
        in
        Some (Client.predict client ~level ~features)
      in
      let bench = Option.get (Suites.find "jack") in
      let program = Tessera_workloads.Generate.program bench.Suites.profile in
      let engine =
        Engine.create
          ~callbacks:
            { Engine.no_callbacks with Engine.choose_modifier = Some choose_modifier }
          program
      in
      for k = 0 to bench.Suites.iteration_invocations - 1 do
        ignore (Engine.invoke_entry engine [| Values.Int_v (Int64.of_int k) |])
      done;
      Format.printf
        "ran %s with the piped model: %Ld app cycles, %d compilations@."
        bench.Suites.profile.Tessera_workloads.Profile.name
        (Engine.app_cycles engine)
        (Engine.compile_count engine);
      Client.shutdown client;
      match Unix.waitpid [] child_pid with
      | _, Unix.WEXITED 0 -> Format.printf "server exited cleanly@."
      | _ ->
          Format.printf "server did not exit cleanly@.";
          exit 1
