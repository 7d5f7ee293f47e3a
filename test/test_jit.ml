module Engine = Tessera_jit.Engine
module Compiler = Tessera_jit.Compiler
module Triggers = Tessera_jit.Triggers
module Plan = Tessera_opt.Plan
module Modifier = Tessera_modifiers.Modifier
module Program = Tessera_il.Program
module Values = Tessera_vm.Values
open Helpers

let test_compiler_modifier_effect () =
  let p = gen_program 555L in
  let m = Program.meth p 1 in
  let full = Compiler.compile ~program:p ~level:Plan.Hot m in
  let all_off =
    Compiler.compile
      ~modifier:(Modifier.of_disabled (List.init 58 Fun.id))
      ~program:p ~level:Plan.Hot m
  in
  Alcotest.(check bool) "disabling everything is cheaper" true
    (all_off.Compiler.compile_cycles < full.Compiler.compile_cycles);
  Alcotest.(check int) "unoptimized nodes unchanged"
    all_off.Compiler.original_nodes all_off.Compiler.optimized_nodes;
  Alcotest.(check bool) "features extracted pre-optimization" true
    (Tessera_features.Features.get (Tessera_features.Features.extract ~program:p m) 3
    = full.Compiler.original_nodes)

let test_levels_cost_ladder () =
  let p = gen_program 556L in
  let m = Program.meth p 1 in
  let costs =
    Array.map
      (fun level -> (Compiler.compile ~program:p ~level m).Compiler.compile_cycles)
      Plan.levels
  in
  Array.iteri
    (fun i c ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "level %d costs more than %d" i (i - 1))
          true (c > costs.(i - 1)))
    costs

let test_async_install_latency () =
  let p = gen_program 557L in
  let engine =
    Engine.create
      ~config:{ Engine.default_config with Engine.adaptive = false }
      p
  in
  Engine.request_compile engine ~meth_id:1 ~level:Plan.Hot ();
  let st = Engine.state engine 1 in
  Alcotest.(check bool) "pending until install time" true (st.Engine.pending <> None);
  Alcotest.(check bool) "still interpreted" true (st.Engine.impl = Engine.Interpreted);
  (* run the entry enough to pass the install time *)
  for k = 0 to 20 do
    ignore (Engine.invoke_entry engine (entry_args k))
  done;
  let st = Engine.state engine 1 in
  Alcotest.(check bool) "installed eventually" true
    (match st.Engine.impl with Engine.Compiled _ -> true | _ -> false)

let test_sync_mode_installs_immediately () =
  let p = gen_program 558L in
  let engine =
    Engine.create
      ~config:
        { Engine.default_config with Engine.adaptive = false; async_compile = false }
      p
  in
  Engine.request_compile engine ~meth_id:1 ~level:Plan.Cold ();
  let st = Engine.state engine 1 in
  Alcotest.(check bool) "installed now" true
    (match st.Engine.impl with Engine.Compiled _ -> true | _ -> false)

let test_adaptive_escalates () =
  let p = gen_program 559L in
  let engine = Engine.create p in
  for k = 0 to 80 do
    ignore (Engine.invoke_entry engine (entry_args k))
  done;
  let by_level = Engine.compiles_by_level engine in
  Alcotest.(check bool) "cold compiles happened" true
    (List.mem_assoc Plan.Cold by_level);
  Alcotest.(check bool) "warm compiles happened" true
    (List.mem_assoc Plan.Warm by_level);
  Alcotest.(check bool) "some method reached hot" true
    (List.mem_assoc Plan.Hot by_level);
  (* compilation time accounting is consistent *)
  Alcotest.(check bool) "compile cycles positive" true
    (Int64.compare (Engine.total_compile_cycles engine) 0L > 0);
  Alcotest.(check int) "count matches levels"
    (Engine.compile_count engine)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 by_level)

let test_choose_modifier_none_stops () =
  let p = gen_program 560L in
  let calls = ref 0 in
  let engine =
    Engine.create
      ~callbacks:
        {
          Engine.no_callbacks with
          Engine.choose_modifier =
            Some
              (fun _ ~meth_id:_ ~level:_ ->
                incr calls;
                None);
        }
      p
  in
  for k = 0 to 40 do
    ignore (Engine.invoke_entry engine (entry_args k))
  done;
  Alcotest.(check bool) "model consulted" true (!calls > 0);
  Alcotest.(check int) "nothing compiled" 0 (Engine.compile_count engine);
  (* every consulted method is marked no_more: consultations stop growing *)
  let before = !calls in
  for k = 0 to 40 do
    ignore (Engine.invoke_entry engine (entry_args k))
  done;
  Alcotest.(check int) "no more consultations" before !calls

let test_instrumented_samples () =
  let p = gen_program 561L in
  let samples = ref 0 and invalid = ref 0 in
  let engine =
    Engine.create
      ~config:{ Engine.default_config with Engine.instrument = true }
      ~callbacks:
        {
          Engine.no_callbacks with
          Engine.on_sample =
            Some
              (fun _ ~meth_id:_ ~cycles ~valid ->
                incr samples;
                if not valid then incr invalid;
                Alcotest.(check bool) "exclusive cycles nonnegative" true
                  (Int64.compare cycles 0L >= 0));
        }
      p
  in
  for k = 0 to 10 do
    ignore (Engine.invoke_entry engine (entry_args k))
  done;
  Alcotest.(check bool) "samples collected" true (!samples > 50)

let test_exclusive_timing () =
  (* in a caller/callee pair, the sum of exclusive samples matches the
     caller's inclusive time *)
  let src =
    {|
program "excl" entry 0
method "A.caller()I" (static) returns int {
  block 0 {
    (return (add int (call int $1) (call int $1)))
  }
}
method "B.leaf()I" (static) returns int {
  temp "i" int
  block 0 {
    (store void $0 (loadconst int 0))
    (goto 1)
  }
  block 1 {
    (inc void $0 1)
    (if (cmp.lt int (load int $0) (loadconst int 50)) 1 2)
  }
  block 2 {
    (return (load int $0))
  }
}
|}
  in
  let p = Tessera_lang.Parser.parse_program src in
  let excl = Array.make 2 0L in
  let engine =
    Engine.create
      ~config:
        { Engine.default_config with Engine.instrument = true; adaptive = false }
      ~callbacks:
        {
          Engine.no_callbacks with
          Engine.on_sample =
            Some
              (fun _ ~meth_id ~cycles ~valid:_ ->
                excl.(meth_id) <- Int64.add excl.(meth_id) cycles);
        }
      p
  in
  (match Engine.invoke_entry engine [||] with
  | Ok (Values.Int_v 100L) -> ()
  | other ->
      Alcotest.fail
        (Format.asprintf "unexpected result %a"
           (fun fmt -> function
             | Ok v -> Values.pp fmt v
             | Error t -> Format.fprintf fmt "trap %s" (Values.trap_name t))
           other));
  (* the leaf does the looping: its exclusive time dominates *)
  Alcotest.(check bool)
    (Printf.sprintf "leaf %Ld > caller %Ld" excl.(1) excl.(0))
    true
    (Int64.compare excl.(1) excl.(0) > 0)

let test_contention_charges_app () =
  let p = gen_program 562L in
  let run contention =
    let engine =
      Engine.create
        ~config:{ Engine.default_config with Engine.contention; adaptive = false }
        p
    in
    Engine.request_compile engine ~meth_id:1 ~level:Plan.Scorching ();
    Engine.app_cycles engine
  in
  Alcotest.(check bool) "contention charges the app clock" true
    (Int64.compare (run 0.5) (run 0.0) > 0)

let test_snapshot_restore () =
  let p = gen_program 563L in
  let config = { Engine.default_config with Engine.instrument = true } in
  let engine = Engine.create ~config p in
  for k = 0 to 9 do
    ignore (Engine.invoke_entry engine (entry_args k))
  done;
  let snap = Engine.snapshot engine in
  let at_snap = Engine.clock_now engine in
  (* diverge: more invocations plus a forced compilation *)
  for k = 10 to 19 do
    ignore (Engine.invoke_entry engine (entry_args k))
  done;
  Engine.request_compile engine ~meth_id:1 ~level:Plan.Scorching ();
  let diverged = Engine.clock_now engine in
  Alcotest.(check bool) "diverged" true (Int64.compare diverged at_snap > 0);
  Engine.restore engine snap;
  Alcotest.(check int64) "clock rewound" at_snap (Engine.clock_now engine);
  (* the restored engine replays the exact same future as an engine that
     never diverged *)
  let control = Engine.create ~config p in
  for k = 0 to 9 do
    ignore (Engine.invoke_entry control (entry_args k))
  done;
  for k = 10 to 29 do
    let a = Engine.invoke_entry engine (entry_args k) in
    let b = Engine.invoke_entry control (entry_args k) in
    Alcotest.(check bool) "same results" true (a = b);
    Alcotest.(check int64)
      (Printf.sprintf "same clock after invocation %d" k)
      (Engine.clock_now control) (Engine.clock_now engine)
  done;
  (* one snapshot seeds several fresh engines, long after its source ran
     on: each replays a control engine that never diverged, although the
     one before it ran from the same snapshot *)
  let control = Engine.create ~config p in
  for k = 0 to 9 do
    ignore (Engine.invoke_entry control (entry_args k))
  done;
  let future =
    List.init 20 (fun i ->
        let r = Engine.invoke_entry control (entry_args (10 + i)) in
        (r, Engine.clock_now control))
  in
  for n = 1 to 2 do
    let fresh = Engine.create ~config p in
    Engine.restore fresh snap;
    Alcotest.(check int64)
      (Printf.sprintf "fresh engine %d starts at the snapshot" n)
      at_snap (Engine.clock_now fresh);
    List.iteri
      (fun i (r, clock) ->
        let k = 10 + i in
        let a = Engine.invoke_entry fresh (entry_args k) in
        Alcotest.(check bool)
          (Printf.sprintf "fresh engine %d: same result at %d" n k)
          true (a = r);
        Alcotest.(check int64)
          (Printf.sprintf "fresh engine %d: same clock after invocation %d" n k)
          clock (Engine.clock_now fresh))
      future
  done

let test_fork_isolation () =
  let p = gen_program 564L in
  let config = { Engine.default_config with Engine.instrument = true } in
  (* control: a run that never forks *)
  let control = Engine.create ~config p in
  let trunk = Engine.create ~config p in
  for k = 0 to 29 do
    ignore (Engine.invoke_entry control (entry_args k));
    ignore (Engine.invoke_entry trunk (entry_args k));
    if k mod 5 = 0 then begin
      (* branch a fresh engine off the trunk, perturb it hard, throw it
         away *)
      let branch = Engine.create ~config p in
      Engine.restore branch (Engine.snapshot trunk);
      Engine.request_compile branch ~meth_id:1 ~level:Plan.Scorching ();
      for j = 0 to 4 do
        ignore (Engine.invoke_entry branch (entry_args (k + j)))
      done;
      Engine.claim_trace_source trunk;
      Alcotest.(check bool) "branch clock advanced independently" true
        (Int64.compare (Engine.clock_now branch) (Engine.clock_now trunk) > 0)
    end;
    Alcotest.(check int64)
      (Printf.sprintf "trunk cycle stream untouched at %d" k)
      (Engine.clock_now control) (Engine.clock_now trunk)
  done;
  Alcotest.(check int) "same compilations" (Engine.compile_count control)
    (Engine.compile_count trunk)

let suite =
  [
    Alcotest.test_case "modifier affects compilation" `Quick
      test_compiler_modifier_effect;
    Alcotest.test_case "level cost ladder" `Quick test_levels_cost_ladder;
    Alcotest.test_case "async install latency" `Quick test_async_install_latency;
    Alcotest.test_case "sync mode installs immediately" `Quick
      test_sync_mode_installs_immediately;
    Alcotest.test_case "adaptive escalation" `Quick test_adaptive_escalates;
    Alcotest.test_case "choose_modifier None stops recompiling" `Quick
      test_choose_modifier_none_stops;
    Alcotest.test_case "instrumented samples" `Quick test_instrumented_samples;
    Alcotest.test_case "exclusive timing" `Quick test_exclusive_timing;
    Alcotest.test_case "compile contention" `Quick test_contention_charges_app;
    Alcotest.test_case "snapshot/restore rewinds exactly" `Quick
      test_snapshot_restore;
    Alcotest.test_case "fork never perturbs the trunk" `Quick
      test_fork_isolation;
  ]
