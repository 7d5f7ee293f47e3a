(* Differential tests between the two execution engines and across the
   optimizer: the central correctness property of the whole simulation. *)

open Helpers

let check_same_outcome ~what a b =
  Alcotest.check outcome_testable what a b

(* interp(P) = exec(codegen(P)) on random programs *)
let test_interp_vs_native () =
  List.iter
    (fun seed ->
      let p = gen_program seed in
      Tessera_il.Validate.assert_valid p;
      List.iter
        (fun k ->
          let interp, icycles = run_program p (entry_args k) in
          let native, ncycles = run_program ~compile:true p (entry_args k) in
          check_same_outcome
            ~what:(Printf.sprintf "seed %Ld arg %d" seed k)
            interp native;
          (* native code must be cheaper than interpretation *)
          if icycles > 1000 then
            Alcotest.(check bool)
              (Printf.sprintf "native faster (seed %Ld): %d < %d" seed ncycles
                 icycles)
              true (ncycles < icycles))
        [ 0; 3; 17 ])
    (seeds 12 1)

(* every full plan at every level preserves semantics *)
let test_plans_preserve_semantics () =
  List.iter
    (fun seed ->
      let p = gen_program seed in
      let baseline, _ = run_program p (entry_args 5) in
      Array.iter
        (fun level ->
          let transform =
            optimize_all ~plan:(Tessera_opt.Plan.plan level)
              ~enabled:(fun _ -> true)
              p
          in
          let interp_opt, _ = run_program ~transform p (entry_args 5) in
          let native_opt, _ = run_program ~compile:true ~transform p (entry_args 5) in
          check_same_outcome
            ~what:
              (Printf.sprintf "seed %Ld level %s interp" seed
                 (Tessera_opt.Plan.level_name level))
            baseline interp_opt;
          check_same_outcome
            ~what:
              (Printf.sprintf "seed %Ld level %s native" seed
                 (Tessera_opt.Plan.level_name level))
            baseline native_opt)
        Tessera_opt.Plan.levels)
    (seeds 6 100)

(* plans under random modifiers preserve semantics *)
let test_modified_plans_preserve_semantics () =
  let rng = Prng.create 0xBEEFL in
  List.iter
    (fun seed ->
      let p = gen_program seed in
      let baseline, _ = run_program p (entry_args 2) in
      for trial = 1 to 4 do
        let modifier = Modifier.random rng ~density:(Prng.float rng 0.6) in
        let level = Prng.choose rng Tessera_opt.Plan.levels in
        let transform =
          optimize_all
            ~plan:(Tessera_opt.Plan.plan level)
            ~enabled:(Modifier.enabled_fun modifier)
            p
        in
        let opt, _ = run_program ~compile:true ~transform p (entry_args 2) in
        check_same_outcome
          ~what:
            (Printf.sprintf "seed %Ld trial %d modifier %s" seed trial
              (Modifier.to_string modifier))
          baseline opt
      done)
    (seeds 6 2000)

(* each catalogue transformation, alone and repeated, preserves semantics *)
let test_each_pass_preserves_semantics () =
  let progs = List.map gen_program (seeds 3 31337) in
  Array.iter
    (fun (e : Tessera_opt.Catalog.entry) ->
      List.iter
        (fun p ->
          let baseline, _ = run_program p (entry_args 9) in
          let transform =
            optimize_all
              ~plan:[ e.Tessera_opt.Catalog.index; e.Tessera_opt.Catalog.index ]
              ~enabled:(fun _ -> true)
              p
          in
          let interp_opt, _ = run_program ~transform p (entry_args 9) in
          check_same_outcome
            ~what:(Printf.sprintf "pass %s interp" e.Tessera_opt.Catalog.name)
            baseline interp_opt;
          let native_opt, _ =
            run_program ~compile:true ~transform p (entry_args 9)
          in
          check_same_outcome
            ~what:(Printf.sprintf "pass %s native" e.Tessera_opt.Catalog.name)
            baseline native_opt)
        progs)
    Tessera_opt.Catalog.all

(* the full engine (adaptive JIT) computes the same results as pure
   interpretation, invocation after invocation *)
let test_engine_adaptive_equivalence () =
  List.iter
    (fun seed ->
      let p = gen_program seed in
      let engine = Tessera_jit.Engine.create p in
      for k = 0 to 30 do
        let expected, _ = run_program p (entry_args k) in
        let got = Tessera_jit.Engine.invoke_entry engine (entry_args k) in
        check_same_outcome
          ~what:(Printf.sprintf "seed %Ld invocation %d" seed k)
          expected got
      done;
      (* after 31 invocations of a small program something must have been
         JIT-compiled *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld compiled something" seed)
        true
        (Tessera_jit.Engine.compile_count engine > 0))
    (seeds 4 777)

(* compiled code must make the program faster end-to-end *)
let test_engine_speedup () =
  let p = gen_program 4242L in
  let slow = Tessera_jit.Engine.create ~config:{ Tessera_jit.Engine.default_config with Tessera_jit.Engine.adaptive = false } p in
  let fast = Tessera_jit.Engine.create p in
  for k = 0 to 40 do
    ignore (Tessera_jit.Engine.invoke_entry slow (entry_args k));
    ignore (Tessera_jit.Engine.invoke_entry fast (entry_args k))
  done;
  let interp_cycles = Tessera_jit.Engine.app_cycles slow in
  let jit_cycles = Tessera_jit.Engine.app_cycles fast in
  Alcotest.(check bool)
    (Printf.sprintf "JIT beats interpreter: %Ld < %Ld" jit_cycles interp_cycles)
    true
    (Int64.compare jit_cycles interp_cycles < 0)

let suite =
  [
    Alcotest.test_case "interp = native on random programs" `Slow
      test_interp_vs_native;
    Alcotest.test_case "all plans preserve semantics" `Slow
      test_plans_preserve_semantics;
    Alcotest.test_case "modified plans preserve semantics" `Slow
      test_modified_plans_preserve_semantics;
    Alcotest.test_case "each of the 58 passes preserves semantics" `Slow
      test_each_pass_preserves_semantics;
    Alcotest.test_case "adaptive engine equivalence" `Slow
      test_engine_adaptive_equivalence;
    Alcotest.test_case "JIT speeds the program up" `Quick test_engine_speedup;
  ]

(* back-end targets change cycle counts, never results *)
let test_targets_preserve_semantics () =
  List.iter
    (fun seed ->
      let p = gen_program seed in
      List.iter
        (fun target ->
          let transform =
            optimize_all ~plan:(Tessera_opt.Plan.plan Tessera_opt.Plan.Hot)
              ~enabled:(fun _ -> true)
              p
          in
          (* lower with the target and compare against the interpreter *)
          let methods = Array.mapi transform p.Tessera_il.Program.methods in
          let fuel = ref 200_000_000 in
          let rec invoke id args =
            Tessera_flat.Interp.run
              {
                Tessera_vm.Interp.classes = p.Tessera_il.Program.classes;
                charge = ignore;
                invoke;
                fuel;
              }
              (Tessera_flat.Lower.compile ~target methods.(id))
              args
          in
          let native =
            match invoke p.Tessera_il.Program.entry (entry_args 4) with
            | v -> Ok v
            | exception Tessera_vm.Values.Trap k -> Error k
          in
          let interp, _ = run_program p (entry_args 4) in
          Alcotest.check outcome_testable
            (Printf.sprintf "seed %Ld on %s" seed target.Tessera_vm.Target.name)
            interp native)
        Tessera_vm.Target.all)
    (seeds 4 5101)

let suite =
  suite
  @ [
      Alcotest.test_case "targets preserve semantics" `Slow
        test_targets_preserve_semantics;
    ]
