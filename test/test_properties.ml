(* Cross-cutting qcheck properties over random methods and programs —
   invariants beyond the differential checks in Test_engines. *)

open Helpers
module Types = Tessera_il.Types
module Node = Tessera_il.Node
module Meth = Tessera_il.Meth
module Program = Tessera_il.Program
module Catalog = Tessera_opt.Catalog
module Features = Tessera_features.Features
module Prng = Tessera_util.Prng

let random_method seed =
  let prof = small_profile (Int64.of_int seed) in
  let rng = Prng.create (Int64.of_int (seed * 31 + 7)) in
  Tessera_workloads.Generate.random_method ~rng prof
    ~name:(Printf.sprintf "P.m%d" seed)
    ~callees:[] ~classes:[||]

(* Cleanup-style passes are idempotent: applying twice equals once. *)
let idempotent_passes =
  [
    ("const_fold", Tessera_opt.Passes_local.const_fold);
    ("simplify", Tessera_opt.Passes_local.simplify);
    ("sign_ext_elim", Tessera_opt.Passes_local.sign_ext_elim);
    ("bitop_simplify", Tessera_opt.Passes_local.bitop_simplify);
    ("strength_reduce", Tessera_opt.Passes_local.strength_reduce);
    ("induction_var", Tessera_opt.Passes_local.induction_var);
    ("dead_tree_elim", Tessera_opt.Passes_block.dead_tree_elim);
    ("unreachable_elim", Tessera_opt.Passes_block.unreachable_elim);
    ("branch_fold", Tessera_opt.Passes_block.branch_fold);
    ("jump_threading", Tessera_opt.Passes_block.jump_threading);
    ("throw_to_goto", Tessera_opt.Passes_block.throw_to_goto);
    ("return_merge", Tessera_opt.Passes_block.return_merge);
  ]
(* note: remat_constants / global_copy_prop chain (forwarding one
   definition can expose another), so they converge over repeated plan
   applications rather than in a single pass — deliberately not here *)

let test_pass_idempotence () =
  QCheck.Test.make ~count:40 ~name:"cleanup passes are idempotent"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let m = random_method seed in
      List.for_all
        (fun (name, pass) ->
          let once = pass m in
          let twice = pass once in
          if Meth.equal once twice then true
          else QCheck.Test.fail_reportf "pass %s is not idempotent" name)
        idempotent_passes)

(* Every pass preserves validator-cleanliness on random methods. *)
let test_passes_preserve_validity () =
  QCheck.Test.make ~count:25 ~name:"every pass preserves IR validity"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let p = gen_program (Int64.of_int (seed + 777)) in
      let ctx = { Catalog.program = p } in
      Array.for_all
        (fun (e : Catalog.entry) ->
          Array.for_all
            (fun m ->
              let m' = e.Catalog.run ctx m in
              match
                Tessera_il.Validate.check_method
                  ~classes:p.Program.classes
                  ~method_count:(Program.method_count p)
                  m'
              with
              | [] -> true
              | errs ->
                  QCheck.Test.fail_reportf "pass %s broke IR: %s"
                    e.Catalog.name
                    (Format.asprintf "%a" Tessera_il.Validate.pp_error
                       (List.hd errs)))
            p.Program.methods)
        Catalog.all)

(* Optimization never changes the feature vector the model sees: features
   are extracted before optimization, so extraction must be a pure
   function of the unoptimized method. *)
let test_feature_extraction_pure () =
  QCheck.Test.make ~count:50 ~name:"feature extraction is pure"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let m = random_method seed in
      Features.equal (Features.extract m) (Features.extract m))

(* Direct method-level differential: interp vs native on one random
   method with random arguments (complements the program-level test). *)
let test_single_method_differential () =
  QCheck.Test.make ~count:60 ~name:"interp = native per method"
    QCheck.(pair (int_bound 10_000) (int_bound 1000))
    (fun (seed, arg_seed) ->
      let m = random_method seed in
      let rng = Prng.create (Int64.of_int arg_seed) in
      let args =
        Array.map
          (fun ty ->
            match ty with
            | Types.Double -> Tessera_vm.Values.Float_v (Prng.float rng 10.0)
            | Types.Long ->
                Tessera_vm.Values.Int_v (Int64.of_int (Prng.int_in rng (-500) 500))
            | _ ->
                Tessera_vm.Values.Int_v (Int64.of_int (Prng.int_in rng (-50) 50)))
          m.Meth.params
      in
      let interp_outcome =
        let fuel = ref 50_000_000 in
        match
          Tessera_vm.Interp.run
            {
              Tessera_vm.Interp.classes = [||];
              charge = ignore;
              invoke = (fun _ _ -> Tessera_vm.Values.Int_v 1L);
              fuel;
            }
            m args
        with
        | v -> Ok v
        | exception Tessera_vm.Values.Trap k -> Error k
      in
      let native_outcome =
        let fuel = ref 50_000_000 in
        let code = Tessera_codegen.Lower.compile m in
        match
          Tessera_codegen.Exec.run
            {
              Tessera_codegen.Exec.classes = [||];
              charge = ignore;
              invoke = (fun _ _ -> Tessera_vm.Values.Int_v 1L);
              fuel;
            }
            code args
        with
        | v -> Ok v
        | exception Tessera_vm.Values.Trap k -> Error k
      in
      outcome_equal interp_outcome native_outcome)

(* Engine determinism: two engines with the same configuration agree on
   every observable. *)
let test_engine_determinism () =
  QCheck.Test.make ~count:10 ~name:"engine runs are deterministic"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let p = gen_program (Int64.of_int (seed + 31)) in
      let run () =
        let e = Tessera_jit.Engine.create p in
        for k = 0 to 15 do
          ignore (Tessera_jit.Engine.invoke_entry e (entry_args k))
        done;
        ( Tessera_jit.Engine.app_cycles e,
          Tessera_jit.Engine.total_compile_cycles e,
          Tessera_jit.Engine.compile_count e )
      in
      run () = run ())

(* The pass manager's accounting is exact: every plan application lands
   in exactly one of applied / skipped / disabled, and disabled entries
   are precisely the modifier's disabled plan positions. *)
let test_manager_partitions_plan () =
  QCheck.Test.make ~count:25 ~name:"manager partitions the plan exactly"
    QCheck.(pair (int_bound 10_000) (int_bound 1_000_000))
    (fun (seed, mseed) ->
      let p = gen_program (Int64.of_int (seed + 99)) in
      let m = Program.meth p 1 in
      let rng = Prng.create (Int64.of_int mseed) in
      let modifier = Tessera_modifiers.Modifier.random rng ~density:0.3 in
      let plan = Tessera_opt.Plan.plan Tessera_opt.Plan.Hot in
      let r =
        Tessera_opt.Manager.optimize
          ~enabled:(Tessera_modifiers.Modifier.enabled_fun modifier)
          ~program:p ~plan m
      in
      let total =
        List.length r.Tessera_opt.Manager.applied
        + List.length r.Tessera_opt.Manager.skipped_inapplicable
        + List.length r.Tessera_opt.Manager.disabled
      in
      total = List.length plan
      && List.for_all
           (Tessera_modifiers.Modifier.disables modifier)
           r.Tessera_opt.Manager.disabled
      && List.for_all
           (fun i -> not (Tessera_modifiers.Modifier.disables modifier i))
           r.Tessera_opt.Manager.applied)

(* Under ANY fault spec — arbitrary drop/corrupt/dup/garbage rates and
   crash points — every prediction request terminates with a valid
   prediction, a default-plan fallback, or a breaker skip; the client
   never raises and its counters stay consistent. *)
let test_client_total_under_faults () =
  QCheck.Test.make ~count:40 ~name:"client is total under any fault spec"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let module Channel = Tessera_protocol.Channel in
      let module Client = Tessera_protocol.Client in
      let module Spec = Tessera_faults.Spec in
      let module Injector = Tessera_faults.Injector in
      let rng = Prng.create (Int64.of_int (seed + 13)) in
      let spec =
        {
          Spec.default with
          Spec.drop = Prng.float rng 0.4;
          corrupt = Prng.float rng 0.4;
          dup = Prng.float rng 0.3;
          garbage = Prng.float rng 0.3;
          crash_after =
            (if Prng.bernoulli rng 0.5 then Some (1 + Prng.int rng 12) else None);
          revive_after =
            (if Prng.bernoulli rng 0.5 then Some (1 + Prng.int rng 20) else None);
        }
      in
      let inj_seed = Prng.next_int64 rng in
      let server_raw, client_raw = Channel.pipe_pair () in
      let server_inj = Injector.create ~spec ~seed:inj_seed () in
      let client_inj =
        Injector.create ~spec:(Spec.no_crash spec)
          ~seed:(Int64.add inj_seed 1L) ()
      in
      let server_ch = Injector.wrap_channel server_inj server_raw in
      let client_ch = Injector.wrap_channel client_inj client_raw in
      let lockstep = lockstep_server server_ch in
      let config = { Client.default_config with Client.log = ignore } in
      let client =
        Client.connect ~model_name:"prop" ~lockstep ~config client_ch
      in
      let resolved = ref 0 in
      for i = 0 to 19 do
        match
          Client.predict_result client
            ~level:(Prng.choose rng Tessera_opt.Plan.levels)
            ~features:(Array.make (1 + (i mod 5)) 0.5)
        with
        | Client.Predicted _ | Client.Fallback _ | Client.Breaker_skip ->
            incr resolved
      done;
      let k = Client.counters client in
      !resolved = 20
      && k.Client.predicted + k.Client.fallbacks + k.Client.breaker_skips
         = k.Client.requests)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      test_pass_idempotence ();
      test_passes_preserve_validity ();
      test_feature_extraction_pure ();
      test_single_method_differential ();
      test_engine_determinism ();
      test_manager_partitions_plan ();
      test_client_total_under_faults ();
    ]
