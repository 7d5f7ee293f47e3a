(* The flat execution tier: fuel semantics, the differential oracle
   against the tree walker (results AND charged cycles, the property the
   whole tier rests on), the verifier, profiler attribution parity, and
   engine-level parity. *)

module Program = Tessera_il.Program
module Meth = Tessera_il.Meth
module Values = Tessera_vm.Values
module Interp = Tessera_vm.Interp
module Prog = Tessera_flat.Prog
module Lower = Tessera_flat.Lower
module Flat_interp = Tessera_flat.Interp
module Engine = Tessera_jit.Engine
module Parser = Tessera_lang.Parser
module Plan = Tessera_opt.Plan
module Profile = Tessera_obs.Profile
module Suites = Tessera_workloads.Suites

(* ---- execution harnesses ------------------------------------------ *)

(* Outcome including fuel exhaustion, so low-fuel runs can be compared
   tier against tier too. *)
type ext_outcome = Done of Helpers.outcome | Fuel

let pp_ext fmt = function
  | Done o -> Helpers.pp_outcome fmt o
  | Fuel -> Format.fprintf fmt "Out_of_fuel"

let ext_equal a b =
  match (a, b) with
  | Done x, Done y -> Helpers.outcome_equal x y
  | Fuel, Fuel -> true
  | _ -> false

let ext_testable = Alcotest.testable pp_ext ext_equal

(* Run every method of [program] in one fixed all-interpreted tier:
   the tree walker, the flat loop, or the flat loop over fused code. *)
let run_tier ?(fuel = 200_000_000) ?(transform = fun _id m -> m) ~tier
    (program : Program.t) args =
  let methods =
    Array.mapi (fun id m -> transform id m) program.Program.methods
  in
  let flats =
    match tier with
    | `Tree -> [||]
    | `Flat -> Array.map Lower.of_meth methods
    | `Fused -> Array.map (fun m -> Prog.fuse (Lower.of_meth m)) methods
  in
  let cycles = ref 0 in
  let charge n = cycles := !cycles + n in
  let fuel_ref = ref fuel in
  let rec invoke id args =
    let ctx =
      {
        Interp.classes = program.Program.classes;
        charge;
        invoke;
        fuel = fuel_ref;
      }
    in
    match tier with
    | `Tree -> Interp.run ctx methods.(id) args
    | `Flat | `Fused -> Flat_interp.run ctx flats.(id) args
  in
  let outcome =
    match invoke program.Program.entry args with
    | v -> Done (Ok v)
    | exception Values.Trap k -> Done (Error k)
    | exception Interp.Out_of_fuel -> Fuel
  in
  (outcome, !cycles)

let parse src = Parser.parse_program src

(* ---- satellite: fuel off-by-one ----------------------------------- *)

(* A bare [(return)] costs exactly one fuel unit (the block entry), so a
   caller granting fuel=1 must see it complete; the historical
   decrement-then-check discipline raised Out_of_fuel here. *)
let ret_void_src =
  {|
program "f" entry 0
method "F.m()V" () returns void {
  block 0 {
    (return)
  }
}
|}

let ret_const_src =
  {|
program "f" entry 0
method "F.m()I" () returns int {
  block 0 {
    (return (loadconst int 7))
  }
}
|}

let test_fuel_boundary () =
  let check ~fuel src expected =
    let got, _ = run_tier ~fuel ~tier:`Tree (parse src) [||] in
    Alcotest.check ext_testable (Printf.sprintf "fuel=%d" fuel) expected got
  in
  check ~fuel:1 ret_void_src (Done (Ok Values.Void_v));
  check ~fuel:0 ret_void_src Fuel;
  (* block entry + one node *)
  check ~fuel:2 ret_const_src (Done (Ok (Values.Int_v 7L)));
  check ~fuel:1 ret_const_src Fuel

let test_fuel_boundary_flat () =
  (* the flat tier inherits the same boundary exactly *)
  List.iter
    (fun tier ->
      let run ~fuel src = fst (run_tier ~fuel ~tier (parse src) [||]) in
      Alcotest.check ext_testable "fuel=1 void" (Done (Ok Values.Void_v))
        (run ~fuel:1 ret_void_src);
      Alcotest.check ext_testable "fuel=0 void" Fuel (run ~fuel:0 ret_void_src);
      Alcotest.check ext_testable "fuel=2 const"
        (Done (Ok (Values.Int_v 7L)))
        (run ~fuel:2 ret_const_src);
      Alcotest.check ext_testable "fuel=1 const" Fuel (run ~fuel:1 ret_const_src))
    [ `Flat; `Fused ]

(* ---- constant pool: keyed by bits --------------------------------- *)

(* 0.0 and -0.0 are equal under structural comparison; a pool keyed by
   value handed the division the first zero, and 1/-0 became +inf. *)
let signed_zero_src =
  {|
program "z" entry 0
method "Z.m()D" () returns double {
  block 0 {
    (return (add double (loadconst double 0x0p+0) (div double (loadconst double 0x1p+0) (loadconst double -0x0p+0))))
  }
}
|}

let test_signed_zero_constants () =
  let program = parse signed_zero_src in
  let tree, _ = run_tier ~tier:`Tree program [||] in
  Alcotest.check ext_testable "tree: 0 + 1/-0 = -inf"
    (Done (Ok (Values.Float_v Float.neg_infinity)))
    tree;
  List.iter
    (fun tier ->
      Alcotest.check ext_testable "flat = tree" tree
        (fst (run_tier ~tier program [||])))
    [ `Flat; `Fused ];
  let compiled, _ = Helpers.run_program ~compile:true program [||] in
  Alcotest.check ext_testable "compiled = tree" tree (Done compiled)

(* ---- satellite: fingerprint memoization --------------------------- *)

let test_fingerprint_memo () =
  QCheck.Test.make ~count:30 ~name:"memoized fingerprint = uncached"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let program = Helpers.gen_program (Int64.of_int (seed + 11)) in
      Array.for_all
        (fun m ->
          let fp = Meth.fingerprint m in
          (* memo hit must return the same value *)
          Int64.equal fp (Meth.fingerprint m)
          && Int64.equal fp (Meth.fingerprint_uncached m)
          &&
          (* mutation points reset the memo: a rebuilt method computes a
             fresh (equal, since the trees are equal) fingerprint; an
             unchanged rewrite hands back the method, memo and all *)
          let m' =
            Meth.map_blocks
              (fun (b : Tessera_il.Block.t) -> { b with id = b.id })
              m
          in
          ignore (Meth.fingerprint m);
          m' != m
          && Int64.equal (Meth.fingerprint m') (Meth.fingerprint_uncached m')
          && Int64.equal (Meth.fingerprint m') fp
          && Meth.map_trees (fun n -> n) m == m
          &&
          let m'' = Meth.with_blocks m m.Meth.blocks in
          Int64.equal (Meth.fingerprint m'') (Meth.fingerprint_uncached m''))
        program.Program.methods)

(* ---- tentpole: the differential oracle ---------------------------- *)

let transform_of_level program = function
  | 0 -> fun _id m -> m
  | 1 ->
      Helpers.optimize_all ~plan:(Plan.plan Plan.Cold)
        ~enabled:(fun _ -> true)
        program
  | 2 ->
      Helpers.optimize_all ~plan:(Plan.plan Plan.Hot)
        ~enabled:(fun _ -> true)
        program
  | _ ->
      Helpers.optimize_all ~plan:(Plan.plan Plan.Scorching)
        ~enabled:(fun _ -> true)
        program

(* Generated whole programs, at every optimization level, with and
   without superinstructions: the flat tier must produce bit-identical
   results and charge bit-identical cycles to the tree walker. *)
let test_differential () =
  QCheck.Test.make ~count:60
    ~name:"flat = tree: identical results and cycles"
    QCheck.(triple (int_bound 10_000) (int_bound 3) (int_bound 50))
    (fun (seed, lvl, arg) ->
      let program = Helpers.gen_program (Int64.of_int (seed + 3)) in
      let transform = transform_of_level program lvl in
      let args = Helpers.entry_args arg in
      let tree = run_tier ~transform ~tier:`Tree program args in
      let flat = run_tier ~transform ~tier:`Flat program args in
      let fused = run_tier ~transform ~tier:`Fused program args in
      if not (ext_equal (fst tree) (fst flat) && snd tree = snd flat) then
        QCheck.Test.fail_reportf "flat diverged: %a/%d vs %a/%d" pp_ext
          (fst tree) (snd tree) pp_ext (fst flat) (snd flat);
      if not (ext_equal (fst tree) (fst fused) && snd tree = snd fused) then
        QCheck.Test.fail_reportf "fused diverged: %a/%d vs %a/%d" pp_ext
          (fst tree) (snd tree) pp_ext (fst fused) (snd fused);
      true)

(* Near fuel exhaustion the superinstruction fast paths must not move
   the out-of-fuel point or the cycles charged before it. *)
let test_differential_low_fuel () =
  QCheck.Test.make ~count:40
    ~name:"flat = tree under any fuel budget (exhaustion point, cycles)"
    QCheck.(pair (int_bound 10_000) (int_bound 2_000))
    (fun (seed, fuel) ->
      let program = Helpers.gen_program (Int64.of_int (seed + 17)) in
      let args = Helpers.entry_args 1 in
      let tree = run_tier ~fuel ~tier:`Tree program args in
      let flat = run_tier ~fuel ~tier:`Flat program args in
      let fused = run_tier ~fuel ~tier:`Fused program args in
      ext_equal (fst tree) (fst flat)
      && snd tree = snd flat
      && ext_equal (fst tree) (fst fused)
      && snd tree = snd fused)

(* ---- verifier ----------------------------------------------------- *)

let two_block_src =
  {|
program "g" entry 0
method "G.m()I" () returns int {
  block 0 {
    (goto 1)
  }
  block 1 {
    (return (loadconst int 3))
  }
}
|}

let flat_of_src src =
  let p = parse src in
  Lower.of_meth (Program.meth p p.Program.entry)

let test_verifier_rejects_corruption () =
  let p = flat_of_src two_block_src in
  (match Prog.verify p with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid program rejected: %s" e);
  (* a jump into the middle of a block is not a block entry *)
  let bad_jump =
    let instrs = Array.copy p.Prog.instrs in
    Array.iteri
      (fun i ins ->
        match ins with Prog.Jmp t -> instrs.(i) <- Prog.Jmp (t + 1) | _ -> ())
      instrs;
    { p with Prog.instrs = instrs }
  in
  (match Prog.verify bad_jump with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt jump target accepted");
  (* execution starts at pc 0: code before block 0's entry, or code in
     no block at all, would be checked by nothing *)
  let leaf =
    Lower.of_meth
      (Meth.make ~name:"L.l()I" ~params:[||] ~ret:Tessera_il.Types.Int
         ~symbols:[||]
         [|
           Tessera_il.Block.make 0 []
             (Tessera_il.Block.Return
                (Some (Tessera_il.Node.iconst Tessera_il.Types.Int 1L)));
         |])
  in
  List.iter
    (fun (what, q) ->
      match Prog.verify q with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" what)
    [
      (* truncation desynchronizes the block tables *)
      ( "truncated code",
        { p with Prog.instrs = Array.sub p.Prog.instrs 0 (Prog.code_size p - 1) }
      );
      ( "code before block 0",
        {
          leaf with
          Prog.instrs = Array.append [| Prog.Pop |] leaf.Prog.instrs;
          block_of_pc = Array.append [| 0 |] leaf.Prog.block_of_pc;
          block_entry = [| 1 |];
        } );
      ("code in no block", { leaf with Prog.block_entry = [||]; handler_of_block = [||] });
    ]

(* ---- profiler attribution ----------------------------------------- *)

(* The sampling profiler fires on charged cycles, and every tier charges
   the same cycles in the same order, so the per-method attribution must
   be exactly equal across tiers.  (Per-opcode tables differ by design:
   the flat tiers attribute a fused pair to its superinstruction.) *)
let test_profile_attribution () =
  let hot tier program =
    Profile.enable ~period:4096 ();
    Fun.protect ~finally:Profile.disable (fun () ->
        ignore (run_tier ~tier program (Helpers.entry_args 0));
        Profile.hot_methods ())
  in
  let pp = Alcotest.(list (pair string int)) in
  List.iter
    (fun (b : Suites.bench) ->
      let b = Suites.scale_bench b 0.1 in
      let program = Tessera_workloads.Generate.program b.Suites.profile in
      let tree = hot `Tree program in
      Alcotest.(check bool) "tree run sampled" true (tree <> []);
      List.iter
        (fun (name, tier) ->
          Alcotest.check pp
            (Printf.sprintf "%s: %s hot methods = tree"
               b.Suites.profile.Tessera_workloads.Profile.name name)
            tree (hot tier program))
        [ ("flat", `Flat); ("fused", `Fused) ])
    Suites.all;
  Profile.reset ()

(* ---- known answer of the profile ---------------------------------

   One md5 over [Profile.to_canonical_string] after each of the 20 suite
   programs (scale 0.05, entry argument 0) runs interpreted on the loop,
   unfused and fused, sampled every 97 cycles: every sample's site and
   weight.  Recorded when the loop gave the profiler each charge on its
   own; it pins that one sum per instruction at the dispatch head moves
   no sample. *)
let profile_digest () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (b : Suites.bench) ->
      let b = Suites.scale_bench b 0.05 in
      let program = Tessera_workloads.Generate.program b.Suites.profile in
      List.iter
        (fun tier ->
          Profile.enable ~period:97 ();
          Fun.protect ~finally:Profile.disable (fun () ->
              ignore (run_tier ~tier program (Helpers.entry_args 0)));
          Buffer.add_string buf (Profile.to_canonical_string ()))
        [ `Flat; `Fused ])
    Suites.all;
  Profile.reset ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_profile_known_answers () =
  Alcotest.(check string) "profile" "ef842d9fd8a56318f5178e2a35ab66ca"
    (profile_digest ())

(* ---- engine-level parity ------------------------------------------ *)

(* A non-adaptive engine never compiles, so every invocation runs its
   memoized fused flat forms: results and application cycles must match
   the tree walker invocation for invocation. *)
let test_engine_parity () =
  let program = Helpers.gen_program 99L in
  let engine =
    Engine.create
      ~config:{ Engine.default_config with Engine.adaptive = false }
      program
  in
  let tree_cycles =
    List.fold_left
      (fun acc i ->
        let args = Helpers.entry_args i in
        let tree, cycles = run_tier ~tier:`Tree program args in
        Alcotest.check ext_testable "invocation result" tree
          (Done (Engine.invoke_entry engine args));
        acc + cycles)
      0 (List.init 8 Fun.id)
  in
  Alcotest.(check int64) "app cycles" (Int64.of_int tree_cycles)
    (Engine.app_cycles engine)

(* ---- known answers of every clock read ----------------------------

   The loop hands its charges to [ctx.charge] in batches, so what must
   not move is the cycle total wherever the clock can be read: when a
   call leaves the loop ([ctx.invoke]), when the callee returns or
   raises, and when the entry invocation ends.  The 20 suite programs at
   scale 0.05 (entry argument 0) run all interpreted and all compiled at
   each level (null modifier), at full fuel and at two budgets that stop
   mid-run.  The constant was recorded on the loop that charged every
   instruction on its own. *)

module Compiler = Tessera_jit.Compiler

let clock_read_fuel = 200_000_000

(* One run's log: [>] callee, cycles and fuel as a call leaves the
   loop; [<] or [!] as it returns or raises; then the outcome. *)
let clock_reads ?(arg = 0) ~fuel (program : Program.t) (flats : Prog.t array) =
  let buf = Buffer.create 4096 in
  let cycles = ref 0 in
  let fuel_ref = ref fuel in
  let rec invoke id args =
    Printf.bprintf buf ">%d %d %d\n" id !cycles !fuel_ref;
    match
      Flat_interp.run
        {
          Interp.classes = program.Program.classes;
          charge = (fun n -> cycles := !cycles + n);
          invoke;
          fuel = fuel_ref;
        }
        flats.(id) args
    with
    | v ->
        Printf.bprintf buf "<%d %d\n" !cycles !fuel_ref;
        v
    | exception e ->
        Printf.bprintf buf "!%d %d\n" !cycles !fuel_ref;
        raise e
  in
  (match invoke program.Program.entry (Helpers.entry_args arg) with
  | v -> Printf.bprintf buf "ok:%Ld" (Values.checksum v)
  | exception Values.Trap k -> Printf.bprintf buf "trap:%s" (Values.trap_name k)
  | exception Interp.Out_of_fuel -> Buffer.add_string buf "fuel");
  Printf.bprintf buf " %d %d\n" !cycles !fuel_ref;
  (Digest.to_hex (Digest.string (Buffer.contents buf)), fuel - !fuel_ref)

let clock_read_digest () =
  let out = Buffer.create 4096 in
  List.iter
    (fun (b : Suites.bench) ->
      let b = Suites.scale_bench b 0.05 in
      let program = Tessera_workloads.Generate.program b.Suites.profile in
      let forms =
        ( "interpreted",
          Array.map (fun m -> Prog.fuse (Lower.of_meth m)) program.Program.methods
        )
        :: List.map
             (fun level ->
               ( Plan.level_name level,
                 Array.map
                   (fun m -> (Compiler.compile ~program ~level m).Compiler.code)
                   program.Program.methods ))
             (Array.to_list Plan.levels)
      in
      List.iter
        (fun (form, flats) ->
          let full, used = clock_reads ~fuel:clock_read_fuel program flats in
          let third, _ = clock_reads ~fuel:(used / 3) program flats in
          let late, _ = clock_reads ~fuel:((2 * used / 3) + 1) program flats in
          Printf.bprintf out "%s %s %s %s %s\n"
            b.Suites.profile.Tessera_workloads.Profile.name form full third late)
        forms)
    Suites.all;
  Digest.to_hex (Digest.string (Buffer.contents out))

let test_clock_read_known_answers () =
  Alcotest.(check string) "clock reads" "8212db383f43d2ad14f4ed8696fc4a50"
    (clock_read_digest ())

(* ---- fusion oracle: fused = unfused compiled code ------------------

   [Prog.fuse]'s superinstructions keep their halves' fuel events,
   charges and trap points, so compiled code runs the same fused and
   unfused (every slot through [Prog.first_half]): the same outcome, the
   same cycles and fuel at every clock read ([clock_reads]).  Checked on
   every suite program (scale 0.05) at every level under the three
   known-answer modifiers, at full fuel and at budgets that stop
   part-way; on generated programs at every budget up to 300; and on a
   small program, at every budget until it ends, that runs each of
   compiled code's superinstructions and traps inside three of them. *)

let unfused (p : Prog.t) =
  { p with Prog.instrs = Array.map Prog.first_half p.Prog.instrs; fused_pairs = 0 }

let check_fused_as_unfused ?arg ~what ~budgets program flats =
  let plain = Array.map unfused flats in
  List.iter
    (fun fuel ->
      let fused, _ = clock_reads ?arg ~fuel program flats in
      let unfused, _ = clock_reads ?arg ~fuel program plain in
      if fused <> unfused then
        Alcotest.failf "%s: fused and unfused code differ at fuel %d" what fuel)
    budgets

(* [Prog.first_half] undoes [Prog.fuse] slot by slot: on every suite
   method, interpreted and compiled at every level, the first halves of
   the fused program are the unfused one, and fusing them again gives
   the fused program back. *)
let test_first_halves () =
  let check what (plain : Prog.t) (fused : Prog.t) =
    if (unfused fused).Prog.instrs <> plain.Prog.instrs then
      Alcotest.failf "%s: first halves differ from the unfused program" what;
    if (Prog.fuse plain).Prog.instrs <> fused.Prog.instrs then
      Alcotest.failf "%s: fusing the first halves differs" what
  in
  List.iter
    (fun (b : Suites.bench) ->
      let program = Tessera_workloads.Generate.program b.Suites.profile in
      Array.iter
        (fun (m : Meth.t) ->
          let p = Lower.of_meth m in
          check m.Meth.name p (Prog.fuse p);
          Array.iter
            (fun level ->
              let c = (Compiler.compile ~program ~level m).Compiler.code in
              check m.Meth.name (unfused c) c)
            Plan.levels)
        program.Program.methods)
    Suites.all

let kernels_src =
  {|
program "kernels" entry 0
method "K.main(I)I" (public static) returns int {
  arg "n" int
  block 0 {
    (return (call int $1 (load int $0)))
  }
}
method "K.loop(I)I" (public static) returns int {
  arg  "n" int
  temp "i" int
  temp "s" int
  block 0 {
    (store void $1 (loadconst int 0))
    (store void $2 (loadconst int 1))
    (goto 1)
  }
  block 1 {
    (store void $2 (add int (mul int (load int $2) (loadconst int 3)) (load int $1)))
    (store void $2 (sub int (load int $2) (div int (load int $1) (load int $0))))
    (inc void $1 1)
    (if (cmp.lt int (load int $1) (load int $0)) 1 2)
  }
  block 2 {
    (if (cmp.eq int (load int $0) (loadconst int 1)) 3 7)
  }
  block 3 {
    (return (div int (load int $2) (loadconst int 0)))
  }
  block 4 {
    (if (load int $2) 5 6)
  }
  block 5 {
    (return (load int $2))
  }
  block 6 {
    (return (loadconst int 0))
  }
  block 7 {
    (if (cmp.eq int (load int $0) (loadconst int 3)) 8 4)
  }
  block 8 {
    (if (cmp.lt int (newarray address $3 (loadconst int 2)) (load int $0)) 5 6)
  }
}
|}

let compiled_kinds = [ "k_cmp_br"; "k_load_const_binop"; "k_binop_binop" ]

let test_fusion_oracle () =
  let modifiers = Helpers.known_answer_modifiers () in
  List.iter
    (fun (b : Suites.bench) ->
      let b = Suites.scale_bench b 0.05 in
      let program = Tessera_workloads.Generate.program b.Suites.profile in
      Array.iter
        (fun level ->
          List.iteri
            (fun mi modifier ->
              let flats =
                Array.map
                  (fun m -> (Compiler.compile ~modifier ~program ~level m).Compiler.code)
                  program.Program.methods
              in
              let _, used = clock_reads ~fuel:clock_read_fuel program flats in
              check_fused_as_unfused
                ~what:
                  (Printf.sprintf "%s %s modifier %d"
                     b.Suites.profile.Tessera_workloads.Profile.name
                     (Plan.level_name level) mi)
                ~budgets:[ clock_read_fuel; used / 3; (2 * used / 3) + 1; used - 1 ]
                program flats)
            modifiers)
        Plan.levels)
    Suites.all;
  for seed = 0 to 29 do
    let program = Helpers.gen_program (Int64.of_int (seed + 41)) in
    let level = Plan.levels.(seed mod Array.length Plan.levels) in
    let flats =
      Array.map
        (fun m -> (Compiler.compile ~program ~level m).Compiler.code)
        program.Program.methods
    in
    check_fused_as_unfused
      ~what:(Printf.sprintf "generated program %d" seed)
      ~budgets:(clock_read_fuel :: List.init 301 Fun.id)
      program flats
  done;
  (* every budget of a program that runs each superinstruction, and
     traps in [k_binop_binop] (n = 0), [k_load_const_binop] (n = 1) and
     [k_cmp_br] (n = 3: an array compared with an integer) *)
  let program = parse kernels_src in
  let flats = Array.map (fun m -> Lower.compile m) program.Program.methods in
  let pairs = Array.make (Prog.kind_count * Prog.kind_count) 0 in
  List.iter
    (fun arg ->
      let _, used =
        Flat_interp.census pairs (fun () ->
            clock_reads ~arg ~fuel:clock_read_fuel program flats)
      in
      check_fused_as_unfused ~arg
        ~what:(Printf.sprintf "kernels program, n = %d" arg)
        ~budgets:(clock_read_fuel :: List.init (used + 1) Fun.id)
        program flats)
    [ 0; 1; 2; 3; 5 ];
  List.iter
    (fun name ->
      let k =
        Option.get
          (List.find_opt
             (fun k -> Prog.kind_name k = name)
             (List.init Prog.kind_count Fun.id))
      in
      let runs = ref 0 in
      for other = 0 to Prog.kind_count - 1 do
        runs := !runs + pairs.((other * Prog.kind_count) + k)
      done;
      if !runs = 0 then Alcotest.failf "the kernels program never ran %s" name)
    compiled_kinds

(* ---- compiled-code shape ------------------------------------------ *)

(* The code generator emits only compiled opcodes, the leaves [Const],
   [Load_local] and [New_obj], and a [Begin] exactly where monitor exit
   has nothing on the stack; fused, every slot read through
   [Prog.first_half] is one of these. *)
let check_compiled_code ?(meth : Meth.t option) (p : Prog.t) =
  (match Prog.verify p with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "compiled code does not verify: %s" e);
  let begins = ref 0 in
  Array.iteri
    (fun pc ins ->
      match Prog.first_half ins with
      | Prog.Const _ | Load_local _ | New_obj _ -> ()
      | Begin _ -> incr begins
      | i when Prog.is_compiled_op i -> ()
      | i ->
          Alcotest.failf "%s: pc %d holds %s" p.Prog.method_name pc
            (Prog.kind_name (Prog.kind i)))
    p.Prog.instrs;
  Option.iter
    (fun m ->
      let exits =
        Meth.fold_nodes
          (fun k (n : Tessera_il.Node.t) ->
            match n.op with
            | Tessera_il.Opcode.Synchronization _ when Array.length n.args = 0 ->
                k + 1
            | _ -> k)
          0 m
      in
      Alcotest.(check int)
        (p.Prog.method_name ^ ": a Begin per monitor exit without an object")
        exits !begins)
    meth

let test_compiled_code_shape () =
  List.iter
    (fun (b : Suites.bench) ->
      let program = Tessera_workloads.Generate.program b.Suites.profile in
      Array.iter
        (fun m ->
          check_compiled_code ~meth:m (Lower.compile m);
          Array.iter
            (fun level ->
              check_compiled_code (Compiler.compile ~program ~level m).Compiler.code)
            Plan.levels)
        program.Program.methods)
    Suites.all;
  for seed = 0 to 119 do
    let program = Helpers.gen_program (Int64.of_int (seed + 5)) in
    let level = Plan.levels.(seed mod Array.length Plan.levels) in
    Array.iter
      (fun m ->
        check_compiled_code ~meth:m (Lower.compile m);
        check_compiled_code (Compiler.compile ~program ~level m).Compiler.code)
      program.Program.methods
  done;
  (* the pair census takes a kind_count x kind_count matrix, and counts
     compiled code as it is dispatched *)
  (match Flat_interp.census [| 0 |] ignore with
  | () -> Alcotest.fail "the census took a 1-cell matrix"
  | exception Invalid_argument _ -> ());
  let program = Helpers.gen_program 5L in
  let compiled =
    (Compiler.compile ~program ~level:Plan.Hot
       (Program.meth program program.Program.entry))
      .Compiler.code
  in
  let ctx =
    {
      Interp.classes = program.Program.classes;
      charge = ignore;
      invoke = (fun _ _ -> Values.Void_v);
      fuel = ref 1_000;
    }
  in
  let pairs = Array.make (Prog.kind_count * Prog.kind_count) 0 in
  (try
     Flat_interp.census pairs (fun () ->
         ignore (Flat_interp.run ctx compiled (Helpers.entry_args 0)))
   with Interp.Out_of_fuel | Values.Trap _ -> ());
  let dispatched =
    let kinds = Array.make Prog.kind_count false in
    let pc = ref 0 in
    while !pc < Prog.code_size compiled do
      let i = compiled.Prog.instrs.(!pc) in
      kinds.(Prog.kind i) <- true;
      pc := !pc + Prog.width i
    done;
    kinds
  in
  Alcotest.(check bool) "the census counted pairs" true (Array.exists (fun n -> n > 0) pairs);
  Array.iteri
    (fun cell n ->
      if n > 0 then
        let a = cell / Prog.kind_count and b = cell mod Prog.kind_count in
        if not (dispatched.(a) && dispatched.(b)) then
          Alcotest.failf "the census counted %s -> %s" (Prog.kind_name a)
            (Prog.kind_name b))
    pairs

(* ---- newmultiarray bounds ----------------------------------------- *)

module Types = Tessera_il.Types
module Node = Tessera_il.Node

(* Each dimension is bounded before the two multiply: 2^32 * 2^31
   overflowed to 0, passed the check, and [Array.init] then asked for
   2^32 inner arrays. *)
let long v = Node.iconst Types.Long v

let int_array opcode dims =
  Node.mk ~sym:(Types.index Types.Int) opcode Types.Address dims

let array_length arr =
  Node.mk Tessera_il.Opcode.(Arrayop Array_length) Types.Int [| arr |]

(* a one-block method returning [value] *)
let value_program value =
  Program.make ~name:"arrays" ~entry:0
    [|
      Meth.make ~name:"M.m()I" ~params:[||] ~ret:Types.Int ~symbols:[||]
        [| Tessera_il.Block.make 0 [] (Tessera_il.Block.Return (Some value)) |];
    |]

(* [value]'s outcome on the tree walker, flat and fused interpreted
   code, and compiled code *)
let check_outcome name expected value =
  let program = value_program value in
  List.iter
    (fun (tier_name, tier) ->
      Alcotest.check ext_testable
        (Printf.sprintf "%s: %s" name tier_name)
        expected
        (fst (run_tier ~tier program [||])))
    [ ("tree", `Tree); ("flat", `Flat); ("fused", `Fused) ];
  Alcotest.check ext_testable
    (Printf.sprintf "%s: compiled" name)
    expected
    (Done (fst (Helpers.run_program ~compile:true program [||])))

let trap = Done (Error Values.Out_of_bounds)

let test_multiarray_bounds () =
  let check name expected (d1, d2) =
    check_outcome name expected
      (array_length
         (int_array Tessera_il.Opcode.Newmultiarray [| long d1; long d2 |]))
  in
  check "2^32 x 2^31 traps" trap (0x1_0000_0000L, 0x8000_0000L);
  check "2^31 x 2^32 traps" trap (0x8000_0000L, 0x1_0000_0000L);
  check "0 x 2^40 traps" trap (0L, 0x100_0000_0000L);
  check "2^20 x 2 traps" trap (0x10_0000L, 2L);
  (* compared as [int64]: converted first, the top bit would drop and
     leave 1024 *)
  check "(min_int + 1024) x 1024 traps" trap (Int64.add Int64.min_int 1024L, 1024L);
  check "1024 x (min_int + 1024) traps" trap (1024L, Int64.add Int64.min_int 1024L);
  check "1024 x 1024 allocates" (Done (Ok (Values.Int_v 1024L))) (1024L, 1024L)

(* A length or an index is compared as an [int64]: converted first, the
   top bit would drop and [Int64.min_int + k] would read as k. *)
let test_array_operands_int64 () =
  let min_plus k = Int64.add Int64.min_int k in
  let new_array len = int_array Tessera_il.Opcode.Newarray [| long len |] in
  let elem len idx = Node.mk Tessera_il.Opcode.Load Types.Int [| new_array len; long idx |] in
  check_outcome "newarray (min_int + 1024) traps" trap
    (array_length (new_array (min_plus 1024L)));
  check_outcome "newarray 1024 allocates" (Done (Ok (Values.Int_v 1024L)))
    (array_length (new_array 1024L));
  check_outcome "index (min_int + 3) of 4 traps" trap (elem 4L (min_plus 3L));
  check_outcome "index 3 of 4 loads" (Done (Ok (Values.Int_v 0L))) (elem 4L 3L)

let suite =
  [
    Alcotest.test_case "fuel boundary (tree)" `Quick test_fuel_boundary;
    Alcotest.test_case "clock reads: known answers" `Quick
      test_clock_read_known_answers;
    Alcotest.test_case "compiled code: compiled opcodes and leaves only" `Quick
      test_compiled_code_shape;
    Alcotest.test_case "fusion oracle: fused = unfused compiled code" `Quick
      test_fusion_oracle;
    Alcotest.test_case "fuse: first halves give back the unfused program" `Quick
      test_first_halves;
    Alcotest.test_case "newmultiarray: each dimension bounded" `Quick
      test_multiarray_bounds;
    Alcotest.test_case "array lengths and indices: compared as int64" `Quick
      test_array_operands_int64;
    Alcotest.test_case "fuel boundary (flat tiers)" `Quick
      test_fuel_boundary_flat;
    Alcotest.test_case "verifier rejects corruption" `Quick
      test_verifier_rejects_corruption;
    Alcotest.test_case "profile attribution: tree = flat = fused" `Quick
      test_profile_attribution;
    Alcotest.test_case "profile: known answers" `Quick test_profile_known_answers;
    Alcotest.test_case "engine parity flat vs tree" `Quick test_engine_parity;
    Alcotest.test_case "signed-zero constants: tree = flat = compiled" `Quick
      test_signed_zero_constants;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        test_fingerprint_memo ();
        test_differential ();
        test_differential_low_fuel ();
      ]
