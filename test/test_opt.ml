module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Node = Tessera_il.Node
module Block = Tessera_il.Block
module Meth = Tessera_il.Meth
module Symbol = Tessera_il.Symbol
module PL = Tessera_opt.Passes_local
module PB = Tessera_opt.Passes_block
module PLoop = Tessera_opt.Passes_loop
module PG = Tessera_opt.Passes_global
module Catalog = Tessera_opt.Catalog
module Plan = Tessera_opt.Plan
module Manager = Tessera_opt.Manager

let ic v = Node.iconst Types.Int (Int64.of_int v)
let ld s = Node.load_sym Types.Int s
let add a b = Node.binop Opcode.Add Types.Int a b
let mul a b = Node.binop Opcode.Mul Types.Int a b

let mk_method ?(symbols = [| Symbol.temp "t0" Types.Int; Symbol.temp "t1" Types.Int |])
    blocks =
  let m = Meth.make ~name:"T.t()I" ~params:[||] ~ret:Types.Int ~symbols blocks in
  Tessera_il.Validate.assert_valid_method m;
  m

let one_block ?symbols stmts ret =
  mk_method ?symbols [| Block.make 0 stmts (Block.Return (Some ret)) |]

let count_op m op =
  Meth.fold_nodes
    (fun acc (n : Node.t) -> if n.Node.op = op then acc + 1 else acc)
    0 m

let test_const_fold () =
  let m = one_block [] (add (ic 2) (mul (ic 3) (ic 4))) in
  let m' = PL.const_fold m in
  Alcotest.(check int) "folded to one const" 1 (Meth.tree_count m');
  Alcotest.(check int) "no adds left" 0 (count_op m' Opcode.Add);
  (* trapping division must not fold *)
  let m =
    one_block []
      (Node.binop Opcode.Div Types.Int (ic 1) (ic 0))
  in
  let m' = PL.const_fold m in
  Alcotest.(check int) "div by zero kept" 1 (count_op m' Opcode.Div)

let test_simplify_identities () =
  let x = ld 0 in
  let m = one_block [] (add x (ic 0)) in
  Alcotest.(check int) "x+0 = x" 1 (Meth.tree_count (PL.simplify m));
  let m = one_block [] (mul x (ic 1)) in
  Alcotest.(check int) "x*1 = x" 1 (Meth.tree_count (PL.simplify m));
  let m = one_block [] (mul x (ic 0)) in
  Alcotest.(check int) "x*0 = 0 (pure x)" 1 (Meth.tree_count (PL.simplify m));
  let m = one_block [] (Node.mk Opcode.Neg Types.Int [| Node.mk Opcode.Neg Types.Int [| x |] |]) in
  Alcotest.(check int) "neg neg x = x" 1 (Meth.tree_count (PL.simplify m));
  (* impure operand blocks x*0 *)
  let call = Node.call Types.Int ~callee:0 [||] in
  let m =
    mk_method
      [| Block.make 0 [] (Block.Return (Some (mul call (ic 0)))) |]
  in
  Alcotest.(check int) "impure x*0 kept" 1 (count_op (PL.simplify m) Opcode.Mul)

let test_strength_reduce () =
  let m = one_block [] (mul (ld 0) (ic 8)) in
  let m' = PL.strength_reduce m in
  Alcotest.(check int) "mul by 8 -> shift" 0 (count_op m' Opcode.Mul);
  Alcotest.(check int) "shift introduced" 1 (count_op m' (Opcode.Shift Opcode.Shl));
  let m = one_block [] (mul (ld 0) (ic 6)) in
  Alcotest.(check int) "mul by 6 kept" 1 (count_op (PL.strength_reduce m) Opcode.Mul)

let test_reassociate () =
  let m = one_block [] (add (add (ld 0) (ic 3)) (ic 4)) in
  let m' = PL.const_fold (PL.reassociate m) in
  (* (x+3)+4 -> x+7 *)
  Alcotest.(check int) "one add left" 1 (count_op m' Opcode.Add);
  Alcotest.(check int) "three nodes" 3 (Meth.tree_count m')

let test_induction_var () =
  let m =
    one_block
      [ Node.store_sym 0 (add (ld 0) (ic 1)) ]
      (ld 0)
  in
  let m' = PL.induction_var m in
  Alcotest.(check int) "store became inc" 1 (count_op m' Opcode.Inc);
  Alcotest.(check int) "store gone" 0 (count_op m' Opcode.Store)

let test_dead_code () =
  let m =
    one_block
      [
        ld 1 (* pure statement: dead tree *);
        Node.store_sym 1 (ic 7) (* t1 never loaded after: dead store *);
      ]
      (ld 0)
  in
  let m' = PB.dead_tree_elim m in
  Alcotest.(check int) "pure stmt dropped" 1
    (List.length m'.Meth.blocks.(0).Block.stmts);
  let m'' = PB.dead_store_elim m' in
  Alcotest.(check int) "dead store dropped" 0
    (List.length m''.Meth.blocks.(0).Block.stmts)

let test_local_cse () =
  let shared () = mul (ld 0) (add (ld 0) (ic 3)) in
  let m =
    mk_method
      ~symbols:[| Symbol.temp "a" Types.Int; Symbol.temp "b" Types.Int; Symbol.temp "c" Types.Int |]
      [|
        Block.make 0
          [
            Node.store_sym 1 (add (shared ()) (ic 1));
            Node.store_sym 2 (add (shared ()) (ic 2));
          ]
          (Block.Return (Some (add (ld 1) (ld 2))));
      |]
  in
  let m' = PB.local_cse m in
  Alcotest.(check bool) "introduced a cse temp" true
    (Array.length m'.Meth.symbols > Array.length m.Meth.symbols);
  Alcotest.(check bool) "fewer multiplies" true
    (count_op m' Opcode.Mul < count_op m Opcode.Mul)

let test_cse_respects_kills () =
  (* the shared expression reads t0, which is stored between uses *)
  let shared () = mul (ld 0) (ic 5) in
  let m =
    mk_method
      ~symbols:[| Symbol.temp "a" Types.Int; Symbol.temp "b" Types.Int; Symbol.temp "c" Types.Int |]
      [|
        Block.make 0
          [
            Node.store_sym 1 (add (shared ()) (ic 1));
            Node.store_sym 0 (ic 9);
            Node.store_sym 2 (add (shared ()) (ic 2));
          ]
          (Block.Return (Some (add (ld 1) (ld 2))));
      |]
  in
  let m' = PB.local_cse m in
  Alcotest.(check int) "both multiplies kept" 2 (count_op m' Opcode.Mul)

let test_copy_and_const_prop () =
  let m =
    one_block
      [ Node.store_sym 1 (ic 5); Node.store_sym 0 (add (ld 1) (ld 1)) ]
      (ld 0)
  in
  let m' = PL.const_fold (PB.local_const_prop m) in
  (* t1=5; t0 = 5+5 -> 10 *)
  let has_ten =
    Meth.fold_nodes
      (fun acc (n : Node.t) ->
        acc || (n.Node.op = Opcode.Loadconst && n.Node.const = 10L))
      false m'
  in
  Alcotest.(check bool) "const propagated and folded" true has_ten

let test_branch_fold () =
  let m =
    mk_method
      [|
        Block.make 0 [] (Block.If { cond = ic 1; if_true = 1; if_false = 2 });
        Block.make 1 [] (Block.Return (Some (ic 10)));
        Block.make 2 [] (Block.Return (Some (ic 20)));
      |]
  in
  let m' = PB.unreachable_elim (PB.branch_fold m) in
  Alcotest.(check int) "one path left" 2 (Array.length m'.Meth.blocks)

let test_block_merge () =
  let m =
    mk_method
      [|
        Block.make 0 [ Node.store_sym 0 (ic 1) ] (Block.Goto 1);
        Block.make 1 [ Node.store_sym 1 (ic 2) ] (Block.Return (Some (ld 0)));
      |]
  in
  let m' = PB.block_merge m in
  Alcotest.(check int) "merged to one block" 1 (Array.length m'.Meth.blocks);
  Alcotest.(check int) "both stmts kept" 2
    (List.length m'.Meth.blocks.(0).Block.stmts)

let test_throw_to_goto () =
  let m =
    mk_method
      [|
        Block.make 0 [] (Block.Goto 1);
        Block.make ~handler:(Some 2) 1 []
          (Block.Throw (Node.mk Opcode.Throw_op Types.Void [||]));
        Block.make 2 [] (Block.Return (Some (ic 7)));
      |]
  in
  let m' = PB.throw_to_goto m in
  (match m'.Meth.blocks.(1).Block.term with
  | Block.Goto 2 -> ()
  | _ -> Alcotest.fail "throw not rewritten to goto handler");
  (* without a handler the throw must stay *)
  let m2 =
    mk_method
      [|
        Block.make 0 []
          (Block.Throw (Node.mk Opcode.Throw_op Types.Void [||]));
      |]
  in
  match (PB.throw_to_goto m2).Meth.blocks.(0).Block.term with
  | Block.Throw _ -> ()
  | _ -> Alcotest.fail "handler-less throw must be preserved"

let counted_loop ?(ret_sym = 1) ~body_stmts () =
  (* i = 0; do { body; i++ } while (i < 10) *)
  mk_method
    ~symbols:
      [| Symbol.temp "i" Types.Int; Symbol.temp "acc" Types.Int;
         Symbol.temp "x" Types.Int; Symbol.temp "out" Types.Int |]
    [|
      Block.make 0 [ Node.store_sym 0 (ic 0); Node.store_sym 2 (ic 3) ] (Block.Goto 1);
      Block.make 1
        (body_stmts @ [ Node.mk ~sym:0 ~const:1L Opcode.Inc Types.Void [||] ])
        (Block.If
           {
             cond = Node.binop (Opcode.Compare Opcode.Lt) Types.Int (ld 0) (ic 10);
             if_true = 1;
             if_false = 2;
           });
      Block.make 2 [] (Block.Return (Some (ld ret_sym)));
    |]

let test_licm_hoists () =
  (* acc is loop-local (loaded only inside the loop), defined from the
     loop-invariant x; the loop's visible result accumulates into out *)
  let m =
    counted_loop ~ret_sym:3
      ~body_stmts:
        [
          Node.store_sym 1 (mul (ld 2) (ic 7));
          Node.store_sym 3 (add (ld 3) (ld 1));
        ]
      ()
  in
  let m' = PLoop.licm m in
  Alcotest.(check bool) "a block was added (preheader)" true
    (Array.length m'.Meth.blocks > Array.length m.Meth.blocks);
  (* the multiply no longer sits in a loop block *)
  let la = Tessera_opt.Loops.analyze m' in
  let in_loop = List.concat_map (fun l -> l.Tessera_opt.Loops.body) la.Tessera_opt.Loops.loops in
  let mul_in_loop =
    Array.exists
      (fun (b : Block.t) ->
        List.mem b.Block.id in_loop
        && List.exists
             (fun s -> Node.exists (fun n -> n.Node.op = Opcode.Mul) s)
             b.Block.stmts)
      m'.Meth.blocks
  in
  Alcotest.(check bool) "invariant hoisted out of loop" false mul_in_loop

let test_licm_respects_variance () =
  (* body multiplies by i, which the loop stores: must NOT hoist *)
  let m = counted_loop ~body_stmts:[ Node.store_sym 1 (mul (ld 0) (ic 7)) ] () in
  let m' = PLoop.licm m in
  Alcotest.(check int) "no preheader added" (Array.length m.Meth.blocks)
    (Array.length m'.Meth.blocks)

let test_unroll () =
  let m = counted_loop ~body_stmts:[ Node.store_sym 1 (add (ld 1) (ld 0)) ] () in
  let m' = PLoop.unroll ~factor:2 m in
  Alcotest.(check int) "one copy appended"
    (Array.length m.Meth.blocks + 1)
    (Array.length m'.Meth.blocks)

let test_catalog_shape () =
  Alcotest.(check int) "58 transformations" 58 Catalog.count;
  let names = Hashtbl.create 64 in
  Array.iter
    (fun (e : Catalog.entry) ->
      Alcotest.(check bool)
        (e.Catalog.name ^ " unique")
        false
        (Hashtbl.mem names e.Catalog.name);
      Hashtbl.add names e.Catalog.name ();
      Alcotest.(check bool) "by_name finds it" true
        (Catalog.by_name e.Catalog.name <> None))
    Catalog.all

let test_plan_sizes () =
  Alcotest.(check int) "cold has ~20 applications" 20 (Plan.plan_length Plan.Cold);
  Alcotest.(check bool) "scorching has > 170" true
    (Plan.plan_length Plan.Scorching > 170);
  (* monotone growth *)
  let sizes = Array.map Plan.plan_length Plan.levels in
  Array.iteri
    (fun i s -> if i > 0 then Alcotest.(check bool) "monotone" true (s > sizes.(i - 1)))
    sizes;
  (* every plan index is a valid catalogue index *)
  Array.iter
    (fun level ->
      List.iter
        (fun i ->
          Alcotest.(check bool) "index valid" true (i >= 0 && i < Catalog.count))
        (Plan.plan level))
    Plan.levels

let test_manager_accounting () =
  let m = counted_loop ~body_stmts:[ Node.store_sym 1 (add (ld 1) (ld 0)) ] () in
  let program = Tessera_il.Program.make ~name:"p" ~entry:0 [| m |] in
  let full = Manager.optimize ~program ~plan:(Plan.plan Plan.Hot) m in
  Alcotest.(check bool) "cycles positive" true (Manager.total_cycles full > 0);
  Alcotest.(check int) "nothing disabled" 0 (List.length full.Manager.disabled);
  (* disabling everything must cost less and run nothing *)
  let none =
    Manager.optimize ~enabled:(fun _ -> false) ~program ~plan:(Plan.plan Plan.Hot) m
  in
  Alcotest.(check int) "all disabled" (Plan.plan_length Plan.Hot)
    (List.length none.Manager.disabled);
  Alcotest.(check (list int)) "none applied" [] none.Manager.applied;
  Alcotest.(check bool) "cheaper" true
    (Manager.total_cycles none < Manager.total_cycles full);
  Alcotest.(check bool) "method untouched" true (Meth.equal m none.Manager.meth);
  (* applicability: a loop-free method skips loop passes *)
  let flat = one_block [] (ld 0) in
  let program = Tessera_il.Program.make ~name:"p" ~entry:0 [| flat |] in
  let r = Manager.optimize ~program ~plan:[ 27; 28; 29; 30 ] flat in
  Alcotest.(check int) "loop passes skipped" 4
    (List.length r.Manager.skipped_inapplicable)

let test_quality_floor () =
  let m = one_block [] (ld 0) in
  let program = Tessera_il.Program.make ~name:"p" ~entry:0 [| m |] in
  let r =
    Manager.optimize ~quality_floor:Tessera_vm.Cost.Q_regalloc ~program
      ~plan:[ 0 ] m
  in
  Alcotest.(check bool) "floor respected" true
    (Tessera_vm.Cost.quality_rank r.Manager.quality
    >= Tessera_vm.Cost.quality_rank Tessera_vm.Cost.Q_regalloc)

let test_dominators () =
  (* diamond: 0 -> 1,2 -> 3; no back edges *)
  let m =
    mk_method
      [|
        Block.make 0 [] (Block.If { cond = ld 0; if_true = 1; if_false = 2 });
        Block.make 1 [] (Block.Goto 3);
        Block.make 2 [] (Block.Goto 3);
        Block.make 3 [] (Block.Return (Some (ld 0)));
      |]
  in
  let dom = Tessera_opt.Cfg.dominators m in
  Alcotest.(check (array int)) "immediate dominators" [| 0; 0; 0; 0 |] dom;
  Alcotest.(check bool) "entry dominates all" true
    (Tessera_opt.Cfg.dominates dom 0 3);
  Alcotest.(check bool) "1 does not dominate 3" false
    (Tessera_opt.Cfg.dominates dom 1 3);
  Alcotest.(check bool) "no back edge 1->3" false
    (Tessera_opt.Cfg.dominates dom 3 1);
  (* renumbered join: edge from higher id to lower id is NOT a back edge *)
  let m2 =
    mk_method
      [|
        Block.make 0 [] (Block.If { cond = ld 0; if_true = 1; if_false = 3 });
        Block.make 1 [] (Block.Goto 2);
        Block.make 2 [] (Block.Return (Some (ld 0)));
        Block.make 3 [] (Block.Goto 2);
      |]
  in
  let dom2 = Tessera_opt.Cfg.dominators m2 in
  Alcotest.(check bool) "3 -> 2 is not a back edge" false
    (Tessera_opt.Cfg.dominates dom2 2 3);
  let la = Tessera_opt.Loops.analyze m2 in
  Alcotest.(check int) "no loops found" 0 (Tessera_opt.Loops.loop_count la)

let test_loop_analysis () =
  let m = counted_loop ~body_stmts:[] () in
  let la = Tessera_opt.Loops.analyze m in
  Alcotest.(check int) "one loop" 1 (Tessera_opt.Loops.loop_count la);
  Alcotest.(check int) "depth 1" 1 (Tessera_opt.Loops.max_depth la);
  let l = List.hd la.Tessera_opt.Loops.loops in
  Alcotest.(check int) "header is block 1" 1 l.Tessera_opt.Loops.header;
  Alcotest.(check bool) "self loop" true (Tessera_opt.Loops.is_self_loop m l)

let suite =
  [
    Alcotest.test_case "const fold" `Quick test_const_fold;
    Alcotest.test_case "simplify identities" `Quick test_simplify_identities;
    Alcotest.test_case "strength reduction" `Quick test_strength_reduce;
    Alcotest.test_case "reassociation" `Quick test_reassociate;
    Alcotest.test_case "induction variables" `Quick test_induction_var;
    Alcotest.test_case "dead code" `Quick test_dead_code;
    Alcotest.test_case "local CSE" `Quick test_local_cse;
    Alcotest.test_case "CSE kill sets" `Quick test_cse_respects_kills;
    Alcotest.test_case "const propagation" `Quick test_copy_and_const_prop;
    Alcotest.test_case "branch folding" `Quick test_branch_fold;
    Alcotest.test_case "block merging" `Quick test_block_merge;
    Alcotest.test_case "throw to goto" `Quick test_throw_to_goto;
    Alcotest.test_case "LICM hoists invariants" `Quick test_licm_hoists;
    Alcotest.test_case "LICM respects variance" `Quick test_licm_respects_variance;
    Alcotest.test_case "unrolling" `Quick test_unroll;
    Alcotest.test_case "catalogue shape" `Quick test_catalog_shape;
    Alcotest.test_case "plan sizes" `Quick test_plan_sizes;
    Alcotest.test_case "manager accounting" `Quick test_manager_accounting;
    Alcotest.test_case "quality floor" `Quick test_quality_floor;
    Alcotest.test_case "dominators" `Quick test_dominators;
    Alcotest.test_case "loop analysis" `Quick test_loop_analysis;
  ]

let test_overwritten_store_elim () =
  (* t0 <- expensive; t0 <- cheap; return t0  => first store dies *)
  let m =
    one_block
      [
        Node.store_sym 0 (mul (ic 3) (ic 4));
        Node.store_sym 0 (ic 7);
      ]
      (ld 0)
  in
  let m' = PB.dead_store_elim m in
  Alcotest.(check int) "one store left" 1 (count_op m' Opcode.Store);
  (* a read between the stores keeps both *)
  let m2 =
    one_block
      [
        Node.store_sym 0 (ic 1);
        Node.store_sym 1 (ld 0);
        Node.store_sym 0 (ic 2);
      ]
      (add (ld 0) (ld 1))
  in
  Alcotest.(check int) "read preserves both" 3
    (count_op (PB.dead_store_elim m2) Opcode.Store);
  (* an Inc reads its symbol: the prior store stays *)
  let m3 =
    one_block
      [
        Node.store_sym 0 (ic 1);
        Node.mk ~sym:0 ~const:1L Opcode.Inc Types.Void [||];
        Node.store_sym 0 (ic 2);
      ]
      (ld 0)
  in
  Alcotest.(check int) "inc counts as a read" 2
    (count_op (PB.dead_store_elim m3) Opcode.Store)

let suite =
  suite
  @ [
      Alcotest.test_case "overwritten-store elimination" `Quick
        test_overwritten_store_elim;
    ]

(* Catalog-wide differential + lint oracle: every transformation, run
   alone over every method of a generated program, must preserve the
   interpreted result AND audit clean under the translation-validation
   lint. *)
let test_catalog_differential_with_lint () =
  QCheck.Test.make ~count:4
    ~name:"catalog: each pass preserves results and lint cleanliness"
    (QCheck.make ~print:Int64.to_string
       QCheck.Gen.(map Int64.of_int (int_range 0 1_000_000)))
    (fun seed ->
      let program = Helpers.gen_program seed in
      let args = Helpers.entry_args 1 in
      let baseline, _ = Helpers.run_program program args in
      Array.for_all
        (fun (e : Catalog.entry) ->
          let diags = ref [] in
          let audit =
            Tessera_analysis.Lint.auditor
              ~on_diagnostic:(fun d -> diags := d :: !diags)
              program
          in
          let transform _id m =
            (Manager.optimize ~audit ~program ~plan:[ e.Catalog.index ] m)
              .Manager.meth
          in
          let outcome, _ = Helpers.run_program ~transform program args in
          match !diags with
          | d :: _ ->
              QCheck.Test.fail_reportf "seed %Ld, pass %s: lint diagnostic %s"
                seed e.Catalog.name
                (Format.asprintf "%a" Tessera_analysis.Lint.pp_diagnostic d)
          | [] ->
              if Helpers.outcome_equal baseline outcome then true
              else
                QCheck.Test.fail_reportf
                  "seed %Ld, pass %s: outcome changed from %a to %a" seed
                  e.Catalog.name Helpers.pp_outcome baseline Helpers.pp_outcome
                  outcome)
        Catalog.all)

let suite =
  suite @ [ QCheck_alcotest.to_alcotest (test_catalog_differential_with_lint ()) ]

(* ---- optimizer known answers -------------------------------------

   One md5 over [Manager.optimize] then [Lower.compile] of every method
   of the 20 suite programs (method counts scaled down), at every level,
   under the null modifier and two seeded random ones: the optimized
   method's fingerprint, the compiled program (its md5 over
   [Helpers.render_code]), the opt/front/back cycles, the quality tier
   and the applied/skipped/disabled lists.  Its first digest was
   recorded before the optimizer learned to hand back unchanged
   methods, so sharing may move no answer; the rendering took the place
   of the bytes of the stack-machine code compiled code used to be while
   that code was still translated to the rendered program at its first
   run; this one, rendering superinstructions as their first halves,
   was recorded before compiled code had a fusion table of its own. *)

module Program = Tessera_il.Program
module Suites = Tessera_workloads.Suites
module Profile = Tessera_workloads.Profile
module Modifier = Tessera_modifiers.Modifier

let known_answer_programs () =
  List.map
    (fun (b : Suites.bench) ->
      let p = b.Suites.profile in
      Tessera_workloads.Generate.program
        { p with Profile.methods = max 2 (p.Profile.methods / 3) })
    Suites.all

let quality_floor_of level =
  match level with
  | Plan.Cold | Plan.Warm -> Tessera_vm.Cost.Q_base
  | Plan.Hot | Plan.Very_hot | Plan.Scorching -> Tessera_vm.Cost.Q_regalloc

let optimizer_digest () =
  let buf = Buffer.create (1 lsl 20) in
  let ints l = String.concat "," (List.map string_of_int l) in
  let modifiers = Helpers.known_answer_modifiers () in
  List.iter
    (fun (program : Program.t) ->
      Array.iteri
        (fun id m ->
          Array.iter
            (fun level ->
              List.iteri
                (fun mi modifier ->
                  let r =
                    Manager.optimize
                      ~enabled:(Modifier.enabled_fun modifier)
                      ~quality_floor:(quality_floor_of level) ~program
                      ~plan:(Plan.plan level) m
                  in
                  let code =
                    Tessera_flat.Lower.compile ~quality:r.Manager.quality
                      r.Manager.meth
                  in
                  Printf.bprintf buf
                    "%s %d %s %d %Lx %d %d %d %d [%s] [%s] [%s] %s\n"
                    program.Program.name id (Plan.level_name level) mi
                    (Meth.fingerprint r.Manager.meth)
                    r.Manager.opt_cycles r.Manager.front_cycles
                    r.Manager.back_cycles
                    (Tessera_vm.Cost.quality_rank r.Manager.quality)
                    (ints r.Manager.applied)
                    (ints r.Manager.skipped_inapplicable)
                    (ints r.Manager.disabled)
                    (Digest.to_hex (Digest.string (Helpers.render_code code))))
                modifiers)
            Plan.levels)
        program.Program.methods)
    (known_answer_programs ());
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_optimizer_known_answers () =
  Alcotest.(check string) "md5 over every optimized and lowered suite method"
    "687ec672d6948f5517a910dcd0a3a61c" (optimizer_digest ())

let suite =
  suite
  @ [
      Alcotest.test_case "optimizer known answers" `Quick
        test_optimizer_known_answers;
    ]

(* ---- traits once per version, unchanged methods come back as themselves

   [Catalog.traits_of] is now one allocation-free walk; the definition
   it replaced stays here as the reference.  Every method version that
   [optimize] produces (the input and each pass's result) must get the
   same traits from both, and every pass application whose result is
   strictly equal to its input (structure, flags, block frequencies and
   handlers, symbols) must hand back the input itself. *)

let reference_traits (m : Meth.t) : Catalog.traits =
  let nodes = ref 0 in
  let has_allocs = ref false
  and has_sync = ref m.Meth.attrs.Meth.synchronized
  and has_arrays = ref false
  and has_calls = ref false
  and has_casts = ref false
  and has_decimals = ref false
  and has_longdouble = ref false
  and has_fp = ref false
  and has_objects = ref false
  and has_mixed = ref false
  and has_heap_loads = ref false
  and has_throws = ref false in
  Meth.fold_nodes
    (fun () (n : Node.t) ->
      incr nodes;
      (match n.Node.ty with
      | Types.Float_ | Types.Double -> has_fp := true
      | Types.Long_double ->
          has_fp := true;
          has_longdouble := true
      | Types.Packed_decimal | Types.Zoned_decimal -> has_decimals := true
      | Types.Object_ -> has_objects := true
      | Types.Address -> has_arrays := true
      | _ -> ());
      match n.Node.op with
      | Opcode.New | Opcode.Newarray | Opcode.Newmultiarray ->
          has_allocs := true
      | Opcode.Synchronization _ -> has_sync := true
      | Opcode.Arrayop _ -> has_arrays := true
      | Opcode.Call -> has_calls := true
      | Opcode.Cast _ -> has_casts := true
      | Opcode.Mixedop -> has_mixed := true
      | Opcode.Instanceof -> has_objects := true
      | Opcode.Throw_op -> has_throws := true
      | Opcode.Load when Array.length n.Node.args > 0 -> has_heap_loads := true
      | _ -> ())
    () m;
  Array.iter
    (fun (b : Block.t) ->
      match b.Block.term with Block.Throw _ -> has_throws := true | _ -> ())
    m.Meth.blocks;
  {
    Catalog.nodes = !nodes;
    has_loops =
      Array.exists
        (fun (b : Block.t) ->
          List.exists (fun s -> s <= b.Block.id) (Block.successors b))
        m.Meth.blocks;
    has_allocs = !has_allocs;
    has_sync = !has_sync;
    has_arrays = !has_arrays;
    has_handlers = Meth.exception_handler_count m > 0;
    has_calls = !has_calls;
    has_casts = !has_casts;
    has_decimals = !has_decimals;
    has_longdouble = !has_longdouble;
    has_fp = !has_fp;
    has_objects = !has_objects;
    has_mixed = !has_mixed;
    has_heap_loads = !has_heap_loads;
    has_throws = !has_throws;
    uses_bigdecimal = m.Meth.attrs.Meth.uses_bigdecimal;
    uses_unsafe = m.Meth.attrs.Meth.uses_unsafe;
  }

(* [Node.structural_equal] plus flags, node by node *)
let rec strict_node_equal (a : Node.t) (b : Node.t) =
  Opcode.equal a.Node.op b.Node.op
  && Types.equal a.Node.ty b.Node.ty
  && a.Node.sym = b.Node.sym
  && Int64.equal a.Node.const b.Node.const
  && a.Node.flags = b.Node.flags
  && Array.length a.Node.args = Array.length b.Node.args
  && Array.for_all2 strict_node_equal a.Node.args b.Node.args

let strict_term_equal (a : Block.terminator) (b : Block.terminator) =
  match (a, b) with
  | Block.Goto x, Block.Goto y -> x = y
  | Block.If x, Block.If y ->
      x.if_true = y.if_true && x.if_false = y.if_false
      && strict_node_equal x.cond y.cond
  | Block.Return None, Block.Return None -> true
  | Block.Return (Some x), Block.Return (Some y)
  | Block.Throw x, Block.Throw y ->
      strict_node_equal x y
  | _ -> false

(* [Meth.equal] (signature, symbols, block ids and handlers, trees) plus
   flags and block frequencies *)
let strict_equal (a : Meth.t) (b : Meth.t) =
  Meth.equal a b
  && Array.for_all2
       (fun (x : Block.t) (y : Block.t) ->
         Int64.equal (Int64.bits_of_float x.Block.freq)
           (Int64.bits_of_float y.Block.freq)
         && List.for_all2 strict_node_equal x.Block.stmts y.Block.stmts
         && strict_term_equal x.Block.term y.Block.term)
       a.Meth.blocks b.Meth.blocks

let test_traits_oracle_and_sharing () =
  let versions = ref 0 and applications = ref 0 and physical = ref 0 in
  let check_traits what (m : Meth.t) =
    incr versions;
    if Catalog.traits_of m <> reference_traits m then
      Alcotest.failf "%s: traits of %s differ from the reference" what
        m.Meth.name
  in
  let sweep name (program : Program.t) modifiers =
    let audit ~pass_index:_ ~pass_name ~before ~after =
      incr applications;
      if after == before then incr physical
      else begin
        check_traits name after;
        if strict_equal before after then
          Alcotest.failf "%s: %s rebuilt %s unchanged instead of returning it"
            name pass_name before.Meth.name
      end
    in
    Array.iter
      (fun m ->
        check_traits name m;
        Array.iter
          (fun level ->
            List.iter
              (fun modifier ->
                ignore
                  (Manager.optimize ~audit
                     ~enabled:(Modifier.enabled_fun modifier)
                     ~quality_floor:(quality_floor_of level) ~program
                     ~plan:(Plan.plan level) m))
              modifiers)
          Plan.levels)
      program.Program.methods
  in
  List.iter
    (fun (p : Program.t) -> sweep p.Program.name p (Helpers.known_answer_modifiers ()))
    (known_answer_programs ());
  for i = 0 to 99 do
    sweep
      (Printf.sprintf "generated %d" i)
      (Helpers.gen_program (Int64.of_int (9_100 + i)))
      [ Modifier.null ]
  done;
  (* the sweep saw real work and real sharing *)
  Alcotest.(check bool) "many versions" true (!versions > 10_000);
  Alcotest.(check bool) "most applications share" true
    (!physical * 2 > !applications)

let suite =
  suite
  @ [
      Alcotest.test_case "traits oracle and sharing invariant" `Quick
        test_traits_oracle_and_sharing;
    ]

(* ---- loops on an immediate-dominator tree -------------------------

   [Cfg.dominators] is an immediate-dominator array (Cooper, Harvey and
   Kennedy); the n×n boolean matrix it replaced, found by fixpoint over
   the same edges (normal and handler, from block 0), stays here as the
   reference, with the loop analysis built on it.  Every method version
   that [optimize] produces must get the same dominance relation and the
   same loops from both. *)

(* [d.(b).(x)] iff [x] dominates [b]; unreachable blocks are dominated by
   everything *)
let reference_dominators (m : Meth.t) =
  let n = Array.length m.Meth.blocks in
  let succs =
    Array.map
      (fun (b : Block.t) ->
        match b.Block.handler with
        | Some h -> h :: Block.successors b
        | None -> Block.successors b)
      m.Meth.blocks
  in
  let preds = Array.make n [] in
  Array.iteri
    (fun b ts -> List.iter (fun t -> preds.(t) <- b :: preds.(t)) ts)
    succs;
  let dom = Array.init n (fun _ -> Array.make n true) in
  if n > 0 then begin
    for x = 0 to n - 1 do
      dom.(0).(x) <- x = 0
    done;
    let changed = ref true in
    while !changed do
      changed := false;
      for b = 1 to n - 1 do
        match preds.(b) with
        | [] -> ()
        | ps ->
            for x = 0 to n - 1 do
              let inter = x = b || List.for_all (fun p -> dom.(p).(x)) ps in
              if dom.(b).(x) <> inter then begin
                dom.(b).(x) <- inter;
                changed := true
              end
            done
      done
    done
  end;
  dom

let reference_loops (m : Meth.t) : Tessera_opt.Loops.t =
  let module Cfg = Tessera_opt.Cfg in
  let module Loops = Tessera_opt.Loops in
  let n = Array.length m.Meth.blocks in
  let cfg = Cfg.build m in
  let dom = reference_dominators m in
  let back_edges = ref [] in
  Array.iteri
    (fun b succs ->
      List.iter
        (fun h ->
          if dom.(b).(h) && cfg.Cfg.reachable.(b) then
            back_edges := (b, h) :: !back_edges)
        succs)
    cfg.Cfg.succs;
  let loop_of (b, h) =
    let in_loop = Array.make n false in
    in_loop.(h) <- true;
    let rec pull x =
      if not in_loop.(x) then begin
        in_loop.(x) <- true;
        List.iter pull cfg.Cfg.preds.(x)
      end
    in
    pull b;
    let body = ref [] in
    for i = n - 1 downto 0 do
      if in_loop.(i) then body := i :: !body
    done;
    (h, !body)
  in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let h, body = loop_of e in
      let prev = try Hashtbl.find tbl h with Not_found -> [] in
      Hashtbl.replace tbl h (List.sort_uniq compare (prev @ body)))
    !back_edges;
  let depth_of = Array.make n 0 in
  Hashtbl.iter
    (fun _ body -> List.iter (fun b -> depth_of.(b) <- depth_of.(b) + 1) body)
    tbl;
  let loops =
    Hashtbl.fold
      (fun header body acc ->
        { Loops.header; body; depth = depth_of.(header) } :: acc)
      tbl []
    |> List.sort (fun a b -> compare a.Loops.header b.Loops.header)
  in
  { Loops.loops; depth_of }

let check_loops what (m : Meth.t) =
  let idom = Tessera_opt.Cfg.dominators m in
  let dom = reference_dominators m in
  Array.iteri
    (fun b row ->
      Array.iteri
        (fun x d ->
          if Tessera_opt.Cfg.dominates idom x b <> d then
            Alcotest.failf "%s: %s: does %d dominate %d? matrix %b" what
              m.Meth.name x b d)
        row)
    dom;
  if Tessera_opt.Loops.analyze m <> reference_loops m then
    Alcotest.failf "%s: loops of %s differ from the reference" what
      m.Meth.name

let test_loops_hand_built () =
  let ret = Block.Return (Some (ld 0)) in
  let branch t f = Block.If { cond = ld 0; if_true = t; if_false = f } in
  let case what ~idom ~loops blocks =
    let m = mk_method blocks in
    check_loops what m;
    Alcotest.(check (array int)) (what ^ ": immediate dominators") idom
      (Tessera_opt.Cfg.dominators m);
    Alcotest.(check (list (pair int (list int))))
      (what ^ ": loops") loops
      (List.map
         (fun (l : Tessera_opt.Loops.loop) ->
           (l.Tessera_opt.Loops.header, l.Tessera_opt.Loops.body))
         (Tessera_opt.Loops.analyze m).Tessera_opt.Loops.loops)
  in
  case "unreachable cycle" ~idom:[| 0; -1; -1 |] ~loops:[]
    [| Block.make 0 [] ret; Block.make 1 [] (Block.Goto 2);
       Block.make 2 [] (Block.Goto 1) |];
  (* 2 and 3 are reached only through 1's handler edge *)
  case "reached through a handler" ~idom:[| 0; 0; 1; 2; 3 |]
    ~loops:[ (2, [ 2; 3 ]) ]
    [| Block.make 0 [] (Block.Goto 1);
       Block.make ~handler:(Some 2) 1 [] ret;
       Block.make 2 [] (Block.Goto 3);
       Block.make 3 [] (branch 2 4);
       Block.make 4 [] ret |];
  case "self-loop" ~idom:[| 0; 0; 1 |] ~loops:[ (1, [ 1 ]) ]
    [| Block.make 0 [] (Block.Goto 1); Block.make 1 [] (branch 1 2);
       Block.make 2 [] ret |];
  case "back edge to block 0" ~idom:[| 0; 0; 1 |] ~loops:[ (0, [ 0; 1 ]) ]
    [| Block.make 0 [] (Block.Goto 1); Block.make 1 [] (branch 0 2);
       Block.make 2 [] ret |];
  (* 1 and 2 enter each other's cycle from 0: no natural loop, but the
     cycle through 3 and back to 0 is one *)
  case "irreducible region" ~idom:[| 0; 0; 0; 2; 3 |]
    ~loops:[ (0, [ 0; 1; 2; 3 ]) ]
    [| Block.make 0 [] (branch 1 2); Block.make 1 [] (Block.Goto 2);
       Block.make 2 [] (branch 1 3); Block.make 3 [] (branch 0 4);
       Block.make 4 [] ret |]

let test_loops_oracle () =
  let versions = ref 0 in
  let check what m =
    incr versions;
    check_loops what m
  in
  let sweep name (program : Program.t) =
    let audit ~pass_index:_ ~pass_name ~before ~after =
      if after != before then check (name ^ " after " ^ pass_name) after
    in
    Array.iter
      (fun m ->
        check name m;
        Array.iter
          (fun level ->
            ignore
              (Manager.optimize ~audit ~quality_floor:(quality_floor_of level)
                 ~program ~plan:(Plan.plan level) m))
          Plan.levels)
      program.Program.methods
  in
  List.iter
    (fun (p : Program.t) -> sweep p.Program.name p)
    (known_answer_programs ());
  for i = 0 to 99 do
    sweep
      (Printf.sprintf "generated %d" i)
      (Helpers.gen_program (Int64.of_int (9_300 + i)))
  done;
  Alcotest.(check bool) "many versions" true (!versions > 20_000)

let suite =
  suite
  @ [
      Alcotest.test_case "loops: hand-built dominator cases" `Quick
        test_loops_hand_built;
      Alcotest.test_case "loops: idom tree = dominator-matrix oracle" `Quick
        test_loops_oracle;
    ]
