module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Node = Tessera_il.Node
module Block = Tessera_il.Block
module Meth = Tessera_il.Meth
module Symbol = Tessera_il.Symbol
module Features = Tessera_features.Features

let test_dimensions () =
  (* the paper's 71 plus the analysis-derived components *)
  Alcotest.(check int) "76 features" 76 Features.dim;
  Alcotest.(check int) "19 scalars" 19 Features.scalar_count;
  Alcotest.(check int) "5 analysis components" 5 Features.analysis_count;
  (* 19 + 14 + 38 + 5 = 76 *)
  Alcotest.(check int) "scalar + types + ops + analysis"
    (Features.scalar_count + Types.count + Opcode.group_count
   + Features.analysis_count)
    Features.dim

let test_component_names_unique () =
  let seen = Hashtbl.create 71 in
  for i = 0 to Features.dim - 1 do
    let n = Features.component_name i in
    Alcotest.(check bool) (n ^ " unique") false (Hashtbl.mem seen n);
    Hashtbl.add seen n ()
  done;
  Alcotest.(check string) "0" "exceptionHandlers" (Features.component_name 0);
  Alcotest.(check string) "3" "treeNodes" (Features.component_name 3);
  Alcotest.(check string) "19" "type:byte" (Features.component_name 19);
  Alcotest.(check string) "33" "op:add" (Features.component_name 33);
  Alcotest.(check string) "70" "op:mixedops" (Features.component_name 70);
  Alcotest.(check string) "71" "dataflow:live_slot_pressure"
    (Features.component_name 71);
  Alcotest.(check string) "75" "dataflow:reaching_def_density"
    (Features.component_name 75)

let handmade =
  let symbols = [| Symbol.arg "a" Types.Int; Symbol.temp "t" Types.Double |] in
  let attrs = { Meth.default_attrs with Meth.synchronized = true; uses_bigdecimal = true } in
  let fconst = Node.fconst Types.Double 1.5 in
  Meth.make ~attrs ~name:"F.f(I)I" ~params:[| Types.Int |] ~ret:Types.Int ~symbols
    [|
      Block.make 0
        [
          Node.store_sym 1 (Node.binop Opcode.Mul Types.Double fconst fconst);
        ]
        (Block.Goto 1);
      Block.make 1 []
        (Block.If
           {
             cond =
               Node.binop (Opcode.Compare Opcode.Lt) Types.Int
                 (Node.load_sym Types.Int 0) (Node.iconst Types.Int 100L);
             if_true = 1;
             if_false = 2;
           });
      Block.make 2 [] (Block.Return (Some (Node.load_sym Types.Int 0)));
    |]

let get_named f name =
  let rec find i =
    if i >= Features.dim then Alcotest.fail ("no component " ^ name)
    else if Features.component_name i = name then Features.get f i
    else find (i + 1)
  in
  find 0

let test_extraction () =
  let f = Features.extract handmade in
  Alcotest.(check int) "arguments" 1 (get_named f "arguments");
  Alcotest.(check int) "temporaries" 1 (get_named f "temporaries");
  Alcotest.(check int) "synchronized" 1 (get_named f "synchronized");
  Alcotest.(check int) "usesBigDecimal" 1 (get_named f "usesBigDecimal");
  Alcotest.(check int) "usesFloatingPoint" 1 (get_named f "usesFloatingPoint");
  Alcotest.(check int) "mayHaveLoops" 1 (get_named f "mayHaveLoops");
  (* loop bound 100 exceeds the many-iteration threshold (64) *)
  Alcotest.(check int) "manyIterationLoops" 1 (get_named f "manyIterationLoops");
  Alcotest.(check int) "allocates" 0 (get_named f "allocatesDynamicMemory");
  Alcotest.(check int) "treeNodes matches" (Meth.tree_count handmade)
    (get_named f "treeNodes");
  Alcotest.(check int) "op:mul counted" 1 (get_named f "op:mul");
  Alcotest.(check int) "type:double counted" 3 (get_named f "type:double");
  (* determinism *)
  Alcotest.(check bool) "deterministic" true
    (Features.equal f (Features.extract handmade))

let test_saturation () =
  (* 300 adds saturate the 8-bit op counter at 255 *)
  let rec chain n acc =
    if n = 0 then acc
    else
      chain (n - 1)
        (Node.binop Opcode.Add Types.Int acc (Node.iconst Types.Int 1L))
  in
  let m =
    Meth.make ~name:"S.s()I" ~params:[||] ~ret:Types.Int ~symbols:[||]
      [| Block.make 0 [] (Block.Return (Some (chain 300 (Node.iconst Types.Int 0L)))) |]
  in
  let f = Features.extract m in
  Alcotest.(check int) "op:add saturates at 255" 255 (get_named f "op:add");
  Alcotest.(check bool) "type counter is 16-bit" true
    (get_named f "type:int" > 255)

let test_of_array_validation () =
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Features.of_array: wrong length") (fun () ->
      ignore (Features.of_array [| 1; 2; 3 |]));
  let f = Features.extract handmade in
  let f' = Features.of_array (Features.to_array f) in
  Alcotest.(check bool) "roundtrip" true (Features.equal f f')

let test_compare_lexicographic () =
  let a = Features.of_array (Array.make Features.dim 0) in
  let b =
    Features.of_array (Array.init Features.dim (fun i -> if i = 0 then 1 else 0))
  in
  Alcotest.(check bool) "a < b" true (Features.compare a b < 0);
  Alcotest.(check int) "reflexive" 0 (Features.compare a a)

let test_loop_classes () =
  let module Triggers = Tessera_jit.Triggers in
  Alcotest.(check bool) "handmade is many-iterations" true
    (Triggers.loop_class_of handmade = Triggers.Many_iterations);
  let flat =
    Meth.make ~name:"L.l()V" ~params:[||] ~ret:Types.Void ~symbols:[||]
      [| Block.make 0 [] (Block.Return None) |]
  in
  Alcotest.(check bool) "flat has no loops" true
    (Triggers.loop_class_of flat = Triggers.No_loops);
  (* triggers order: many-iteration loops compile soonest *)
  List.iter
    (fun level ->
      let t c = Triggers.trigger level c in
      Alcotest.(check bool) "many < loops" true
        (t Triggers.Many_iterations < t Triggers.Has_loops);
      Alcotest.(check bool) "loops < none" true
        (t Triggers.Has_loops < t Triggers.No_loops))
    (Array.to_list Tessera_opt.Plan.levels)

(* ---- loop classes without dataflow, and feature known answers ----- *)

module Program = Tessera_il.Program
module Suites = Tessera_workloads.Suites
module Profile = Tessera_workloads.Profile

let suite_programs () =
  List.map
    (fun (b : Suites.bench) ->
      ( b.Suites.profile.Profile.name,
        Tessera_workloads.Generate.program b.Suites.profile ))
    Suites.all

(* small generated programs spread over the loop knobs (loop and nest
   biases, trip scale), beyond the suite's own settings *)
let generated_programs () =
  List.init 120 (fun i ->
      Tessera_workloads.Generate.program
        {
          Profile.default with
          Profile.name = Printf.sprintf "loops%d" i;
          seed = Int64.of_int (7_000 + i);
          methods = 6;
          loop_bias = float_of_int (i mod 4) /. 3.0;
          nest_bias = float_of_int (i mod 3) /. 3.0;
          trip_scale = [| 0.05; 0.3; 1.0; 4.0 |].(i / 4 mod 4);
        })

(* The trigger ladder reads only the three loop scalars, so it skips the
   dataflow analyses of a full extraction; both must classify alike. *)
let test_loop_class_oracle () =
  let module Triggers = Tessera_jit.Triggers in
  let seen = Hashtbl.create 3 in
  let check_program name (p : Program.t) =
    Array.iter
      (fun (m : Meth.t) ->
        let direct = Triggers.loop_class_of m in
        Hashtbl.replace seen direct ();
        if direct <> Triggers.loop_class_of_features (Features.extract m) then
          Alcotest.failf "%s: %s classified apart from its extracted features"
            name m.Meth.name)
      p.Program.methods
  in
  List.iter (fun (name, p) -> check_program name p) (suite_programs ());
  List.iteri
    (fun i p -> check_program (Printf.sprintf "generated %d" i) p)
    (generated_programs ());
  Alcotest.(check int) "all three loop classes occur" 3 (Hashtbl.length seen)

(* One md5 over [extract ~program] of every method of the 20 suite
   programs, recorded before the engine memoized extraction: no
   feature value may move. *)
let test_known_answers () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (name, (program : Program.t)) ->
      Array.iteri
        (fun id m ->
          Printf.bprintf buf "%s %d" name id;
          Array.iter (Printf.bprintf buf " %d")
            (Features.to_array (Features.extract ~program m));
          Buffer.add_char buf '\n')
        program.Program.methods)
    (suite_programs ());
  Alcotest.(check string) "md5 over every suite method's features"
    "c704c8d9c355c41cd3ddbf81c6c9e07b"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  [
    Alcotest.test_case "dimensions" `Quick test_dimensions;
    Alcotest.test_case "component names" `Quick test_component_names_unique;
    Alcotest.test_case "extraction" `Quick test_extraction;
    Alcotest.test_case "counter saturation" `Quick test_saturation;
    Alcotest.test_case "of_array validation" `Quick test_of_array_validation;
    Alcotest.test_case "lexicographic compare" `Quick test_compare_lexicographic;
    Alcotest.test_case "loop classes and triggers" `Quick test_loop_classes;
    Alcotest.test_case "loop class: attributes agree with extraction" `Quick
      test_loop_class_oracle;
    Alcotest.test_case "suite features: known answers" `Quick test_known_answers;
  ]
