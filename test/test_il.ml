module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Node = Tessera_il.Node
module Block = Tessera_il.Block
module Meth = Tessera_il.Meth
module Symbol = Tessera_il.Symbol
module Validate = Tessera_il.Validate
module Program = Tessera_il.Program

let test_types_table () =
  Alcotest.(check int) "14 types" 14 Types.count;
  Array.iter
    (fun t ->
      Alcotest.(check bool)
        (Types.name t ^ " name roundtrip")
        true
        (Types.of_name (Types.name t) = Some t);
      Alcotest.(check bool) "index roundtrip" true
        (Types.of_index (Types.index t) = t))
    Types.all;
  Alcotest.(check bool) "byte integral" true (Types.is_integral Types.Byte);
  Alcotest.(check bool) "packed integral" true
    (Types.is_integral Types.Packed_decimal);
  Alcotest.(check bool) "longdouble floating" true
    (Types.is_floating Types.Long_double);
  Alcotest.(check bool) "address reference" true (Types.is_reference Types.Address)

let test_opcode_groups () =
  Alcotest.(check int) "38 groups" 38 Opcode.group_count;
  (* every group index is produced by at least one opcode *)
  let covered = Array.make Opcode.group_count false in
  List.iter
    (fun op -> covered.(Opcode.group op) <- true)
    [
      Opcode.Add; Opcode.Sub; Opcode.Mul; Opcode.Div; Opcode.Rem; Opcode.Neg;
      Opcode.Shift Opcode.Shl; Opcode.Or; Opcode.And; Opcode.Xor; Opcode.Inc;
      Opcode.Compare Opcode.Eq; Opcode.Cast Opcode.C_byte;
      Opcode.Cast Opcode.C_char; Opcode.Cast Opcode.C_short;
      Opcode.Cast Opcode.C_int; Opcode.Cast Opcode.C_long;
      Opcode.Cast Opcode.C_float; Opcode.Cast Opcode.C_double;
      Opcode.Cast Opcode.C_longdouble; Opcode.Cast Opcode.C_address;
      Opcode.Cast Opcode.C_object; Opcode.Cast Opcode.C_packed;
      Opcode.Cast Opcode.C_zoned; Opcode.Cast Opcode.C_check; Opcode.Load;
      Opcode.Loadconst; Opcode.Store; Opcode.New; Opcode.Newarray;
      Opcode.Newmultiarray; Opcode.Instanceof;
      Opcode.Synchronization Opcode.Monitor_enter; Opcode.Throw_op;
      Opcode.Branch_op; Opcode.Call; Opcode.Arrayop Opcode.Bounds_check;
      Opcode.Mixedop;
    ];
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "group %d (%s) covered" i (Opcode.group_name i)) true c)
    covered;
  (* refinements collapse into one group *)
  Alcotest.(check int) "shl = shr group"
    (Opcode.group (Opcode.Shift Opcode.Shl))
    (Opcode.group (Opcode.Shift Opcode.Ushr));
  Alcotest.(check int) "eq = lt group"
    (Opcode.group (Opcode.Compare Opcode.Eq))
    (Opcode.group (Opcode.Compare Opcode.Lt))

let test_opcode_name_roundtrip () =
  Alcotest.(check int) "every opcode, once" 49
    (List.length (List.sort_uniq compare Opcode.all_simple));
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Opcode.name op ^ " roundtrip")
        true
        (Opcode.of_name (Opcode.name op) = Some op))
    Opcode.all_simple;
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " is no opcode") true (Opcode.of_name s = None))
    [ ""; "cmp."; "cmp.lt "; "ADD"; "cast"; "monitor" ]

let test_node_structure () =
  let a = Node.iconst Types.Int 1L in
  let b = Node.iconst Types.Int 1L in
  let sum = Node.binop Opcode.Add Types.Int a b in
  Alcotest.(check int) "size" 3 (Node.size sum);
  Alcotest.(check bool) "structural equal ignores uid" true
    (Node.structural_equal a b);
  Alcotest.(check bool) "different const differ" false
    (Node.structural_equal a (Node.iconst Types.Int 2L));
  Alcotest.(check bool) "hash agrees" true
    (Node.structural_hash a = Node.structural_hash b);
  (* map_bottom_up identity preserves uids *)
  let sum' = Node.map_bottom_up Fun.id sum in
  Alcotest.(check bool) "identity map physical" true (sum' == sum);
  (* flags survive with_flags and keep uid *)
  let flagged = Node.with_flags sum Node.flag_stack_alloc in
  Alcotest.(check bool) "flag set" true (Node.has_flag flagged Node.flag_stack_alloc);
  Alcotest.(check int) "uid stable" sum.Node.uid flagged.Node.uid

let test_node_purity () =
  let pure = Node.binop Opcode.Add Types.Int (Node.iconst Types.Int 1L) (Node.iconst Types.Int 2L) in
  Alcotest.(check bool) "add pure" true (Node.subtree_pure pure);
  let div0 =
    Node.binop Opcode.Div Types.Int (Node.iconst Types.Int 1L) (Node.iconst Types.Int 0L)
  in
  Alcotest.(check bool) "div by zero const impure" false (Node.subtree_pure div0);
  let divc =
    Node.binop Opcode.Div Types.Int (Node.iconst Types.Int 1L) (Node.iconst Types.Int 2L)
  in
  Alcotest.(check bool) "div by nonzero const pure" true (Node.subtree_pure divc);
  let fdiv =
    Node.binop Opcode.Div Types.Double (Node.fconst Types.Double 1.0)
      (Node.fconst Types.Double 0.0)
  in
  Alcotest.(check bool) "fp div pure" true (Node.subtree_pure fdiv);
  Alcotest.(check bool) "call impure" false
    (Node.subtree_pure (Node.call Types.Int ~callee:0 [||]))

let simple_method ?(ret = Types.Int) blocks symbols =
  Meth.make ~name:"T.m()I" ~params:[||] ~ret ~symbols blocks

let test_block_successors () =
  let b_goto = Block.make 0 [] (Block.Goto 3) in
  Alcotest.(check (list int)) "goto" [ 3 ] (Block.successors b_goto);
  let cond = Node.iconst Types.Int 1L in
  let b_if = Block.make 0 [] (Block.If { cond; if_true = 1; if_false = 2 }) in
  Alcotest.(check (list int)) "if" [ 1; 2 ] (Block.successors b_if);
  let b_if_same = Block.make 0 [] (Block.If { cond; if_true = 1; if_false = 1 }) in
  Alcotest.(check (list int)) "if same target deduped" [ 1 ] (Block.successors b_if_same);
  let b_ret = Block.make 0 [] (Block.Return None) in
  Alcotest.(check (list int)) "return" [] (Block.successors b_ret)

let test_meth_helpers () =
  let symbols = [| Symbol.arg "a" Types.Int; Symbol.temp "t" Types.Int |] in
  let body =
    [|
      Block.make 0
        [ Node.store_sym 1 (Node.load_sym Types.Int 0) ]
        (Block.Goto 1);
      Block.make 1 [] (Block.If
        { cond = Node.load_sym Types.Int 1; if_true = 1; if_false = 2 });
      Block.make 2 [] (Block.Return (Some (Node.load_sym Types.Int 1)));
    |]
  in
  let m = Meth.make ~name:"T.f(I)I" ~params:[| Types.Int |] ~ret:Types.Int ~symbols body in
  Alcotest.(check int) "args" 1 (Meth.arg_count m);
  Alcotest.(check int) "temps" 1 (Meth.temp_count m);
  Alcotest.(check bool) "backward branch" true (Meth.has_backward_branch m);
  Alcotest.(check int) "handlers" 0 (Meth.exception_handler_count m);
  Alcotest.(check int) "tree count" 4 (Meth.tree_count m)

let test_validate_catches () =
  let bad_target =
    simple_method
      [| Block.make 0 [] (Block.Goto 7) |]
      [||]
  in
  Alcotest.(check bool) "branch target oob" true
    (Validate.check_method bad_target <> []);
  let bad_sym =
    simple_method
      [| Block.make 0 [ Node.store_sym 3 (Node.iconst Types.Int 0L) ] (Block.Return (Some (Node.iconst Types.Int 0L))) |]
      [||]
  in
  Alcotest.(check bool) "symbol oob" true (Validate.check_method bad_sym <> []);
  let bad_arity =
    simple_method
      [| Block.make 0
           [ Node.mk Opcode.Add Types.Int [| Node.iconst Types.Int 1L |] ]
           (Block.Return (Some (Node.iconst Types.Int 0L))) |]
      [||]
  in
  Alcotest.(check bool) "bad arity" true (Validate.check_method bad_arity <> []);
  let void_return =
    simple_method ~ret:Types.Void
      [| Block.make 0 [] (Block.Return (Some (Node.iconst Types.Int 0L))) |]
      [||]
  in
  Alcotest.(check bool) "value return from void" true
    (Validate.check_method void_return <> []);
  let ok =
    simple_method
      [| Block.make 0 [] (Block.Return (Some (Node.iconst Types.Int 0L))) |]
      [||]
  in
  Alcotest.(check (list string)) "valid method accepted" []
    (List.map (fun e -> Format.asprintf "%a" Validate.pp_error e)
       (Validate.check_method ok))

let test_program_lookup () =
  let m name =
    Meth.make ~name ~params:[||] ~ret:Types.Void ~symbols:[||]
      [| Block.make 0 [] (Block.Return None) |]
  in
  let p = Program.make ~name:"p" ~entry:0 [| m "A.a()V"; m "B.b()V" |] in
  Alcotest.(check (option int)) "find" (Some 1) (Program.find_method p "B.b()V");
  Alcotest.(check (option int)) "missing" None (Program.find_method p "C.c()V");
  Alcotest.check_raises "entry oob"
    (Invalid_argument "Program.make: entry method id out of range") (fun () ->
      ignore (Program.make ~name:"p" ~entry:5 [| m "A.a()V" |]))

let test_generated_programs_valid () =
  List.iter
    (fun (b : Tessera_workloads.Suites.bench) ->
      let p =
        Tessera_workloads.Generate.program
          b.Tessera_workloads.Suites.profile
      in
      Alcotest.(check (list string))
        (b.Tessera_workloads.Suites.profile.Tessera_workloads.Profile.name
        ^ " valid")
        []
        (List.map
           (fun e -> Format.asprintf "%a" Validate.pp_error e)
           (Validate.check_program p)))
    Tessera_workloads.Suites.all

let suite =
  [
    Alcotest.test_case "types table" `Quick test_types_table;
    Alcotest.test_case "opcode groups" `Quick test_opcode_groups;
    Alcotest.test_case "opcode name roundtrip" `Quick test_opcode_name_roundtrip;
    Alcotest.test_case "node structure" `Quick test_node_structure;
    Alcotest.test_case "node purity" `Quick test_node_purity;
    Alcotest.test_case "block successors" `Quick test_block_successors;
    Alcotest.test_case "method helpers" `Quick test_meth_helpers;
    Alcotest.test_case "validator catches bad IR" `Quick test_validate_catches;
    Alcotest.test_case "program lookup" `Quick test_program_lookup;
    Alcotest.test_case "all suite programs validate" `Slow
      test_generated_programs_valid;
  ]

(* ---- allocation-free walks keep their answers ---------------------

   [Node.structural_hash] used to hash a freshly built tuple with
   [Hashtbl.hash]; it now mixes the same words itself.  The old
   definition stays here as the reference: every opcode and type, edge
   constants and symbols, and every node of every suite program. *)

let rec reference_hash (n : Node.t) =
  let h =
    Hashtbl.hash
      (Opcode.name n.Node.op, Types.index n.Node.ty, n.Node.sym, n.Node.const)
  in
  Array.fold_left (fun acc k -> (acc * 31) + reference_hash k) h n.Node.args

let all_opcodes =
  let open Opcode in
  [ Add; Sub; Mul; Div; Rem; Neg; Or; And; Xor; Inc; Load; Loadconst; Store;
    New; Newarray; Newmultiarray; Instanceof; Throw_op; Branch_op; Call;
    Mixedop ]
  @ List.map (fun d -> Shift d) [ Shl; Shr; Ushr ]
  @ List.map (fun c -> Compare c) [ Eq; Ne; Lt; Le; Gt; Ge ]
  @ List.map (fun k -> Cast k)
      [ C_byte; C_char; C_short; C_int; C_long; C_float; C_double;
        C_longdouble; C_address; C_object; C_packed; C_zoned; C_check ]
  @ List.map (fun s -> Synchronization s) [ Monitor_enter; Monitor_exit ]
  @ List.map (fun k -> Arrayop k)
      [ Bounds_check; Array_copy; Array_cmp; Array_length ]

let test_structural_hash_oracle () =
  let check (n : Node.t) =
    if Node.structural_hash n <> reference_hash n then
      Alcotest.failf "structural_hash of %a: %d, Hashtbl.hash gives %d" Node.pp
        n (Node.structural_hash n) (reference_hash n)
  in
  let consts =
    [ 0L; 1L; -1L; 255L; 65536L; 0x7fff_ffffL; 0x8000_0000L; -0x8000_0000L;
      0x1_0000_0001L; Int64.max_int; Int64.min_int; Int64.bits_of_float 2.5 ]
  in
  let syms =
    [ -1; 0; 1; 77; 0x3fff_ffff; 0x4000_0000; -0x4000_0001; max_int; min_int ]
  in
  List.iter
    (fun op ->
      Array.iter
        (fun ty ->
          List.iter (fun const -> check (Node.mk ~const op ty [||])) consts;
          List.iter (fun sym -> check (Node.mk ~sym op ty [||])) syms)
        Types.all)
    all_opcodes;
  let leaf = Node.iconst Types.Int 3L in
  check
    (Node.mk Opcode.Call Types.Long [| leaf; Node.load_sym Types.Int 2; leaf |]);
  List.iter
    (fun (b : Tessera_workloads.Suites.bench) ->
      let p =
        Tessera_workloads.Generate.program b.Tessera_workloads.Suites.profile
      in
      Array.iter
        (fun m -> Meth.fold_nodes (fun () n -> check n) () m)
        p.Program.methods)
    Tessera_workloads.Suites.all

let suite =
  suite
  @ [
      Alcotest.test_case "structural hash = Hashtbl.hash reference" `Quick
        test_structural_hash_oracle;
    ]
