module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Node = Tessera_il.Node
module Block = Tessera_il.Block
module Meth = Tessera_il.Meth
module Symbol = Tessera_il.Symbol
module Prog = Tessera_flat.Prog
module Lower = Tessera_flat.Lower
module Values = Tessera_vm.Values
module Cost = Tessera_vm.Cost
module Interp = Tessera_vm.Interp
module Flat_interp = Tessera_flat.Interp

let ic v = Node.iconst Types.Int (Int64.of_int v)

(* compiled code runs on the flat loop, as in the engine *)
let exec ?(classes = [||]) code args =
  let cycles = ref 0 in
  Flat_interp.run
    {
      Interp.classes;
      charge = (fun n -> cycles := !cycles + n);
      invoke = (fun _ _ -> Alcotest.fail "unexpected call");
      fuel = ref 1_000_000;
    }
    code args
  |> fun v -> (v, !cycles)

let simple ret_expr =
  Meth.make ~name:"C.c()I" ~params:[||] ~ret:Types.Int ~symbols:[||]
    [| Block.make 0 [] (Block.Return (Some ret_expr)) |]

let test_lowering_shape () =
  (* return 2+3: const, const, add, ret = 4 instructions *)
  let c = Lower.compile (simple (Node.binop Opcode.Add Types.Int (ic 2) (ic 3))) in
  Alcotest.(check int) "instruction count" 4 (Prog.code_size c);
  let v, _ = exec c [||] in
  Alcotest.(check bool) "value" true (Values.equal v (Values.Int_v 5L))

let test_jump_patching () =
  (* if (1) return 10 else return 20, with blocks out of fallthrough order *)
  let m =
    Meth.make ~name:"J.j()I" ~params:[||] ~ret:Types.Int ~symbols:[||]
      [|
        Block.make 0 [] (Block.If { cond = ic 0; if_true = 2; if_false = 1 });
        Block.make 1 [] (Block.Return (Some (ic 20)));
        Block.make 2 [] (Block.Return (Some (ic 10)));
      |]
  in
  let c = Lower.compile m in
  let v, _ = exec c [||] in
  Alcotest.(check bool) "took else branch" true (Values.equal v (Values.Int_v 20L));
  (* every jump target lands on a block entry *)
  Array.iter
    (function
      | Prog.C_jmp (_, t) | Prog.C_br_false (_, t) ->
          Alcotest.(check bool) "target is an entry" true
            (Array.mem t c.Prog.block_entry)
      | _ -> ())
    c.Prog.instrs

let test_regalloc_quality_costs () =
  let m =
    Meth.make ~name:"Q.q()I" ~params:[||] ~ret:Types.Int
      ~symbols:[| Symbol.temp "t" Types.Int |]
      [|
        Block.make 0
          [ Node.store_sym 0 (ic 7) ]
          (Block.Return (Some (Node.load_sym Types.Int 0)));
      |]
  in
  let base = Lower.compile ~quality:Cost.Q_base m in
  let fast = Lower.compile ~quality:Cost.Q_regalloc m in
  let _, cb = exec base [||] in
  let _, cf = exec fast [||] in
  Alcotest.(check bool) "register allocation lowers the cost" true (cf < cb)

let test_flag_discount_in_code () =
  let alloc = Node.mk ~sym:(Types.index Types.Int) Opcode.Newarray Types.Address [| ic 4 |] in
  let flagged = Node.with_flags alloc Node.flag_stack_alloc in
  let plain = Lower.compile (simple (Node.mk Opcode.(Arrayop Array_length) Types.Int [| alloc |])) in
  let cheap = Lower.compile (simple (Node.mk Opcode.(Arrayop Array_length) Types.Int [| flagged |])) in
  let va, ca = exec plain [||] and vb, cb = exec cheap [||] in
  Alcotest.(check bool) "stack-allocation flag discounts cycles" true (cb < ca);
  (* semantics identical *)
  Alcotest.(check bool) "same value" true (Values.equal va vb)

let test_handler_dispatch_in_native_code () =
  (* div by zero in block 0 jumps to handler block 1 *)
  let m =
    Meth.make ~name:"H.h()I" ~params:[||] ~ret:Types.Int
      ~symbols:[| Symbol.temp "r" Types.Int |]
      [|
        Block.make ~handler:(Some 1) 0
          [ Node.store_sym 0 (Node.binop Opcode.Div Types.Int (ic 1) (ic 0)) ]
          (Block.Return (Some (ic 111)));
        Block.make 1 [] (Block.Return (Some (ic 222)));
      |]
  in
  let c = Lower.compile m in
  let v, _ = exec c [||] in
  Alcotest.(check bool) "handler caught the trap" true
    (Values.equal v (Values.Int_v 222L));
  (* without a handler, the trap escapes *)
  let m2 =
    Meth.make ~name:"H.h2()I" ~params:[||] ~ret:Types.Int
      ~symbols:[| Symbol.temp "r" Types.Int |]
      [|
        Block.make 0
          [ Node.store_sym 0 (Node.binop Opcode.Div Types.Int (ic 1) (ic 0)) ]
          (Block.Return (Some (ic 111)));
      |]
  in
  Alcotest.check_raises "escapes" (Values.Trap Values.Div_by_zero) (fun () ->
      ignore (exec (Lower.compile m2) [||]))

let test_return_coercion () =
  (* method declared byte-returning must truncate *)
  let m =
    Meth.make ~name:"B.b()B" ~params:[||] ~ret:Types.Byte ~symbols:[||]
      [| Block.make 0 [] (Block.Return (Some (Node.iconst Types.Byte 0x1FFL))) |]
  in
  let v, _ = exec (Lower.compile m) [||] in
  Alcotest.(check bool) "byte truncation on return" true
    (Values.equal v (Values.Int_v (-1L)))

let test_argument_coercion () =
  let m =
    Meth.make ~name:"A.a(B)I" ~params:[| Types.Byte |] ~ret:Types.Int
      ~symbols:[| Symbol.arg "x" Types.Byte |]
      [|
        Block.make 0 []
          (Block.Return
             (Some (Node.mk Opcode.(Cast C_int) Types.Int
                      [| Node.load_sym Types.Byte 0 |])));
      |]
  in
  let v, _ = exec (Lower.compile m) [| Values.Int_v 300L |] in
  (* 300 truncated into a byte is 44 *)
  Alcotest.(check bool) "argument truncated at entry" true
    (Values.equal v (Values.Int_v 44L))

let test_fallthrough_gotos_cost_nothing () =
  let m =
    Meth.make ~name:"F.f()I" ~params:[||] ~ret:Types.Int ~symbols:[||]
      [|
        Block.make 0 [] (Block.Goto 1);
        Block.make 1 [] (Block.Return (Some (ic 1)));
      |]
  in
  let c = Lower.compile m in
  let fallthrough_jump_costs =
    Array.to_list
      (Array.mapi
         (fun pc instr ->
           match instr with Prog.C_jmp (cost, t) when t = pc + 1 -> cost | _ -> -1)
         c.Prog.instrs)
    |> List.filter (fun x -> x >= 0)
  in
  Alcotest.(check (list int)) "fallthrough jump is free" [ 0 ] fallthrough_jump_costs

(* ---- known answers of compiled code ------------------------------

   One digest over every suite benchmark at every level (null modifier,
   entry argument 0, every method compiled): the outcome, the charged
   cycles and the fuel used of each run.  The constant was computed on
   the separate executor that ran compiled code before it moved to the
   flat loop, so it pins that executor's answers. *)

module Compiler = Tessera_jit.Compiler
module Plan = Tessera_opt.Plan
module Program = Tessera_il.Program
module Suites = Tessera_workloads.Suites

let known_answer_fuel = 200_000_000

let run_all_compiled ~level (program : Program.t) args =
  let codes =
    Array.map
      (fun m -> (Compiler.compile ~program ~level m).Compiler.code)
      program.Program.methods
  in
  let cycles = ref 0 in
  let fuel = ref known_answer_fuel in
  let rec invoke id args =
    Flat_interp.run
      {
        Interp.classes = program.Program.classes;
        charge = (fun n -> cycles := !cycles + n);
        invoke;
        fuel;
      }
      codes.(id) args
  in
  let outcome =
    match invoke program.Program.entry args with
    | v -> Printf.sprintf "ok:%Ld" (Values.checksum v)
    | exception Values.Trap k -> "trap:" ^ Values.trap_name k
    | exception Interp.Out_of_fuel -> "fuel"
  in
  (outcome, !cycles, known_answer_fuel - !fuel)

let known_answer_digest () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (b : Suites.bench) ->
      let b = Suites.scale_bench b 0.05 in
      let program = Tessera_workloads.Generate.program b.Suites.profile in
      Array.iter
        (fun level ->
          let outcome, cycles, fuel_used =
            run_all_compiled ~level program [| Values.Int_v 0L |]
          in
          Printf.bprintf buf "%s %s %s %d %d\n"
            b.Suites.profile.Tessera_workloads.Profile.name
            (Plan.level_name level) outcome cycles fuel_used)
        Plan.levels)
    Suites.all;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_known_answers () =
  Alcotest.(check string) "compiled-code answers" "20e61a3586c602d2de28d2014c5e73f6"
    (known_answer_digest ())

(* ---- known answers of compiled programs ----------------------------

   One md5 over the rendering ([Helpers.render_code]) of the compiled
   code of every method of the 20 suite programs, at every level, under
   the null modifier and two seeded random ones: every instruction the
   code generator emits with its operands (a superinstruction renders
   as its first half), the constant pool by bits, and every table the
   loop reads.  Its first digest was recorded when the code generator
   emitted a stack-machine form translated to this one at its first
   run, so the code generator's own output is that translation; this
   one, rendering superinstructions as their first halves, was recorded
   before compiled code had a fusion table of its own, so that table
   moves no instruction the code generator emits. *)

let compiled_programs_digest () =
  let buf = Buffer.create (1 lsl 20) in
  let modifiers = Helpers.known_answer_modifiers () in
  List.iter
    (fun (b : Suites.bench) ->
      let program = Tessera_workloads.Generate.program b.Suites.profile in
      Array.iter
        (fun m ->
          Array.iter
            (fun level ->
              List.iter
                (fun modifier ->
                  let c = Compiler.compile ~modifier ~program ~level m in
                  Buffer.add_string buf (Helpers.render_code c.Compiler.code))
                modifiers)
            Plan.levels)
        program.Program.methods)
    Suites.all;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_compiled_programs () =
  Alcotest.(check string) "rendered compiled programs" "3b582e7fae0358e60f33c527b80497cb"
    (compiled_programs_digest ())

let suite =
  [
    Alcotest.test_case "lowering shape" `Quick test_lowering_shape;
    Alcotest.test_case "jump patching" `Quick test_jump_patching;
    Alcotest.test_case "regalloc quality costs" `Quick test_regalloc_quality_costs;
    Alcotest.test_case "flag discounts reach the code" `Quick
      test_flag_discount_in_code;
    Alcotest.test_case "native handler dispatch" `Quick
      test_handler_dispatch_in_native_code;
    Alcotest.test_case "return coercion" `Quick test_return_coercion;
    Alcotest.test_case "argument coercion" `Quick test_argument_coercion;
    Alcotest.test_case "fallthrough gotos are free" `Quick
      test_fallthrough_gotos_cost_nothing;
    Alcotest.test_case "compiled-code known answers" `Quick test_known_answers;
    Alcotest.test_case "compiled programs: known answers" `Quick
      test_compiled_programs;
  ]
