module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Values = Tessera_vm.Values
module Semantics = Tessera_vm.Semantics
module Clock = Tessera_vm.Clock
module Cost = Tessera_vm.Cost
open Values

let test_truncate () =
  Alcotest.(check int64) "byte wrap" (-128L) (Semantics.truncate Types.Byte 128L);
  Alcotest.(check int64) "byte -1" (-1L) (Semantics.truncate Types.Byte 255L);
  Alcotest.(check int64) "char zero extends" 65535L (Semantics.truncate Types.Char (-1L));
  Alcotest.(check int64) "short sign" (-32768L) (Semantics.truncate Types.Short 32768L);
  Alcotest.(check int64) "int wrap" (-2147483648L) (Semantics.truncate Types.Int 2147483648L);
  Alcotest.(check int64) "long identity" Int64.max_int
    (Semantics.truncate Types.Long Int64.max_int);
  Alcotest.(check int64) "packed is 64-bit" (-7L) (Semantics.truncate Types.Packed_decimal (-7L))

let test_binop_semantics () =
  let i v = Int_v v in
  Alcotest.(check bool) "add wraps at type" true
    (Values.equal (Semantics.binop Opcode.Add Types.Byte (i 100L) (i 100L)) (i (-56L)));
  Alcotest.(check bool) "div" true
    (Values.equal (Semantics.binop Opcode.Div Types.Int (i 7L) (i 2L)) (i 3L));
  Alcotest.check_raises "div by zero" (Trap Div_by_zero) (fun () ->
      ignore (Semantics.binop Opcode.Div Types.Int (i 1L) (i 0L)));
  Alcotest.check_raises "rem by zero" (Trap Div_by_zero) (fun () ->
      ignore (Semantics.binop Opcode.Rem Types.Int (i 1L) (i 0L)));
  Alcotest.(check bool) "fp div by zero is inf" true
    (match Semantics.binop Opcode.Div Types.Double (Float_v 1.0) (Float_v 0.0) with
    | Float_v f -> f = infinity
    | _ -> false);
  Alcotest.(check bool) "compare lt" true
    (Values.equal (Semantics.binop (Opcode.Compare Opcode.Lt) Types.Int (i 1L) (i 2L)) (i 1L));
  Alcotest.(check bool) "shift masks amount" true
    (Values.equal
       (Semantics.binop (Opcode.Shift Opcode.Shl) Types.Long (i 1L) (i 65L))
       (i 2L))

let test_array_semantics () =
  let arr = Semantics.new_array ~elem:Types.Int (Int_v 4L) in
  Semantics.elem_store arr (Int_v 2L) (Int_v 99L);
  Alcotest.(check bool) "elem load" true
    (Values.equal (Semantics.elem_load arr (Int_v 2L)) (Int_v 99L));
  Alcotest.check_raises "oob" (Trap Out_of_bounds) (fun () ->
      ignore (Semantics.elem_load arr (Int_v 4L)));
  Alcotest.check_raises "negative" (Trap Out_of_bounds) (fun () ->
      ignore (Semantics.elem_load arr (Int_v (-1L))));
  Alcotest.check_raises "null deref" (Trap Null_deref) (fun () ->
      ignore (Semantics.elem_load Null_v (Int_v 0L)));
  Alcotest.check_raises "negative length" (Trap Out_of_bounds) (fun () ->
      ignore (Semantics.new_array ~elem:Types.Int (Int_v (-3L))));
  Alcotest.(check bool) "length" true
    (Values.equal (Semantics.array_length arr) (Int_v 4L));
  (* copy *)
  let dst = Semantics.new_array ~elem:Types.Int (Int_v 4L) in
  let copied = Semantics.array_copy arr dst (Int_v 4L) in
  Alcotest.(check int) "copied count" 4 copied;
  Alcotest.(check bool) "copied data" true
    (Values.equal (Semantics.elem_load dst (Int_v 2L)) (Int_v 99L));
  Alcotest.check_raises "copy oob" (Trap Out_of_bounds) (fun () ->
      ignore (Semantics.array_copy arr dst (Int_v 5L)));
  (* cmp *)
  let r, _ = Semantics.array_cmp arr dst in
  Alcotest.(check bool) "equal arrays cmp 0" true (Values.equal r (Int_v 0L));
  Semantics.elem_store dst (Int_v 0L) (Int_v 1L);
  let r, _ = Semantics.array_cmp arr dst in
  Alcotest.(check bool) "different arrays cmp nonzero" false (Values.equal r (Int_v 0L))

let classes =
  [|
    Tessera_il.Classdef.make "Base" [| Types.Int |];
    Tessera_il.Classdef.make ~parent:0 "Derived" [| Types.Int; Types.Double |];
  |]

let test_object_semantics () =
  let o = Semantics.new_obj ~classes 1 in
  Semantics.field_store o 1 (Float_v 2.5);
  Alcotest.(check bool) "field" true
    (Values.equal (Semantics.field_load o 1) (Float_v 2.5));
  Alcotest.check_raises "null field" (Trap Null_deref) (fun () ->
      ignore (Semantics.field_load Null_v 0));
  Alcotest.(check bool) "instanceof subclass" true
    (Values.equal (Semantics.instanceof ~classes 0 o) (Int_v 1L));
  Alcotest.(check bool) "instanceof not super" true
    (Values.equal
       (Semantics.instanceof ~classes 1 (Semantics.new_obj ~classes 0))
       (Int_v 0L));
  Alcotest.(check bool) "null instanceof" true
    (Values.equal (Semantics.instanceof ~classes 0 Null_v) (Int_v 0L));
  Alcotest.(check bool) "checkcast ok" true
    (Values.equal (Semantics.checkcast ~classes 0 o) o);
  Alcotest.check_raises "checkcast fail" (Trap Class_cast) (fun () ->
      ignore (Semantics.checkcast ~classes 1 (Semantics.new_obj ~classes 0)));
  Alcotest.(check bool) "null passes checkcast" true
    (Values.equal (Semantics.checkcast ~classes 1 Null_v) Null_v);
  Alcotest.check_raises "monitor null" (Trap Null_deref) (fun () ->
      Semantics.monitor Null_v)

let test_mixed_deterministic () =
  let args = [| Int_v 3L; Float_v 1.5; Null_v |] in
  Alcotest.(check bool) "deterministic" true
    (Values.equal (Semantics.mixed Types.Int args) (Semantics.mixed Types.Int args));
  Alcotest.(check bool) "void for void" true
    (Values.equal (Semantics.mixed Types.Void args) Void_v)

let test_clock_migrations () =
  let c = Clock.create ~cores:4 ~seed:123L () in
  Alcotest.(check int64) "starts at zero" 0L (Clock.now c);
  Alcotest.(check int) "core 0" 0 (Clock.core c);
  (* advance 30 virtual seconds: must migrate several times (interval <= 5s) *)
  for _ = 1 to 30_000 do
    Clock.advance c Cost.cycles_per_ms
  done;
  Alcotest.(check bool)
    (Printf.sprintf "migrated %d times" (Clock.migrations c))
    true
    (Clock.migrations c >= 6);
  Alcotest.(check (float 1e-6)) "ms" 30_000.0 (Clock.ms c);
  let cycles, cpu = Clock.read_tsc c in
  Alcotest.(check int64) "tsc matches now" (Clock.now c) cycles;
  Alcotest.(check bool) "cpu in range" true (cpu >= 0 && cpu < 4);
  Alcotest.check_raises "negative advance"
    (Invalid_argument "Clock.advance: negative") (fun () -> Clock.advance c (-1))

(* The clock as it was with an [int64] counter, kept as the reference
   the native-int clock must match step for step. *)
module Ref_clock = struct
  module Prng = Tessera_util.Prng

  type t = {
    mutable cycles : int64;
    mutable core : int;
    mutable next_migration : int64;
    mutable migrations : int;
    cores : int;
    rng : Prng.t;
  }

  let draw_interval rng =
    let ms = 200 + Prng.int rng 4800 in
    Int64.of_int (ms * Cost.cycles_per_ms)

  let create ~cores ~seed =
    let rng = Prng.create seed in
    { cycles = 0L; core = 0; next_migration = draw_interval rng; migrations = 0; cores; rng }

  let advance t n =
    if n < 0 then invalid_arg "Clock.advance: negative";
    t.cycles <- Int64.add t.cycles (Int64.of_int n);
    while t.cycles >= t.next_migration do
      t.core <- (t.core + 1 + Prng.int t.rng (max 1 (t.cores - 1))) mod t.cores;
      t.migrations <- t.migrations + 1;
      t.next_migration <- Int64.add t.next_migration (draw_interval t.rng)
    done

  let copy t = { t with rng = Prng.copy t.rng }
end

let test_clock_matches_int64_reference () =
  QCheck.Test.make ~count:200 ~name:"clock = int64 reference clock"
    QCheck.(pair (int_range 1 8) (int_bound 1_000_000))
    (fun (cores, seed) ->
      let rng = Tessera_util.Prng.create (Int64.of_int seed) in
      let clock_seed = Int64.of_int (seed * 7919) in
      let c = Clock.create ~cores ~seed:clock_seed () in
      let r = Ref_clock.create ~cores ~seed:clock_seed in
      let same c (r : Ref_clock.t) =
        Clock.now c = r.Ref_clock.cycles
        && Clock.core c = r.Ref_clock.core
        && Clock.migrations c = r.Ref_clock.migrations
        && Clock.read_tsc c = (r.Ref_clock.cycles, r.Ref_clock.core)
      in
      (* zero, instruction-sized, landing exactly on the next migration
         point, and long enough (up to ~12 virtual seconds) to cross
         several migration points at once *)
      let step (r : Ref_clock.t) =
        match Tessera_util.Prng.int rng 5 with
        | 0 -> 0
        | 1 -> Tessera_util.Prng.int rng 400
        | 2 -> Int64.to_int (Int64.sub r.Ref_clock.next_migration r.Ref_clock.cycles)
        | 3 -> Tessera_util.Prng.int rng (50 * Cost.cycles_per_ms)
        | _ -> Tessera_util.Prng.int rng (12_000 * Cost.cycles_per_ms)
      in
      let run c r steps =
        let ok = ref (same c r) in
        for _ = 1 to steps do
          let n = step r in
          Clock.advance c n;
          Ref_clock.advance r n;
          ok := !ok && same c r
        done;
        !ok
      in
      let ok_before = run c r 40 in
      (* a copy advances on its own; the original must not move *)
      let c' = Clock.copy c and r' = Ref_clock.copy r in
      let ok_copy = run c' r' 40 in
      let ok_isolated = same c r in
      (* restoring the advanced copy rejoins its stream exactly, and
         advancing the restored clock leaves the source where it was *)
      Clock.restore c c';
      let ok_restored = same c r' in
      let r_src = Ref_clock.copy r' in
      let ok_after = run c r' 20 && same c' r_src in
      let ok_negative =
        match Clock.advance c (-1) with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      ok_before && ok_copy && ok_isolated && ok_restored && ok_after && ok_negative)

let test_flag_discounts () =
  let alloc = Tessera_il.Node.mk ~sym:0 Opcode.New Types.Object_ [||] in
  Alcotest.(check int) "no flags no discount" 0 (Cost.flag_discount alloc);
  let stack = Tessera_il.Node.with_flags alloc Tessera_il.Node.flag_stack_alloc in
  Alcotest.(check int) "stack alloc discount" 60 (Cost.flag_discount stack);
  Alcotest.(check bool) "discount below base" true
    (Cost.flag_discount stack <= Cost.op_base Opcode.New Types.Object_);
  let sync =
    Tessera_il.Node.with_flags
      (Tessera_il.Node.mk (Opcode.Synchronization Opcode.Monitor_enter) Types.Void [||])
      Tessera_il.Node.flag_sync_elided
  in
  Alcotest.(check int) "sync elision" 27 (Cost.flag_discount sync)

let test_decimal_cost_factor () =
  Alcotest.(check int) "packed mul is 3x int mul"
    (3 * Cost.op_base Opcode.Mul Types.Int)
    (Cost.op_base Opcode.Mul Types.Packed_decimal);
  Alcotest.(check int) "longdouble div is 4x fp div"
    (4 * Cost.op_base Opcode.Div Types.Double)
    (Cost.op_base Opcode.Div Types.Long_double)

let suite =
  [
    Alcotest.test_case "truncate" `Quick test_truncate;
    Alcotest.test_case "binop semantics" `Quick test_binop_semantics;
    Alcotest.test_case "array semantics" `Quick test_array_semantics;
    Alcotest.test_case "object semantics" `Quick test_object_semantics;
    Alcotest.test_case "mixed deterministic" `Quick test_mixed_deterministic;
    Alcotest.test_case "clock migrations" `Quick test_clock_migrations;
    QCheck_alcotest.to_alcotest (test_clock_matches_int64_reference ());
    Alcotest.test_case "flag discounts" `Quick test_flag_discounts;
    Alcotest.test_case "decimal cost factor" `Quick test_decimal_cost_factor;
  ]

let test_targets () =
  let module Target = Tessera_vm.Target in
  Alcotest.(check (option string)) "find zircon" (Some "zircon")
    (Option.map (fun t -> t.Target.name) (Target.find "zircon"));
  Alcotest.(check bool) "unknown target" true (Target.find "sparc" = None);
  (* zircon matches the baseline cost model exactly *)
  List.iter
    (fun (op, ty) ->
      Alcotest.(check int)
        (Opcode.name op ^ " zircon = baseline")
        (Cost.op_base op ty)
        (Target.op_cost Target.zircon op ty))
    [
      (Opcode.Add, Types.Int); (Opcode.Load, Types.Int);
      (Opcode.New, Types.Object_); (Opcode.Mul, Types.Packed_decimal);
      (Opcode.Div, Types.Double);
    ];
  (* obsidian: memory dearer, branches cheaper, decimals much dearer *)
  let ob = Target.obsidian in
  Alcotest.(check bool) "obsidian memory dearer" true
    (Target.op_cost ob Opcode.Load Types.Int > Cost.op_base Opcode.Load Types.Int);
  Alcotest.(check bool) "obsidian calls cheaper" true
    (ob.Target.call_overhead < Target.zircon.Target.call_overhead);
  Alcotest.(check bool) "obsidian decimals dearer" true
    (Target.op_cost ob Opcode.Mul Types.Packed_decimal
    > Cost.op_base Opcode.Mul Types.Packed_decimal);
  (* flag discounts never exceed the op cost on any target: a node's
     cost stays between 0 and its operator's *)
  let alloc =
    Tessera_il.Node.with_flags
      (Tessera_il.Node.mk ~sym:0 Opcode.New Types.Object_ [||])
      Tessera_il.Node.flag_stack_alloc
  in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (t.Target.name ^ " discount bounded")
        true
        (let c = Target.node_cost t alloc in
         0 <= c && c <= Target.op_cost t Opcode.New Types.Object_))
    Target.all

let test_target_changes_compiled_cost_not_semantics () =
  let p = Tessera_workloads.Generate.program
      { Tessera_workloads.Profile.default with
        Tessera_workloads.Profile.name = "tt"; seed = 4242L; methods = 4 } in
  let m = Tessera_il.Program.meth p 1 in
  let module Target = Tessera_vm.Target in
  let module Prog = Tessera_flat.Prog in
  let z = Tessera_flat.Lower.compile ~target:Target.zircon m in
  let o = Tessera_flat.Lower.compile ~target:Target.obsidian m in
  Alcotest.(check int) "same instruction stream length" (Prog.code_size z)
    (Prog.code_size o);
  (* lowering is syntax-directed: only the costs the instructions carry
     can differ *)
  Alcotest.(check bool) "different static cost" true
    (z.Prog.instrs <> o.Prog.instrs)

let suite =
  suite
  @ [
      Alcotest.test_case "back-end targets" `Quick test_targets;
      Alcotest.test_case "target changes cost, not code" `Quick
        test_target_changes_compiled_cost_not_semantics;
    ]
