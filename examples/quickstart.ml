(* Quickstart: write a method in the textual IL, JIT-compile it at two
   optimization levels, and run it on both execution engines.

   Run with: dune exec examples/quickstart.exe *)

module Parser = Tessera_lang.Parser
module Printer = Tessera_lang.Printer
module Program = Tessera_il.Program
module Values = Tessera_vm.Values
module Plan = Tessera_opt.Plan
module Compiler = Tessera_jit.Compiler
module Engine = Tessera_jit.Engine

(* sum of i*i for i in [0, n), with a deliberately silly inner
   recomputation for the optimizer to clean up *)
let source =
  {|
program "quickstart" entry 0
method "Quick.sumsq(I)I" (public static) returns int {
  arg "n" int
  temp "i" int
  temp "acc" int
  block 0 {
    (store void $1 (loadconst int 0))
    (store void $2 (loadconst int 0))
    (goto 1)
  }
  block 1 {
    (store void $2
      (add int (load int $2)
        (mul int (load int $1) (load int $1))))
    (store void $1 (add int (load int $1) (loadconst int 1)))
    (if (cmp.lt int (load int $1) (load int $0)) 1 2)
  }
  block 2 {
    (return (add int (load int $2) (mul int (load int $0) (loadconst int 0))))
  }
}
|}

let () =
  let program = Parser.parse_program source in
  let meth = Program.meth program 0 in
  Format.printf "Parsed method:@.%a@.@." Printer.pp_method meth;

  (* 1. Interpret it. *)
  let engine = Engine.create program in
  (match Engine.invoke_entry engine [| Values.Int_v 10L |] with
  | Ok v -> Format.printf "interpreted sumsq(10) = %a@." Values.pp v
  | Error t -> Format.printf "trap: %s@." (Values.trap_name t));

  (* 2. JIT-compile at cold and hot and compare code size / compile cost. *)
  List.iter
    (fun level ->
      let c = Compiler.compile ~program ~level meth in
      Format.printf
        "%-5s compile: %6d cycles, %3d -> %3d IL nodes, %3d instructions@."
        (Plan.level_name level)
        c.Compiler.compile_cycles c.Compiler.original_nodes
        c.Compiler.optimized_nodes (Tessera_flat.Prog.code_size c.Compiler.code))
    [ Plan.Cold; Plan.Hot ];

  (* 3. Compile with a plan modifier that disables the simplifier family
        and see the difference. *)
  let modifier =
    Tessera_modifiers.Modifier.of_disabled [ 18; 19; 21; 24; 25; 0; 55 ]
  in
  let c = Compiler.compile ~modifier ~program ~level:Plan.Hot meth in
  Format.printf
    "hot with simplification disabled: %6d cycles, %3d instructions@."
    c.Compiler.compile_cycles (Tessera_flat.Prog.code_size c.Compiler.code);

  (* 4. The features the learned models would see. *)
  let f = Tessera_features.Features.extract meth in
  Format.printf "feature vector: %a@." Tessera_features.Features.pp f
