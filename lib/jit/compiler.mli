(** One JIT compilation: plan (filtered by a modifier) → optimizer →
    code generator.  Reading the method's features is the model's
    business ({!Engine.features}), not the compiler's. *)

module Meth = Tessera_il.Meth
module Program = Tessera_il.Program
module Modifier = Tessera_modifiers.Modifier
module Plan = Tessera_opt.Plan

type compilation = {
  code : Tessera_codegen.Isa.compiled;
  level : Plan.level;
  modifier : Modifier.t;
  compile_cycles : int;
  optimized_nodes : int;
  original_nodes : int;
  mutable flat : Tessera_flat.Prog.t option;
      (** the code's fused flat form, translated at its first run and
          shared by every engine that runs this compilation, forked
          ones included *)
}

exception Error of { meth : string; level : Plan.level; reason : string }
(** An internal optimizer/code-generator failure, wrapped with the
    method and level for telemetry; the engine's degradation layer
    catches this (and anything else) and falls back. *)

val compile :
  ?modifier:Modifier.t ->
  ?target:Tessera_vm.Target.t ->
  program:Program.t ->
  level:Plan.level ->
  Meth.t ->
  compilation
(** [modifier] defaults to the null modifier (the original Testarossa
    plan for the level); [target] to {!Tessera_vm.Target.zircon}.
    Internal failures are re-raised as {!Error}. *)
