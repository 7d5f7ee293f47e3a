(** One JIT compilation: features → plan (filtered by a modifier) →
    optimizer → code generator. *)

module Meth = Tessera_il.Meth
module Program = Tessera_il.Program
module Modifier = Tessera_modifiers.Modifier
module Plan = Tessera_opt.Plan

type compilation = {
  code : Tessera_codegen.Isa.compiled;
  level : Plan.level;
  modifier : Modifier.t;
  features : Tessera_features.Features.t;
      (** extracted just prior to the optimization stage *)
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
  ?features:Tessera_features.Features.t ->
  ?modifier:Modifier.t ->
  ?target:Tessera_vm.Target.t ->
  program:Program.t ->
  level:Plan.level ->
  Meth.t ->
  compilation
(** [features] is the method's vector from
    [Tessera_features.Features.extract ~program], which the engine
    extracts once per method and passes in; when absent, [compile]
    extracts it.  [modifier] defaults to the null modifier (the original
    Testarossa plan for the level); [target] to
    {!Tessera_vm.Target.zircon}.  Internal failures are re-raised as
    {!Error}. *)
