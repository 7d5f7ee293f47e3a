(** One JIT compilation: plan (filtered by a modifier) → optimizer →
    code generator ({!Tessera_flat.Lower.compile}), whose verified flat
    program is the code the engine runs and the code cache stores.
    Reading the method's features is the model's business
    ({!Engine.features}), not the compiler's. *)

module Meth = Tessera_il.Meth
module Program = Tessera_il.Program
module Modifier = Tessera_modifiers.Modifier
module Plan = Tessera_opt.Plan

type compilation = Tessera_cache.Codecache.entry = {
  code : Tessera_flat.Prog.t;  (** fused and verified *)
  level : Plan.level;
  modifier : Modifier.t;
  compile_cycles : int;
  optimized_nodes : int;
  original_nodes : int;
}
(** A code-cache entry: installed and stored as it is.  Immutable, so
    engines forked from one another share it freely. *)

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
