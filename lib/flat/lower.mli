(** Tree IL to the flat form ({!Prog}): the interpreter's lowering and
    the code generator.

    Both emit through one emitter (a constant pool matched by bits, jumps
    resolved from block ids to entry pcs) and end in {!Prog.verify}, so
    every program they return is verified; they raise
    [Invalid_argument] on IL that does not lower soundly, which
    validated IL never is. *)

val of_meth : Tessera_il.Meth.t -> Prog.t
(** The (unfused) interpreted form: running it under {!Interp.run}
    produces a fuel/charge event sequence bit-identical to the tree
    walker [Vm.Interp.run] — same results, same charged cycles, same
    out-of-fuel point.  Every block starts with [Enter]. *)

val compile :
  ?quality:Tessera_vm.Cost.codegen_quality ->
  ?target:Tessera_vm.Target.t ->
  Tessera_il.Meth.t ->
  Prog.t
(** Compiled code for a back-end target (default
    {!Tessera_vm.Target.zircon}), fused: the program the engine runs and
    the code cache stores.  Lowering is syntax-directed: one IL node
    becomes one [C_] opcode, or the leaf [Const], [Load_local] or
    [New_obj], or (monitor exit with nothing on the stack) a [Begin];
    each takes one fuel event and one charge of its static cost, after
    a prologue charge of the frame set-up (plus monitor entry for
    synchronized methods).  Costs come from the target's cost model,
    less the discounts of the node's optimization flags, and local
    accesses from the register-allocation [quality]: the code generator
    never re-derives facts the optimizer proved. *)
