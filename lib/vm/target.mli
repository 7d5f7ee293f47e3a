(** Back-end targets.

    Testarossa generates code for many platforms (x86, PowerPC, S/390,
    ...), and the paper's motivation (Section 1) is precisely that
    hand-tuned compilation plans "may require adjustments or may need to
    be completely redesigned" per platform.  Tessera models a platform as
    a scaling of the back-end cost model: the value of each transformation
    then genuinely depends on the deployment target (memory-heavy targets
    reward load elimination, software-decimal targets reward BCD folding,
    and so on), which is what the platform-sensitivity study in the bench
    harness exercises.

    Targets scale the cost of {e compiled} code; interpretation cost is
    host-neutral. *)

type t = {
  name : string;
  mem_factor : float;  (** loads/stores/allocation *)
  branch_factor : float;  (** jumps, calls linkage *)
  fp_factor : float;
  decimal_factor : float;  (** extra multiplier for BCD/long-double ops *)
  call_overhead : int;
  local_access : codegen_quality:Cost.codegen_quality -> int;
}

val zircon : t
(** The default CISC-ish target; matches {!Cost}'s baseline numbers. *)

val obsidian : t
(** A RISC-ish target: cheaper branching, costlier memory traffic, no
    decimal hardware at all (BCD fully emulated), slightly better
    floating point. *)

val all : t list
val find : string -> t option

val op_cost : t -> Tessera_il.Opcode.t -> Tessera_il.Types.t -> int
(** [Cost.op_base] scaled into the target. *)

val node_cost : t -> Tessera_il.Node.t -> int
(** The static cost of the node's compiled instruction: {!op_cost} of
    its operator and type less its optimization-flag discount
    ([Cost.flag_discount] scaled the same way, never exceeding the
    cost), so never negative. *)
