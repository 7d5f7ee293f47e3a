(** Natural-loop detection.

    A back edge is an edge [u -> v] from a block reachable from the
    entry where [v] dominates [u] (on {!Cfg.dominators}' tree); loop
    discovery is therefore immune to block renumbering by the layout
    passes.  (The paper's "may have loops" {e feature} is still the
    cruder "has a backward branch" test, computed before optimization —
    see {!Tessera_il.Meth.has_backward_branch}.) *)

type loop = {
  header : int;
  body : int list;  (** block ids, including the header *)
  depth : int;  (** nesting depth, outermost = 1 *)
}

type t = { loops : loop list; depth_of : int array }

val analyze : Tessera_il.Meth.t -> t

val loop_count : t -> int
val max_depth : t -> int

val annotate_frequencies : Tessera_il.Meth.t -> Tessera_il.Meth.t
(** Sets each block's static frequency estimate to [10^depth], the
    heuristic used by layout decisions when no profile is available. *)

val is_self_loop : Tessera_il.Meth.t -> loop -> bool
(** The loop is a single block branching back to itself. *)
