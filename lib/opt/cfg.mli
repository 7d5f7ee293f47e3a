(** Control-flow graph over a method's blocks.

    Exception edges (block → its handler) are included in reachability but
    reported separately from normal successors, because layout and
    merging decisions only consider normal flow while deletion decisions
    must respect both. *)

type t = {
  preds : int list array;  (** normal-flow predecessors *)
  succs : int list array;  (** normal-flow successors *)
  reachable : bool array;  (** from entry, via normal + exception edges *)
  rpo : int array;  (** reverse post-order of reachable blocks *)
}

val build : Tessera_il.Meth.t -> t

val single_pred : t -> int -> int option
(** The unique normal predecessor of a block, if it has exactly one. *)

val dominators : Tessera_il.Meth.t -> int array
(** The immediate-dominator tree: [idom.(b)] is the immediate dominator
    of block [b], [idom.(0) = 0], and [-1] for a block unreachable from
    the entry.  Computed over normal edges plus exception edges (block →
    handler), so handler blocks are properly dominated rather than
    vacuously dominated-by-everything.  Cooper, Harvey and Kennedy's
    iteration over reverse postorder. *)

val dominates : int array -> int -> int -> bool
(** [dominates idom x b]: block [x] dominates block [b], found by walking
    [b]'s chain of immediate dominators.  A block unreachable from the
    entry is dominated by every block (the standard convention).  An
    edge [u -> v] is a back edge when [dominates idom v u]: id-order is
    irrelevant, so block layout may renumber freely without confusing
    loop detection. *)
