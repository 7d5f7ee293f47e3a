(** Shared rewriting machinery for the transformation passes. *)

module Node = Tessera_il.Node
module Block = Tessera_il.Block
module Meth = Tessera_il.Meth

(** Every rewrite here returns its input itself ([==]) when it changes
    nothing, so a pass built from them hands back an unchanged method. *)

val map_block_nodes : (Node.t -> Node.t) -> Block.t -> Block.t
(** Rewrite every statement root and every terminator tree of a block
    ({!Tessera_il.Block.map_nodes}). *)

val map_method_nodes : (Node.t -> Node.t) -> Meth.t -> Meth.t
(** {!Tessera_il.Meth.map_trees}. *)

val filter_map_stmts : (Node.t -> Node.t option) -> Block.t -> Block.t
(** Rewrite statements, dropping those mapped to [None].  Terminators are
    untouched. *)

val retarget : (int -> int) -> Meth.t -> Meth.t
(** Remap every branch target and handler id; [f] sees, block by block,
    an [If]'s false target, its true target, then the handler. *)

val compact : Meth.t -> Meth.t
(** Drop unreachable blocks (normal + exception reachability) and
    renumber the survivors, preserving relative order.  The identity when
    everything is reachable. *)

val reorder : Meth.t -> int array -> Meth.t
(** [reorder m order] permutes blocks into the sequence [order] (a
    permutation of block ids with [order.(0) = 0]) and renumbers.  Note:
    renumbering can turn forward edges into back edges; callers must keep
    loop headers before their bodies.  The identity order returns [m]. *)

(** {1 Symbol dataflow summaries} *)

type sym_info = {
  loads : int array;  (** per-symbol count of arity-0 loads *)
  stores : int array;  (** per-symbol count of arity-1 stores + incs *)
  escapes : bool array;
      (** symbol value flows into a call argument, return, throw, field or
          array store (as the {e stored value}), or mixed op *)
}

val sym_info : Meth.t -> sym_info

val stored_syms_of_tree : Node.t -> int list
(** Local symbols written by one statement tree (stores and incs). *)

val loaded_syms_of_tree : Node.t -> int list

val tree_reads_memory : Node.t -> bool
(** Contains a field/array load, a call, or any opcode that observes heap
    state. *)

val tree_writes_memory : Node.t -> bool
(** Contains a field/array store, a call, an allocation, or a monitor
    operation. *)

val fresh_temp : Meth.t -> string -> Tessera_il.Types.t -> Meth.t * int
(** Append a temporary to the symbol table; returns its id. *)
