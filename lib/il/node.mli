(** Expression trees.

    A node is an immutable expression tree in the Testarossa style: an
    opcode, a result type, child subtrees, and — depending on the opcode —
    a symbol reference, a constant, or optimization flags.  Statements and
    control flow live in {!Block}; trees only compute values and local
    effects.

    Optimization flags are how transformations communicate proofs to the
    back end without changing tree shape: e.g. escape analysis marks a
    [New] with {!flag_stack_alloc} and the code generator then emits a
    cheap stack allocation.  This mirrors the node-flag mechanism of the
    real compiler. *)

type flags = int

val flag_none : flags

val flag_stack_alloc : flags
(** allocation proven non-escaping *)

val flag_no_bounds_check : flags
(** bounds check proven redundant *)

val flag_no_null_check : flags
(** null check proven redundant *)

val flag_sync_elided : flags
(** monitor operation proven thread-local *)

val flag_no_overflow : flags
(** arithmetic proven non-overflowing *)

val flag_rematerialized : flags
(** value recomputed rather than kept live *)

type t = private {
  uid : int;  (** unique within a method; fresh nodes get fresh uids *)
  op : Opcode.t;
  ty : Types.t;
  args : t array;
  sym : int;  (** symbol / field / callee / class id; -1 when unused *)
  const : int64;  (** payload of [Loadconst] (float bits for FP types) *)
  flags : flags;
}

val mk :
  ?sym:int -> ?const:int64 -> ?flags:flags -> Opcode.t -> Types.t -> t array -> t
(** Fresh node with a globally fresh uid.  Uids only need to be unique
    within one method; a global counter trivially guarantees that. *)

val with_args : t -> t array -> t
(** Copy with new children and a fresh uid; the node itself when [args]
    holds its own children ([==], element by element). *)

val with_flags : t -> flags -> t
(** Copy with flags OR-ed in, {e keeping} the uid (the node is "the same
    value", just annotated); the node itself when every flag is already
    set. *)

val with_type : t -> Types.t -> t

val has_flag : t -> flags -> bool

(** {1 Convenience constructors} *)

val iconst : Types.t -> int64 -> t
val fconst : Types.t -> float -> t
val load_sym : Types.t -> int -> t
val store_sym : int -> t -> t
val binop : Opcode.t -> Types.t -> t -> t -> t
val call : Types.t -> callee:int -> t array -> t

val const_float : t -> float
(** Decode the constant payload of an FP [Loadconst]. *)

(** {1 Structure} *)

val size : t -> int
(** Number of nodes in the tree. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over every node of the tree. *)

val exists : (t -> bool) -> t -> bool

val map_bottom_up : (t -> t) -> t -> t
(** Rebuilds the tree bottom-up, applying [f] to every node after its
    children were rewritten.  Nodes whose children are physically
    unchanged and for which [f] is the identity are preserved
    (uids stable), so repeated passes do not churn uids and a rewrite
    that changes nothing returns its input ([==]).  A child array is
    copied only from the first child that changed. *)

val structural_equal : t -> t -> bool
(** Equality ignoring uids and flags — the notion used by common
    subexpression elimination. *)

val structural_hash : t -> int
(** Consistent with {!structural_equal}.  Allocates nothing; the values
    are those of [Hashtbl.hash] over each node's (opcode name, type
    index, symbol, constant), folded over the children:
    [structural_hash n] is [Array.fold_left (fun h k -> (h * 31) +
    structural_hash k) (local_hash n) n.args]. *)

val local_hash : t -> int
(** The node's own term of {!structural_hash}, children left out; lets a
    bottom-up walk hash every subtree once. *)

val is_pure : t -> bool
(** [true] when re-evaluating this single node (not the subtree) cannot
    trap, allocate, or touch method-call/monitor state.  Loads are pure
    here; whether they can be {e reordered} is a separate dataflow
    question answered by the optimizer. *)

val subtree_pure : t -> bool
(** Whole tree satisfies {!is_pure}. *)

val pp : Format.formatter -> t -> unit
(** One-line s-expression rendering, for debugging. *)
