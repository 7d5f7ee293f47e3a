(** Method intermediate representation.

    [attrs] carries exactly the binary method properties that feed the
    scalar feature vector of Table 1; the remaining Table 1 entries
    (counters, loop attributes) are derived from the IR itself by the
    feature extractor. *)

type attrs = {
  constructor : bool;
  final : bool;
  protected_ : bool;
  public : bool;
  static : bool;
  synchronized : bool;
  strictfp : bool;
  virtual_overridden : bool;  (** recompiled due to dynamic class loading *)
  uses_unsafe : bool;  (** inlined something from [sun.misc.Unsafe] *)
  uses_bigdecimal : bool;  (** touches [java.math.BigDecimal] *)
}

val default_attrs : attrs

type t = {
  name : string;  (** full signature, e.g. ["spec.db.Database.remove()V"] *)
  attrs : attrs;
  params : Types.t array;
  ret : Types.t;
  symbols : Symbol.t array;  (** arguments first, then temporaries *)
  blocks : Block.t array;  (** [blocks.(0)] is the entry block *)
  mutable fp_memo : int64 option;
      (** internal {!fingerprint} memo; construct methods through
          {!make}/{!with_blocks}/{!map_blocks}/{!with_symbols}/{!map_trees}
          (which reset it whenever they build a new method) rather than
          record copies *)
}

val make :
  ?attrs:attrs ->
  name:string ->
  params:Types.t array ->
  ret:Types.t ->
  symbols:Symbol.t array ->
  Block.t array ->
  t

val with_blocks : t -> Block.t array -> t
(** [m] itself when every block is physically [m]'s own. *)

val map_blocks : (Block.t -> Block.t) -> t -> t
(** Rebuild through [f], first block to last; [m] itself when [f]
    returns every block unchanged. *)

val with_symbols : t -> Symbol.t array -> t

val arg_count : t -> int
val temp_count : t -> int

val block : t -> int -> Block.t
(** [block m id] fetches a block by id (= array index). *)

val tree_count : t -> int
(** Total IL nodes across all blocks; the "tree nodes" scalar feature. *)

val iter_trees : (Node.t -> unit) -> t -> unit
(** Visits every statement and terminator tree root. *)

val fold_nodes : ('a -> Node.t -> 'a) -> 'a -> t -> 'a
(** Folds over {e every} node of every tree in the method. *)

val map_trees : (Node.t -> Node.t) -> t -> t
(** Rewrites every tree root (statements and terminator trees); [m]
    itself when [f] changes none. *)

val exception_handler_count : t -> int
(** Number of distinct handler blocks. *)

val has_backward_branch : t -> bool
(** "May have loops" in Table 1: any edge to a block with a smaller id. *)

val fingerprint : t -> int64
(** Stable 64-bit FNV-1a hash of the whole method — name, attrs,
    signature, symbols, and every node of every block (opcode, type,
    symbol id, constant, flags; node uids are {e excluded} so
    regenerating the same IL yields the same fingerprint across
    processes).  This is the IL component of persistent code-cache keys:
    any change to the method body changes the fingerprint and
    invalidates cached code.

    Memoized on the method record: computed once, reused until the
    method is rebuilt through a constructor (each constructor resets
    the memo). *)

val fingerprint_uncached : t -> int64
(** The raw tree-walking hash, bypassing the memo — exists so property
    tests can assert the memoized and recomputed values agree. *)

val equal : t -> t -> bool
(** Structural equality of the whole method body (uids and flags
    ignored), plus equality of name/attrs/signature. *)

val pp : Format.formatter -> t -> unit
