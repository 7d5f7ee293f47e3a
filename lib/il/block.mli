(** Basic blocks and control flow.

    A block is a sequence of statement trees followed by one terminator.
    Exception flow is modelled with an optional per-block handler: if a
    statement in the block traps (integer division by zero, failed bounds
    check, null dereference, failed checkcast, explicit throw) control
    transfers to the handler block; with no handler the exception
    propagates to the caller. *)

type terminator =
  | Goto of int
  | If of { cond : Node.t; if_true : int; if_false : int }
      (** [cond] evaluates to an integer; nonzero takes [if_true]. *)
  | Return of Node.t option
  | Throw of Node.t

type t = {
  id : int;
  stmts : Node.t list;  (** treetops, evaluated in order for effect *)
  term : terminator;
  handler : int option;  (** exception-handler block covering this block *)
  freq : float;  (** static/profiled execution frequency estimate *)
}

val make : ?handler:int option -> ?freq:float -> int -> Node.t list -> terminator -> t

(** {1 Rebuilding}

    Each of these returns its input itself ([==]) when nothing changed:
    the same statements, the same terminator (same targets, same trees),
    the same frequency bits, or a rewrite that left every tree alone.
    Passes rely on it to hand back an unchanged method. *)

val with_stmts : t -> Node.t list -> t
val with_term : t -> terminator -> t
val with_freq : t -> float -> t

val map_stmts : (Node.t -> Node.t) -> t -> t
(** Rewrite every statement root, first to last; the terminator stays. *)

val map_nodes : (Node.t -> Node.t) -> t -> t
(** Rewrite every statement root, first to last, then the terminator's
    tree. *)

val successors : t -> int list
(** Normal (non-exceptional) successor block ids, without duplicates. *)

val terminator_nodes : terminator -> Node.t list
(** Trees embedded in the terminator ([If] condition, return value, ...). *)

val map_terminator_nodes : (Node.t -> Node.t) -> terminator -> terminator
(** The terminator itself when [f] returns its tree unchanged. *)

val tree_count : t -> int
(** Total number of IL nodes in the block (statements + terminator). *)

val pp : Format.formatter -> t -> unit
