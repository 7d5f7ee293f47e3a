(** Sparse feature vectors: index/value pairs with strictly increasing
    indices, the representation of LIBLINEAR's data format where
    zero-valued components are omitted.  Stored packed (an index array
    beside a flat float array) so the solvers' inner loops touch no
    boxed float. *)

type t

val of_dense : float array -> t
(** Drops zero components. *)

val to_dense : int -> t -> float array

val of_list : (int * float) list -> t
(** Sorts and validates (duplicate indices rejected). *)

val dot : t -> float array -> float
(** Sparse · dense; indices beyond the dense length contribute zero. *)

val add_scaled : float array -> t -> float -> unit
(** [add_scaled w x s]: [w += s * x]. *)

val sq_norm : t -> float

val sq_dist : t -> t -> float
(** Squared Euclidean distance (for RBF kernels). *)

val max_index : t -> int
(** -1 for the empty vector. *)

val nnz : t -> int

val iter : (int -> float -> unit) -> t -> unit
(** [iter f x] calls [f index value] on each stored component in
    increasing index order. *)

val equal : t -> t -> bool
(** Same indices and bitwise-equal values ([Int64.bits_of_float]), so a
    NaN component equals itself and [0.0] differs from [-0.0]. *)

val pp : Format.formatter -> t -> unit
