(** Operations of the tree IL.

    The catalogue mirrors Table 3 of the paper: 38 operation groups over
    six families (ALU, cast, load/store, memory, JVM, branch) plus the
    array-operations and mixed-operations buckets.  Several opcodes carry a
    refinement (comparison relation, shift direction, ...) that does not
    change the feature group they count in. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type shift_dir = Shl | Shr | Ushr

type sync_kind = Monitor_enter | Monitor_exit

type array_kind =
  | Bounds_check  (** children: array, index; traps on violation *)
  | Array_copy  (** children: src, dst, length *)
  | Array_cmp  (** children: a, b; yields int *)
  | Array_length  (** child: array *)

type cast_kind =
  | C_byte
  | C_char
  | C_short
  | C_int
  | C_long
  | C_float
  | C_double
  | C_longdouble
  | C_address
  | C_object
  | C_packed
  | C_zoned
  | C_check  (** checkcast: traps if the reference is not of the class *)

type t =
  (* ALU *)
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Neg
  | Shift of shift_dir
  | Or
  | And
  | Xor
  | Inc  (** increment a symbol in place by a constant *)
  | Compare of cmp
  (* Cast *)
  | Cast of cast_kind
  (* Load/Store *)
  | Load  (** arity 0: symbol; arity 1: field of object; arity 2: array element *)
  | Loadconst
  | Store  (** arity 1: symbol; arity 2: object field; arity 3: array element *)
  (* Memory *)
  | New
  | Newarray
  | Newmultiarray
  (* JVM *)
  | Instanceof
  | Synchronization of sync_kind
  | Throw_op  (** materialises an exception object; thrown by terminator *)
  (* Branch *)
  | Branch_op  (** explicit branch computation lowered into terminators *)
  | Call
  (* Buckets *)
  | Arrayop of array_kind
  | Mixedop  (** intrinsic / unclassifiable operation *)

val group_count : int
(** Number of distinct feature groups: 38. *)

val group : t -> int
(** Feature-group index in [\[0, group_count)], matching Table 3's rows:
    refinements collapse ([Shift Shl] and [Shift Shr] both count as
    "shift"; each cast target is its own group). *)

val group_name : int -> string

val name : t -> string
(** Unique printable mnemonic, parseable by the [lang] front end. *)

val all_simple : t list
(** Every opcode, each refinement spelled out. *)

val of_name : string -> t option
(** The opcode whose {!name} this is, from a table built once. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val cmp_name : cmp -> string
val cast_target : cast_kind -> Types.t option
(** Result type implied by a cast; [None] for [C_check] (keeps its input
    type). *)
