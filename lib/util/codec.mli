(** Binary encoding primitives for the compact archive format (Section 4.2
    of the paper: "Designing a compact representation for the data gathered
    was crucial").  Values are written into a [Buffer.t] and read back with
    an explicit cursor, so decoding never allocates intermediate slices. *)

type reader
(** A cursor over an immutable byte string, or over a slice of one. *)

val reader_of_string : string -> reader

val reader_sub : string -> pos:int -> len:int -> reader
(** A reader over the [len] bytes of the string from [pos], decoded
    where they lie: a read past the slice's end raises [Truncated] even
    where the string goes on.  Raises [Invalid_argument] if the slice is
    not inside the string. *)

val reader_pos : reader -> int
(** Bytes read so far, counted from the start of the reader's slice. *)

val reader_length : reader -> int
(** The length of the reader's slice. *)

val at_end : reader -> bool

exception Truncated of string
(** Raised when a read runs past the end of input; the payload names the
    field being decoded. *)

(** {1 Unsigned LEB128 variable-length integers} *)

val write_varint : Buffer.t -> int -> unit
(** Encodes a non-negative int (raises [Invalid_argument] on negatives). *)

val read_varint : ?what:string -> reader -> int

(** {1 Fixed-width values} *)

val write_u8 : Buffer.t -> int -> unit
val read_u8 : ?what:string -> reader -> int

val write_i64 : Buffer.t -> int64 -> unit
(** Little-endian 64-bit. *)

val read_i64 : ?what:string -> reader -> int64

val write_f64 : Buffer.t -> float -> unit
val read_f64 : ?what:string -> reader -> float

(** {1 Length-prefixed strings} *)

val write_string : Buffer.t -> string -> unit
val read_string : ?what:string -> reader -> string
