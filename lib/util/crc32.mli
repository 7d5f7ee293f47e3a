(** CRC-32 (IEEE 802.3 polynomial, reflected, as in zlib): the integrity
    checksum of every persisted or transmitted byte string — code-cache
    frames, wire frames and training archives.  Callers checksum bytes
    where they lie, so verifying a frame copies nothing.  Allocates
    nothing and does not depend on how the input is sliced. *)

val string : string -> int32
(** Checksum of a whole string. *)

val sub : string -> pos:int -> len:int -> int32
(** [sub s ~pos ~len] checksums [len] bytes of [s] starting at [pos].
    Raises [Invalid_argument] if they do not lie within [s]. *)
