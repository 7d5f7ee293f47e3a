(** The compact binary archive format (Section 4.2).

    Layout:
    {v
    magic "TSRA" | version u8 | benchmark-name string
    dictionary (varint count, strings)
    record count varint | records
    crc32 over everything before it, sign-extended to a LE i64
    v}

    Data gathered in collection mode lives in memory and is only
    transferred to an archive after the run finishes, so no I/O perturbs
    the measured execution. *)

type t = {
  benchmark : string;
  dictionary : Dictionary.t;
  records : Record.t list;
}

exception Corrupt of string

val to_string : t -> string
val of_string : string -> t
(** Raises {!Corrupt} on bad magic, version, truncation, or CRC
    mismatch. *)

val save : t -> string -> unit
(** [save a path] writes the archive to a file. *)

val load : string -> t

val merge : t list -> t
(** Concatenate archives (re-interning dictionaries); the merged
    benchmark name joins the inputs with ["+"]. *)

val equal : t -> t -> bool
(** Record-for-record equality up to dictionary construction history:
    both sides are normalized by re-interning signatures in record
    order, then compared with {!Record.equal}.  The differential oracle
    of the forking collector (snapshot vs re-executed branches must
    produce equal archives). *)
