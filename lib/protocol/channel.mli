(** Byte channels for compiler ↔ model communication.

    The paper runs the machine-learned model in a separate process and
    talks to it over named pipes, so models can be swapped without
    touching the compiler.  This module abstracts the transport: an
    in-memory pipe pair for tests and in-process use, and Unix file
    descriptors (including FIFOs created with [mkfifo]) for the real
    two-process setup.  Channels can also be {!wrap}ped with read/write
    interceptors; the fault-injection subsystem uses this to corrupt,
    drop, and delay frames deterministically. *)

type t

exception Closed
exception Timeout
(** A read did not complete before its deadline.  In-memory channels
    raise this whenever a read requests more bytes than are buffered
    (data only ever arrives between calls, so waiting cannot help). *)

val write : t -> string -> unit

val read_exact : ?deadline:float -> t -> int -> string
(** Blocks until the requested byte count is available; raises {!Closed}
    at end of stream.  [deadline] is an absolute [Unix.gettimeofday]
    time; when given, a descriptor-backed read that cannot complete in
    time raises {!Timeout} instead of blocking forever. *)

val read_avail : t -> int -> string
(** [read_avail t n] returns up to [n] bytes of already-available input
    without blocking — [""] when nothing is buffered (or [n <= 0]).
    A descriptor read returns at most 64 KiB per call.
    Raises {!Closed} only at end of stream with nothing left buffered,
    so bytes written before a close are still delivered.  This is the
    read primitive of the multiplexing server: it never commits the
    caller to a byte count, so partially-arrived frames stay in the
    caller's reassembly buffer instead of blocking a shared loop. *)

val read_fd : t -> Unix.file_descr option
(** The underlying read descriptor, for [select] registration; [None]
    for in-memory channels (poll those with {!read_avail}).  Wrapped
    channels report their base's descriptor. *)

val drain : t -> int
(** Discards whatever input is currently buffered without blocking and
    returns the number of bytes thrown away.  The resilient client uses
    this to restore frame synchronization after a malformed or
    half-delivered response. *)

val close : t -> unit

val of_fds : Unix.file_descr -> Unix.file_descr -> t
(** [of_fds input output]. *)

val wrap :
  ?on_write:(t -> string -> unit) ->
  ?on_read:(t -> deadline:float option -> int -> string) ->
  ?on_read_avail:(t -> int -> string) ->
  ?on_close:(t -> unit) ->
  t ->
  t
(** [wrap base] is a channel that forwards to [base] through the given
    interceptors (each defaults to the plain operation).  Interceptors
    receive [base] and may drop, alter, duplicate, or fail the
    operation. *)

val pipe_pair : unit -> t * t
(** In-memory bidirectional pair: what one end writes the other reads. *)

val fifo_pair : path_a:string -> path_b:string -> (unit -> t) * (unit -> t)
(** Creates two FIFOs and returns openers for the two endpoints (each
    opener blocks until the peer opens the other end, as named pipes
    do).  Endpoint A reads [path_a] and writes [path_b]; B the
    opposite. *)
