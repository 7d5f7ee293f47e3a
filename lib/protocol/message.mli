(** The lean compiler ↔ model protocol (Section 7).

    Frames are length-prefixed and integrity-checked:
    [magic 0xA7 | u8 tag | varint payload length | payload | crc32].
    The checksum covers tag, length, and payload, so a corrupted frame is
    rejected instead of silently yielding a wrong prediction, and the
    magic byte lets a receiver resynchronize after garbage on the wire.
    The compiler sends raw feature vectors; the model side renormalizes
    them with its scaling file and answers with a full 58-bit modifier
    pattern — the label→modifier lookup and the normalization both live
    with the model, so models can be swapped without changes to the
    compiler. *)

module Plan = Tessera_opt.Plan
module Modifier = Tessera_modifiers.Modifier

type t =
  | Init of { model_name : string }
  | Init_ok
  | Predict of {
      level : Plan.level;
      features : float array;
      trace : Tracectx.t;
    }
      (** [trace] is {!Tracectx.none} for untraced requests (zero wire
          bytes); otherwise two trailing varints.  Decoding is lenient:
          corrupted trace bytes in an otherwise well-formed frame yield
          an untraced request, never a protocol error. *)
  | Prediction of { modifier : Modifier.t; trace : Tracectx.t }
      (** The server echoes the request's trace context so the client
          can tie the reply to its root span. *)
  | Ping
  | Pong
  | Shutdown
  | Error_msg of string
  | Stats_req
      (** ask the server for its metrics exposition (observability) *)
  | Stats_text of string
      (** Prometheus-style text exposition of the server's registry *)
  | Overloaded
      (** the server shed this request past its high-water mark; the
          client should fall back (and let its circuit breaker trip)
          rather than retry into the overload *)

exception Malformed of string

val magic : char
(** First byte of every frame. *)

val encode : t -> string

val decode_from : ?deadline:float -> Channel.t -> t
(** Reads exactly one frame; raises {!Malformed} on a bad magic byte,
    checksum mismatch, unknown tag, or bad payload, [Channel.Closed] at
    end of stream, and [Channel.Timeout] past the optional deadline. *)

val send : Channel.t -> t -> unit

(** {1 Incremental decoding} — for non-blocking connection pumps that
    accumulate wire bytes in their own buffer *)

type scan =
  | Scan_msg of t * int  (** decoded message and the position past its frame *)
  | Scan_need_more  (** the buffer ends inside the frame; read more bytes *)
  | Scan_bad of string
      (** the bytes at [pos] are not a valid frame; advance one byte and
          rescan for the next magic (costing resync budget) *)

val scan : string -> pos:int -> scan
(** Decode at most one frame starting at [pos] (which must hold the
    frame magic for anything but [Scan_bad]).  Never raises; never
    consumes past the returned position. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
