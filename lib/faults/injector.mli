(** Deterministic fault injector.

    Wraps a {!Tessera_protocol.Channel.t} and perturbs its traffic
    according to a {!Spec.t}, drawing every random decision from a
    seeded {!Tessera_util.Prng.t} so any failure found under a fault
    spec reproduces exactly from [(spec, seed)].  Frame-granular: each
    [Channel.write] call is one protocol frame, so [drop] loses whole
    frames and [corrupt] flips a bit inside one.  The injector also
    provides the JIT-side fault hook ({!compile_fault}) for the engine's
    degradation paths. *)

exception Injected of string
(** Raised by {!compile_fault} when a compile fault fires. *)

type stats = {
  mutable writes : int;
  mutable reads : int;  (** [Channel.read_avail] calls *)
  mutable dropped : int;
  mutable corrupted : int;
  mutable duplicated : int;
  mutable garbage : int;
  mutable delayed : int;
  mutable crashes : int;
  mutable revivals : int;
  mutable compile_faults : int;
}

type t

val create : ?sleep:(float -> unit) -> spec:Spec.t -> seed:int64 -> unit -> t
(** [sleep] implements [delay:MS] (default no-op; two-process harnesses
    pass [Unix.sleepf]). *)

val wrap_channel : t -> Tessera_protocol.Channel.t -> Tessera_protocol.Channel.t
(** Faults apply to this endpoint's writes; reads pass through but raise
    [Channel.Closed] while the endpoint is crashed. *)

val compile_fault : t -> meth_id:int -> unit
(** Raises {!Injected} with probability [spec.compile_fail]; wire into
    {!Tessera_jit.Engine.callbacks.pre_compile}. *)

val stats : t -> stats
val crashed : t -> bool
val pp_stats : Format.formatter -> stats -> unit
