(** The tree-IL interpreter — the semantic reference for interpretation.

    Every node evaluation pays the native operation cost plus a dispatch
    overhead, charged through the [charge] callback so the caller decides
    which clock the cycles land on.  Method calls are delegated to the
    [invoke] callback.  The execution engine (in [tessera.jit]) runs the
    flat tier ([tessera.flat]), which charges bit-identical cycles; this
    walker is what tests and [bench flat] compare it against.  The
    [context] type is shared by both interpreters. *)

type context = {
  classes : Tessera_il.Classdef.t array;
  charge : int -> unit;  (** cycle accounting *)
  invoke : int -> Values.t array -> Values.t;  (** method-call dispatch *)
  fuel : int ref;
      (** shared node-evaluation budget; guards against non-terminating
          generated programs.  Raises {!Out_of_fuel} at zero. *)
}

exception Out_of_fuel

val run : context -> Tessera_il.Meth.t -> Values.t array -> Values.t
(** Execute one invocation.  Raises [Values.Trap] if an exception escapes
    the method (after charging the unwind cost). *)
