(** Dispatch-loop interpreter over the flat form: it runs interpreted
    methods ({!Lower.of_meth}) and compiled code ({!Lower.compile}).

    Shares [Vm.Interp.context] (and its [Out_of_fuel] exception) with
    the tree walker, so tests and [bench flat] run the two interpreters
    under one harness.
    Observable behaviour — result value, traps, every fuel decrement in
    order, and the cycle total wherever the clock can be read — is
    bit-identical to [Vm.Interp.run] on the source method; the speedup
    is purely host-side.  [run] sums its charges and calls [ctx.charge]
    with the sum before [ctx.invoke], when the method returns, before an
    exception leaves it, and before a trace [dispatch] instant, so a
    context sees fewer, larger charges than the tree walker makes.  With
    the profiler on, {!Tessera_obs.Profile.charge} still sees every
    charge, in order, at its instruction. *)

type context = Tessera_vm.Interp.context

val run : context -> Prog.t -> Tessera_vm.Values.t array -> Tessera_vm.Values.t
(** Raises [Vm.Interp.Out_of_fuel] and [Values.Trap _] exactly like the
    tree walker. *)

val run_counted :
  pairs:int array ->
  context ->
  Prog.t ->
  Tessera_vm.Values.t array ->
  Tessera_vm.Values.t
(** Like [run] but tallies dynamically executed (kind, next-kind) pairs
    into [pairs] (a [kind_count * kind_count] matrix, row = first kind).
    This census is what the static fusion table in {!Prog.fuse} was
    derived from.  Accepts unfused interpreted programs only: raises
    [Invalid_argument] on fused programs and on compiled code. *)
