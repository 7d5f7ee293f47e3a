(** Dispatch-loop interpreter over the flat form: it runs interpreted
    methods ({!Lower.of_meth}) and compiled code ({!Lower.compile}).

    Shares [Vm.Interp.context] (and its [Out_of_fuel] exception) with
    the tree walker, so tests and [bench flat] run the two interpreters
    under one harness.
    Observable behaviour — result value, traps, every fuel decrement in
    order, and the cycle total wherever the clock can be read — is
    bit-identical to [Vm.Interp.run] on the source method; the speedup
    is purely host-side.  A charge is one add to the running frame's
    sum, which [run] hands to [ctx.charge] before [ctx.invoke], when the
    method returns, before an exception leaves it, and before a trace
    [dispatch] instant, so a context sees fewer, larger charges than the
    tree walker makes.

    Observers are fed from one point at the dispatch head, chosen when
    the run starts: the profiler ({!Tessera_obs.Profile.charge} receives each
    instruction's charges as one sum at that instruction, which samples
    exactly as charging them one by one), the trace's [dispatch]
    instant every 65,536 dispatches, and the pair {!census}. *)

type context = Tessera_vm.Interp.context

val run : context -> Prog.t -> Tessera_vm.Values.t array -> Tessera_vm.Values.t
(** Raises [Vm.Interp.Out_of_fuel] and [Values.Trap _] exactly like the
    tree walker. *)

val census : int array -> (unit -> 'a) -> 'a
(** [census pairs f] runs [f] with every {!run} it starts tallying the
    dynamically executed (kind, next-kind) pairs of each activation
    into [pairs], a [Prog.kind_count * Prog.kind_count] matrix (row =
    first kind), as dispatched: run it over unfused code to count the
    pairs a fusion table could take.  This census is what the static
    tables of {!Prog.fuse} were chosen from.  Raises [Invalid_argument]
    on a matrix of another size.  Like the profiler, one domain at a
    time. *)
