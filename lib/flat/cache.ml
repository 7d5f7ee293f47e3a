(* Instrumented lowering to flat form.  Engines memoize the result per
   method themselves (see [Engine]), so flattening points stay
   per-engine and same-seed runs stay byte-identical. *)

module Meth = Tessera_il.Meth
module Trace = Tessera_obs.Trace
module Metrics = Tessera_obs.Metrics

(* registered on the default registry (idempotent by name) so the flat
   tier shows up in every metrics exposition alongside jit_* counters *)
let m_flatten =
  Metrics.counter Metrics.default ~help:"Methods lowered to flat form"
    "flat_flatten_total"

let flatten (m : Meth.t) =
  if !Trace.enabled then
    Trace.span_begin ~cat:"flat"
      ~args:[ ("method", Trace.Str m.Meth.name) ]
      "flatten";
  let p = Lower.of_meth m in
  Metrics.inc m_flatten;
  if !Trace.enabled then
    Trace.span_end ~cat:"flat"
      ~args:[ ("code_size", Trace.Int (Int64.of_int (Prog.code_size p))) ]
      "flatten";
  p
