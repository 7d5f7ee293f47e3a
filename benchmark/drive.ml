(* Engine runs as Evaluation.run_once makes them, with the calls into the
   JIT wrapped in ledger spans when the run is traced: engine creation,
   each entry invocation, each compilation (from [pre_compile] to
   [on_compiled]), and the model query split into its two public calls,
   feature extraction and SVM prediction. *)

module Engine = Tessera_jit.Engine
module Modelset = Tessera_harness.Modelset
module Features = Tessera_features.Features
module Program = Tessera_il.Program
module Values = Tessera_vm.Values

let predictions = ref 0
let app_vcycles = ref 0L
let compile_vcycles = ref 0L
let compilations = ref 0
let aot_loads = ref 0

let choose ms =
  if not !Ledger.on then Modelset.choose_modifier ms
  else fun engine ~meth_id ~level ->
    incr predictions;
    let program = Engine.program engine in
    let features =
      Ledger.span "features.extract" (fun () ->
          Features.extract ~program (Program.meth program meth_id))
    in
    Some (Ledger.span "svm.predict" (fun () -> Modelset.predict ms ~level features))

let callbacks model =
  let cb =
    { Engine.no_callbacks with Engine.choose_modifier = Option.map choose model }
  in
  if not !Ledger.on then cb
  else
    {
      cb with
      Engine.pre_compile = Some (fun _ ~meth_id:_ ~level:_ -> Ledger.enter "jit.compile");
      on_compiled = Some (fun _ ~meth_id:_ _ -> Ledger.leave "jit.compile");
    }

let create ?model ?code_cache ~clock_seed program =
  Ledger.span "jit.engine_create" (fun () ->
      Engine.create
        ~config:
          {
            Engine.default_config with
            Engine.clock_seed;
            target = Tessera_vm.Target.zircon;
            code_cache;
          }
        ~callbacks:(callbacks model) program)

let invoke engine arg =
  Ledger.span "jit.invoke" (fun () ->
      Engine.invoke_entry engine [| Values.Int_v (Int64.of_int arg) |])

(* adds a finished engine's counters to the run's totals *)
let account engine =
  app_vcycles := Int64.add !app_vcycles (Engine.app_cycles engine);
  compile_vcycles := Int64.add !compile_vcycles (Engine.total_compile_cycles engine);
  compilations := !compilations + Engine.compile_count engine;
  aot_loads := !aot_loads + Engine.cache_hits engine

let layer () =
  [
    ("jit.predictions", float_of_int !predictions);
    ("jit.app_vcycles", Int64.to_float !app_vcycles);
    ("jit.compile_vcycles", Int64.to_float !compile_vcycles);
    ("jit.compilations", float_of_int !compilations);
    ("jit.aot_loads", float_of_int !aot_loads);
  ]
