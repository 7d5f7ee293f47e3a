module Meth = Tessera_il.Meth
module Program = Tessera_il.Program
module Modifier = Tessera_modifiers.Modifier
module Plan = Tessera_opt.Plan
module Manager = Tessera_opt.Manager

type compilation = Tessera_cache.Codecache.entry = {
  code : Tessera_flat.Prog.t;
  level : Plan.level;
  modifier : Modifier.t;
  compile_cycles : int;
  optimized_nodes : int;
  original_nodes : int;
}

exception Error of { meth : string; level : Plan.level; reason : string }

let () =
  Printexc.register_printer (function
    | Error { meth; level; reason } ->
        Some
          (Printf.sprintf "Compiler.Error(%s at %s: %s)" meth
             (Plan.level_name level) reason)
    | _ -> None)

let compile_exn ~modifier ~target ~program ~level (m : Meth.t) =
  let quality_floor =
    match level with
    | Plan.Cold | Plan.Warm -> Tessera_vm.Cost.Q_base
    | Plan.Hot | Plan.Very_hot | Plan.Scorching -> Tessera_vm.Cost.Q_regalloc
  in
  let result =
    Manager.optimize
      ~enabled:(Modifier.enabled_fun modifier)
      ~quality_floor ~program ~plan:(Plan.plan level) m
  in
  let code =
    Tessera_flat.Lower.compile ~quality:result.Manager.quality ~target
      result.Manager.meth
  in
  {
    code;
    level;
    modifier;
    compile_cycles = Manager.total_cycles result;
    optimized_nodes = result.Manager.final_nodes;
    original_nodes = result.Manager.initial_nodes;
  }

let compile ?(modifier = Modifier.null) ?(target = Tessera_vm.Target.zircon)
    ~program ~level (m : Meth.t) =
  try compile_exn ~modifier ~target ~program ~level m
  with
  | Error _ as e -> raise e
  | e ->
      raise (Error { meth = m.Meth.name; level; reason = Printexc.to_string e })
