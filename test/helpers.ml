(* Shared machinery for the test suites: reference execution of whole
   programs under different engine configurations, and program/method
   generators wired into qcheck. *)

module Program = Tessera_il.Program
module Meth = Tessera_il.Meth
module Values = Tessera_vm.Values
module Interp = Tessera_vm.Interp
module Exec = Tessera_codegen.Exec
module Lower = Tessera_codegen.Lower
module Manager = Tessera_opt.Manager
module Plan = Tessera_opt.Plan
module Modifier = Tessera_modifiers.Modifier
module Profile = Tessera_workloads.Profile
module Generate = Tessera_workloads.Generate
module Prng = Tessera_util.Prng

type outcome = (Values.t, Values.trap) result

let pp_outcome fmt = function
  | Ok v -> Format.fprintf fmt "Ok %a" Values.pp v
  | Error k -> Format.fprintf fmt "Trap %s" (Values.trap_name k)

let outcome_equal a b =
  match (a, b) with
  | Ok x, Ok y -> Values.equal x y
  | Error x, Error y -> x = y
  | _ -> false

let outcome_testable = Alcotest.testable pp_outcome outcome_equal

(* Run a program's entry method with every method in a fixed
   implementation.  [transform] optionally rewrites each method first
   (optimizer under test); [compile] lowers to native code and executes
   that instead of interpreting. *)
let run_program ?(fuel = 200_000_000) ?(compile = false)
    ?(transform = fun _id m -> m) (program : Program.t) (args : Values.t array)
    : outcome * int =
  let methods =
    Array.mapi (fun id m -> transform id m) program.Program.methods
  in
  let codes =
    if compile then
      Some (Array.map (fun m -> Lower.compile m) methods)
    else None
  in
  let cycles = ref 0 in
  let charge n = cycles := !cycles + n in
  let fuel_ref = ref fuel in
  let rec invoke id args =
    match codes with
    | None ->
        Interp.run
          {
            Interp.classes = program.Program.classes;
            charge;
            invoke;
            fuel = fuel_ref;
          }
          methods.(id) args
    | Some arr ->
        Exec.run
          {
            Exec.classes = program.Program.classes;
            charge;
            invoke;
            fuel = fuel_ref;
          }
          arr.(id) args
  in
  let outcome =
    match invoke program.Program.entry args with
    | v -> Ok v
    | exception Values.Trap k -> Error k
  in
  (outcome, !cycles)

(* Small profiles so property tests stay fast. *)
let small_profile seed =
  {
    Profile.default with
    Profile.name = Printf.sprintf "t%Ld" seed;
    seed;
    methods = 6;
    classes = 3;
    fragments_mean = 3.0;
    driver_trips = 3;
    hot_methods = 3;
  }

let gen_program seed = Generate.program (small_profile seed)

let entry_args k = [| Values.Int_v (Int64.of_int k) |]

(* Optimize every method of a program with a given plan & modifier. *)
let optimize_all ?(validate = true) ~plan ~enabled (program : Program.t) id m =
  ignore id;
  let r = Manager.optimize ~enabled ~validate ~program ~plan m in
  r.Manager.meth

let seeds n base = List.init n (fun i -> Int64.of_int ((i * 7919) + base))

(* An in-process model server on the endpoint [ch] of an in-memory pipe,
   advanced one Serve tick per call: the [lockstep] of a Client on the
   other end.  [predict] answers row by row; the default echoes each
   request's feature count into the modifier. *)
let lockstep_server
    ?(predict =
      fun ~level:_ ~features -> Modifier.of_disabled [ Array.length features mod 58 ])
    ch =
  let module Serve = Tessera_protocol.Serve in
  let engine =
    Serve.create
      ~make_predictor:(fun _ ~level rows ->
        Array.map (fun features -> predict ~level ~features) rows)
      ()
  in
  Serve.lockstep engine ch
