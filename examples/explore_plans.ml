(* Per-method compilation-plan exploration (Section 5 of the paper in
   miniature): take one generated method, compile and run it under many
   plan modifiers, rank them with Eq. (2), and show what the search
   discovers — which transformations were worth disabling for THIS method.

   Run with: dune exec examples/explore_plans.exe *)

module Program = Tessera_il.Program
module Values = Tessera_vm.Values
module Plan = Tessera_opt.Plan
module Modifier = Tessera_modifiers.Modifier
module Compiler = Tessera_jit.Compiler
module Prng = Tessera_util.Prng

let () =
  let profile =
    { Tessera_workloads.Profile.default with
      Tessera_workloads.Profile.name = "explore"; seed = 77L; methods = 4 }
  in
  let program = Tessera_workloads.Generate.program profile in
  (* pick the loopiest method *)
  let target, meth =
    let best = ref (0, Program.meth program 0) in
    for id = 0 to Program.method_count program - 1 do
      let m = Program.meth program id in
      if
        Tessera_il.Meth.has_backward_branch m
        && Tessera_il.Meth.tree_count m
           > Tessera_il.Meth.tree_count (snd !best)
      then best := (id, m)
    done;
    !best
  in
  Format.printf "exploring %s (%d IL nodes)@.@." meth.Tessera_il.Meth.name
    (Tessera_il.Meth.tree_count meth);

  (* cost of one invocation under a given compilation *)
  let run_cycles (comp : Compiler.compilation) =
    let code = comp.Compiler.code in
    let cycles = ref 0 in
    let fuel = ref 50_000_000 in
    let rec invoke id args =
      (* callees stay interpreted: we are studying one method *)
      let ctx =
        { Tessera_vm.Interp.classes = program.Program.classes;
          charge = (fun n -> cycles := !cycles + n); invoke; fuel }
      in
      if id = target then Tessera_flat.Interp.run ctx code args
      else Tessera_vm.Interp.run ctx (Program.meth program id) args
    in
    let args =
      Array.map
        (function
          | Tessera_il.Types.Double -> Values.Float_v 1.5
          | Tessera_il.Types.Long -> Values.Int_v 37L
          | _ -> Values.Int_v 11L)
        meth.Tessera_il.Meth.params
    in
    (try ignore (invoke target args) with Values.Trap _ -> ());
    !cycles
  in

  let rng = Prng.create 4242L in
  let level = Plan.Hot in
  let trials =
    (Modifier.null, "null (original Testarossa plan)")
    :: List.init 40 (fun i ->
           ( Modifier.progressive rng ~i:(1 + (i * 50)) ~l:2000,
             Printf.sprintf "progressive #%d" (1 + (i * 50)) ))
  in
  let scored =
    List.map
      (fun (m, label) ->
        let comp = Compiler.compile ~modifier:m ~program ~level meth in
        let run = run_cycles comp in
        (* Eq. (2): V = R/I + C/T_h with one invocation measured *)
        let t_h =
          float_of_int
            (Tessera_jit.Triggers.trigger level
               (Tessera_jit.Triggers.loop_class_of meth))
        in
        let v = float_of_int run +. (float_of_int comp.Compiler.compile_cycles /. t_h) in
        (v, run, comp.Compiler.compile_cycles, m, label))
      trials
  in
  let sorted = List.sort compare scored in
  Format.printf "%-28s %10s %10s %10s  disabled@." "modifier" "V (Eq.2)" "run cyc"
    "compile";
  List.iteri
    (fun i (v, run, compile, m, label) ->
      if i < 8 then
        Format.printf "%-28s %10.0f %10d %10d  %d: %s@." label v run compile
          (Modifier.disabled_count m)
          (String.concat ","
             (List.map string_of_int (Modifier.disabled_indices m))))
    sorted;
  let _, _, base_compile, _, _ =
    List.find (fun (_, _, _, m, _) -> Modifier.is_null m) scored
  in
  let best_v, best_run, best_compile, best_m, _ = List.hd sorted in
  Format.printf "@.best plan disables %d transformations, saving %.0f%% of \
                 compile time (V=%.0f, run=%d)@."
    (Modifier.disabled_count best_m)
    (100.0 *. (1.0 -. (float_of_int best_compile /. float_of_int base_compile)))
    best_v best_run
