module Meth = Tessera_il.Meth
module Program = Tessera_il.Program
module Cost = Tessera_vm.Cost

type result = {
  meth : Meth.t;
  quality : Cost.codegen_quality;
  opt_cycles : int;
  front_cycles : int;
  back_cycles : int;
  applied : int list;
  skipped_inapplicable : int list;
  disabled : int list;
  initial_nodes : int;
  final_nodes : int;
}

let total_cycles r = r.opt_cycles + r.front_cycles + r.back_cycles

type pass_audit =
  pass_index:int ->
  pass_name:string ->
  before:Meth.t ->
  after:Meth.t ->
  unit

(* Dependency inversion: the lint auditor lives in [tessera.analysis],
   which sits above this library.  [Tessera_analysis.Lint.install] sets
   the hook; [optimize] consults it when no explicit audit is passed. *)
let lint_hook : (Program.t -> pass_audit) option ref = ref None

let quality_of_hints h =
  if h >= 2 then Cost.Q_full else if h = 1 then Cost.Q_regalloc else Cost.Q_base

let max_quality a b = if Cost.quality_rank a >= Cost.quality_rank b then a else b

let optimize ?(enabled = fun _ -> true) ?(validate = false) ?audit
    ?(quality_floor = Cost.Q_base) ~program ~plan m =
  let audit =
    match audit with
    | Some _ -> audit
    | None -> Option.map (fun f -> f program) !lint_hook
  in
  let ctx = { Catalog.program } in
  let meth = ref m in
  (* traits of [!meth], taken again only when a pass hands back a new
     method: an unchanged method comes back as itself *)
  let traits = ref (Catalog.traits_of m) in
  let traits_meth = ref m in
  let current_traits () =
    if !traits_meth != !meth then begin
      traits := Catalog.traits_of !meth;
      traits_meth := !meth
    end;
    !traits
  in
  let cycles = ref 0 in
  let hints = ref 0 in
  let applied = ref [] in
  let skipped = ref [] in
  let disabled = ref [] in
  let initial_nodes = !traits.Catalog.nodes in
  List.iter
    (fun idx ->
      let e = Catalog.all.(idx) in
      if not (enabled idx) then disabled := idx :: !disabled
      else begin
        let traits = current_traits () in
        if not (e.Catalog.applicable traits) then begin
          cycles := !cycles + Catalog.check_cycles;
          skipped := idx :: !skipped
        end
        else begin
          let base, per_node = Catalog.weight_cycles e.Catalog.weight in
          cycles := !cycles + base + (per_node * traits.Catalog.nodes);
          hints := !hints + e.Catalog.quality_hint;
          let m' = e.Catalog.run ctx !meth in
          (match audit with
          | Some f ->
              f ~pass_index:idx ~pass_name:e.Catalog.name ~before:!meth
                ~after:m'
          | None -> ());
          if validate then begin
            match
              Tessera_il.Validate.check_method
                ~classes:program.Program.classes
                ~method_count:(Program.method_count program)
                m'
            with
            | [] -> ()
            | errs ->
                invalid_arg
                  (Printf.sprintf "pass %s broke the IR: %s" e.Catalog.name
                     (String.concat "; "
                        (List.map
                           (fun e -> Format.asprintf "%a" Tessera_il.Validate.pp_error e)
                           errs)))
          end;
          meth := m';
          applied := idx :: !applied
        end
      end)
    plan;
  let final_nodes = (current_traits ()).Catalog.nodes in
  {
    meth = !meth;
    quality = max_quality quality_floor (quality_of_hints !hints);
    opt_cycles = !cycles;
    front_cycles = 2_000 + (25 * initial_nodes);
    back_cycles = 3_000 + (40 * final_nodes);
    applied = List.rev !applied;
    skipped_inapplicable = List.rev !skipped;
    disabled = List.rev !disabled;
    initial_nodes;
    final_nodes;
  }
