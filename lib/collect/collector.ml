module Plan = Tessera_opt.Plan
module Values = Tessera_vm.Values
module Program = Tessera_il.Program
module Meth = Tessera_il.Meth
module Modifier = Tessera_modifiers.Modifier
module Queue_ctrl = Tessera_modifiers.Queue_ctrl
module Engine = Tessera_jit.Engine
module Compiler = Tessera_jit.Compiler
module Prng = Tessera_util.Prng
module Pool = Tessera_util.Pool
module Trace = Tessera_obs.Trace
module Metrics = Tessera_obs.Metrics

type fork_params = {
  strategy : Queue_ctrl.strategy;
  fanout : int;
  jobs : int;
  reexec : bool;
}

type search =
  | Queue of Queue_ctrl.strategy
  | Guided of Tessera_modifiers.Guided.params
  | Fork of fork_params

let fork_defaults strategy = { strategy; fanout = 0; jobs = 1; reexec = false }

type config = {
  levels : Plan.level list;
  search : search;
  uses_per_modifier : int;
  seed : int64;
  max_entry_invocations : int;
  target : Tessera_vm.Target.t;
  fuel_per_invocation : int;
}

let default_config =
  {
    levels = [ Plan.Cold; Plan.Warm; Plan.Hot ];
    search = Queue (Queue_ctrl.Progressive { l = 2000 });
    uses_per_modifier = 50;
    seed = 0xC011EC7L;
    max_entry_invocations = 400;
    target = Tessera_vm.Target.zircon;
    fuel_per_invocation = Engine.default_config.Engine.fuel_per_invocation;
  }

(* The paper targets 10 ms of accumulated running time between
   compilations with thresholds in [50, 50000]; invocation volumes in
   this simulation are ~100x smaller, so the target scales down to
   0.25 ms, with thresholds in [10, 2000], to reach an equivalent
   modifier-exploration rate. *)
let target_cycles_between_compiles = Tessera_vm.Cost.cycles_per_ms / 4
let min_threshold = 10
let max_threshold = 2_000

type stats = {
  entry_invocations : int;
  records : int;
  discarded_samples : int;
  compilations : int;
  forks : int;
  branches : int;
  branch_invocations : int;
  skipped_decisions : int;
}

type meth_collect = {
  mutable open_record : Record.t option;
  mutable version_invocations : int;
  mutable threshold : int option;
  mutable first_samples : int64 list;  (** first 8 valid sample cycles *)
}

(* ------------------------------------------------------------------ *)
(* Sweep collection (Queue / Guided): the trunk run carries the whole   *)
(* exploration, one modifier per recompilation.                         *)
(* ------------------------------------------------------------------ *)

let run_sweep ~config ~program ~benchmark ~entry_args () =
  let dictionary = Dictionary.create () in
  let store = ref [] in
  let discarded = ref 0 in
  let rng = Prng.create config.seed in
  (* one explorer per collected level *)
  let explorers =
    List.map
      (fun level ->
        let seed = Prng.next_int64 rng in
        match config.search with
        | Queue strategy ->
            ( level,
              `Queue
                (Queue_ctrl.create ~uses_per_modifier:config.uses_per_modifier
                   ~seed strategy) )
        | Guided params ->
            (level, `Guided (Tessera_modifiers.Guided.create ~params ~seed ()))
        | Fork _ -> assert false (* dispatched to run_fork *))
      config.levels
  in
  let per_meth =
    Array.init (Program.method_count program) (fun _ ->
        {
          open_record = None;
          version_invocations = 0;
          threshold = None;
          first_samples = [];
        })
  in
  let close_record ~meth_id mc =
    match mc.open_record with
    | Some r ->
        store := r :: !store;
        mc.open_record <- None;
        (* guided search learns from the Eq.-2 value of the finished
           experiment *)
        if r.Record.invocations > 0 then
          List.iter
            (fun (level, e) ->
              match e with
              | `Guided g when level = r.Record.level ->
                  Tessera_modifiers.Guided.feedback g ~method_key:meth_id
                    r.Record.modifier (Rank_value.value r)
              | _ -> ())
            explorers
    | None -> ()
  in
  let choose_modifier _engine ~meth_id ~level =
    match List.assoc_opt level explorers with
    | Some (`Queue q) -> Queue_ctrl.next q ~method_key:meth_id
    | Some (`Guided g) -> Tessera_modifiers.Guided.next g ~method_key:meth_id
    | None -> None (* levels outside the collection set are not explored *)
  in
  let on_compiled engine ~meth_id (comp : Compiler.compilation) =
    let mc = per_meth.(meth_id) in
    close_record ~meth_id mc;
    let name = (Program.meth program meth_id).Meth.name in
    mc.open_record <-
      Some
        (Record.make
           ~sig_id:(Dictionary.intern dictionary name)
           ~features:(Engine.features engine meth_id)
           ~level:comp.Compiler.level
           ~modifier:comp.Compiler.modifier
           ~compile_cycles:comp.Compiler.compile_cycles);
    mc.version_invocations <- 0
  in
  let on_sample _engine ~meth_id ~cycles ~valid =
    let mc = per_meth.(meth_id) in
    match mc.open_record with
    | None -> () (* still interpreted: no record to charge *)
    | Some r ->
        mc.open_record <- Some (Record.add_sample r ~cycles ~valid);
        if not valid then incr discarded
        else begin
          mc.version_invocations <- mc.version_invocations + 1;
          if mc.threshold = None then begin
            mc.first_samples <- cycles :: mc.first_samples;
            if List.length mc.first_samples >= 8 then begin
              let total =
                List.fold_left Int64.add 0L mc.first_samples
              in
              let avg =
                max 1 (Int64.to_int (Int64.div total 8L))
              in
              let t = target_cycles_between_compiles / avg in
              mc.threshold <- Some (max min_threshold (min max_threshold t))
            end
          end
        end
  in
  let post_invoke engine ~meth_id =
    let mc = per_meth.(meth_id) in
    match (mc.open_record, mc.threshold) with
    | Some r, Some threshold when mc.version_invocations >= threshold ->
        let st = Engine.state engine meth_id in
        if st.Engine.pending = None && not st.Engine.no_more then
          Engine.request_compile engine ~meth_id ~level:r.Record.level ()
    | _ -> ()
  in
  let engine =
    Engine.create
      ~config:
        {
          Engine.default_config with
          Engine.instrument = true;
          (* dwell longer at each level so cold and warm plans are
             explored too, not just hot *)
          trigger_scale = 8.0;
          target = config.target;
          fuel_per_invocation = config.fuel_per_invocation;
          clock_seed = Prng.next_int64 rng;
        }
      ~callbacks:
        {
          Engine.no_callbacks with
          Engine.choose_modifier = Some choose_modifier;
          on_compiled = Some on_compiled;
          on_sample = Some on_sample;
          post_invoke = Some post_invoke;
        }
      program
  in
  let invocations = ref 0 in
  let exhausted () =
    List.for_all
      (fun (_, e) ->
        match e with
        | `Queue q -> Queue_ctrl.exhausted q
        | `Guided _ -> false (* bounded per method, not globally *))
      explorers
  in
  while !invocations < config.max_entry_invocations && not (exhausted ()) do
    ignore (Engine.invoke_entry engine (entry_args !invocations));
    incr invocations
  done;
  Array.iteri (fun meth_id mc -> close_record ~meth_id mc) per_meth;
  let records = List.rev !store in
  (* records with no valid invocation cannot be ranked (Eq. 2 divides by
     I); they correspond to the paper's discarded crashed/empty sessions *)
  let records = List.filter (fun (r : Record.t) -> r.Record.invocations > 0) records in
  ( { Archive.benchmark; dictionary; records },
    {
      entry_invocations = !invocations;
      records = List.length records;
      discarded_samples = !discarded;
      compilations = Engine.compile_count engine;
      forks = 0;
      branches = 0;
      branch_invocations = 0;
      skipped_decisions = 0;
    } )

(* ------------------------------------------------------------------ *)
(* Compilation forking: one warm trunk run decides when/where to        *)
(* compile and keeps a snapshot at each decision; then one pool runs a  *)
(* branch per (decision, candidate modifier), each measuring its        *)
(* candidate from the decision's snapshot (DESIGN.md §15).              *)
(* ------------------------------------------------------------------ *)

type decision = { d_meth : int; d_level : Plan.level }

(* A fork point the trunk expanded: the decision, its method's dictionary
   id, the entry boundary it was reached at, and the trunk state there
   ([None] for the re-execution oracle, whose branches replay to the
   boundary instead). *)
type fork_point = {
  decision : decision;
  sig_id : int;
  start_inv : int;
  snap : Engine.snapshot option;
}

let run_fork ~config ~(params : fork_params) ~program ~benchmark ~entry_args ()
    =
  let dictionary = Dictionary.create () in
  let rng = Prng.create config.seed in
  (* Per-level candidate sets: the null plan first (the baseline
     observation every sweep also makes), then the queue's own modifier
     sequence for this seed — the same modifiers a [Queue] collector with
     this seed would dole out one per recompilation — truncated to
     [fanout] modifiers when positive.  Seeds are drawn exactly like the
     sweep's per-level explorer seeds. *)
  let candidates =
    List.map
      (fun level ->
        let seed = Prng.next_int64 rng in
        let mods = Array.to_list (Queue_ctrl.generate ~seed params.strategy) in
        let mods =
          if params.fanout > 0 then
            List.filteri (fun i _ -> i < params.fanout) mods
          else mods
        in
        (level, Modifier.null :: mods))
      config.levels
  in
  let engine_config =
    {
      Engine.default_config with
      Engine.instrument = true;
      trigger_scale = 8.0;
      target = config.target;
      fuel_per_invocation = config.fuel_per_invocation;
      clock_seed = Prng.next_int64 rng;
    }
  in
  (* Decision queue: the trunk's own adaptive compilations (null
     modifier) mark the fork points, once per (method, collected level). *)
  let decisions = Queue.create () in
  let seen = Hashtbl.create 64 in
  let trunk_on_compiled _e ~meth_id (comp : Compiler.compilation) =
    let level = comp.Compiler.level in
    if
      List.mem_assoc level candidates
      && not (Hashtbl.mem seen (meth_id, level))
    then begin
      Hashtbl.add seen (meth_id, level) ();
      Queue.push { d_meth = meth_id; d_level = level } decisions
    end
  in
  let trunk =
    Engine.create ~config:engine_config
      ~callbacks:
        { Engine.no_callbacks with Engine.on_compiled = Some trunk_on_compiled }
      program
  in
  let m = Engine.metrics trunk in
  let m_forks =
    Metrics.counter m ~help:"Fork points expanded into branch fan-outs"
      "collect_fork_decisions_total"
  in
  let m_branches =
    Metrics.counter m ~help:"Forked branches run (one per candidate modifier)"
      "collect_fork_branches_total"
  in
  let m_branch_invs =
    Metrics.counter m ~help:"Entry invocations executed inside branches"
      "collect_fork_branch_invocations_total"
  in
  let m_skipped =
    Metrics.counter m
      ~help:"Fork decisions dropped (install still pending at end of run)"
      "collect_fork_skipped_total"
  in
  (* Phase 1: the trunk runs its whole budget and queues one branch job
     per candidate of every fork point it expands, in decision order. *)
  let branch_jobs = ref [] in
  let forks = ref 0 in
  let expand ~start_inv (d : decision) =
    let st = Engine.state trunk d.d_meth in
    (* fork only from a settled state: a pending install would race the
       branch's own compilation request *)
    if st.Engine.pending <> None then `Retry
    else begin
      let name = (Program.meth program d.d_meth).Meth.name in
      let cands = List.assoc d.d_level candidates in
      (* extract on the trunk, so the snapshot every branch starts from
         already carries the vector its record reads *)
      ignore (Engine.features trunk d.d_meth);
      incr forks;
      Metrics.inc m_forks;
      if !Trace.enabled then begin
        let cycles = Engine.clock_now trunk in
        Trace.span_begin ~cycles ~cat:"collect"
          ~args:
            [
              ("meth", Trace.Str name);
              ("level", Trace.Str (Plan.level_name d.d_level));
              ("branches", Trace.Int (Int64.of_int (List.length cands)));
            ]
          "fork";
        Trace.span_end ~cycles ~cat:"collect" "fork"
      end;
      let point =
        {
          decision = d;
          sig_id = Dictionary.intern dictionary name;
          start_inv;
          snap = (if params.reexec then None else Some (Engine.snapshot trunk));
        }
      in
      List.iter (fun c -> branch_jobs := (point, c) :: !branch_jobs) cands;
      `Done
    end
  in
  let invocations = ref 0 in
  while !invocations < config.max_entry_invocations do
    ignore (Engine.invoke_entry trunk (entry_args !invocations));
    incr invocations;
    (* Entry boundaries are the fork points: replaying [start_inv] whole
       invocations is well-defined, mid-invocation states are not.  Each
       queued decision is tried once per boundary and re-queued while its
       trunk install is still pending. *)
    let ready = Queue.length decisions in
    for _ = 1 to ready do
      let d = Queue.pop decisions in
      match expand ~start_inv:!invocations d with
      | `Done -> ()
      | `Retry -> Queue.push d decisions
    done
  done;
  (* decisions still blocked on a pending install when the budget ran out *)
  let skipped = Queue.length decisions in
  Metrics.add m_skipped skipped;
  (* Phase 2: one branch measures [candidate] for [point.decision] on a
     fresh engine started at the fork point.  The record opens when the
     requested compilation installs and closes early if the method is
     recompiled again inside the branch (the version under measurement
     is gone). *)
  let run_branch (point, candidate) =
    let d = point.decision in
    let record = ref None in
    let closed = ref false in
    let active = ref false in
    let disc = ref 0 in
    let invs = ref 0 in
    let on_compiled e ~meth_id (comp : Compiler.compilation) =
      if !active && meth_id = d.d_meth then
        match !record with
        | None ->
            record :=
              Some
                (Record.make ~sig_id:point.sig_id
                   ~features:(Engine.features e meth_id)
                   ~level:comp.Compiler.level ~modifier:comp.Compiler.modifier
                   ~compile_cycles:comp.Compiler.compile_cycles)
        | Some _ -> closed := true
    in
    let on_sample _e ~meth_id ~cycles ~valid =
      if !active && meth_id = d.d_meth && not !closed then
        match !record with
        | Some r ->
            record := Some (Record.add_sample r ~cycles ~valid);
            if not valid then incr disc
        | None -> () (* pre-install samples belong to the old version *)
    in
    let branch =
      Engine.create ~config:engine_config
        ~callbacks:
          {
            Engine.no_callbacks with
            Engine.on_compiled = Some on_compiled;
            on_sample = Some on_sample;
          }
        program
    in
    (match point.snap with
    | Some snap -> Engine.restore branch snap
    | None ->
        (* The differential oracle's branch: rebuild the fork point by
           replaying the fresh engine to the same entry boundary.  The
           callbacks are inert ([active] is false) during the prefix, so
           determinism makes the replica's state — and therefore every
           measurement below — identical to the snapshot branch's. *)
        for i = 0 to point.start_inv - 1 do
          ignore (Engine.invoke_entry branch (entry_args i))
        done);
    active := true;
    Engine.request_compile branch ~meth_id:d.d_meth ~level:d.d_level
      ~modifier:candidate ();
    let i = ref point.start_inv in
    while !invs < config.uses_per_modifier && not !closed do
      ignore (Engine.invoke_entry branch (entry_args !i));
      incr i;
      incr invs
    done;
    (!record, !invs, !disc)
  in
  let results =
    Pool.run_list ~jobs:params.jobs run_branch (List.rev !branch_jobs)
  in
  (* branches stamped this domain's trace source with their own clocks:
     the trunk takes it back *)
  Engine.claim_trace_source trunk;
  let branch_invs = ref 0 in
  let discarded = ref 0 in
  let records =
    List.filter_map
      (fun (record, invs, disc) ->
        Metrics.inc m_branches;
        branch_invs := !branch_invs + invs;
        Metrics.add m_branch_invs invs;
        discarded := !discarded + disc;
        record)
      results
  in
  let records =
    List.filter (fun (r : Record.t) -> r.Record.invocations > 0) records
  in
  ( { Archive.benchmark; dictionary; records },
    {
      entry_invocations = !invocations;
      records = List.length records;
      discarded_samples = !discarded;
      compilations = Engine.compile_count trunk;
      forks = !forks;
      branches = List.length results;
      branch_invocations = !branch_invs;
      skipped_decisions = skipped;
    } )

let run ?(config = default_config) ~program ~benchmark ~entry_args () =
  match config.search with
  | Fork params -> run_fork ~config ~params ~program ~benchmark ~entry_args ()
  | Queue _ | Guided _ -> run_sweep ~config ~program ~benchmark ~entry_args ()
