(* Wall-clock span ledger of a traced run.

   The benchmark wraps each call it makes into the library in a named
   span.  A span's time is charged to its parent as child time, so a
   layer's self time is its span time minus the spans it contains; the
   root span covers the whole run and its self time is the part no layer
   claims ([ledger.unaccounted_s]).  Spans are kept in memory and written
   once, at exit, as Chrome trace_event JSON that opens in Perfetto.

   [Obs.Trace] is not used: it stamps its events in virtual cycles, and
   this ledger accounts for host time.  With the ledger off (untraced
   runs) every wrapper is a single branch. *)

module Manager = Tessera_opt.Manager
module Catalog = Tessera_opt.Catalog

let now = Unix.gettimeofday

type frame = { name : string; start : float; mutable child : float }

type total = {
  mutable incl : float;
  mutable self : float;
  mutable count : int;
}

let on = ref false
let stack : frame list ref = ref []
let totals : (string, total) Hashtbl.t = Hashtbl.create 32
let spans = ref 0

(* the trace file keeps the first [max_events] spans; totals keep all *)
let max_events = 50_000
let events : (string * float * float) list ref = ref []

let total name =
  match Hashtbl.find_opt totals name with
  | Some t -> t
  | None ->
      let t = { incl = 0.0; self = 0.0; count = 0 } in
      Hashtbl.replace totals name t;
      t

let charge name ~incl ~self =
  let t = total name in
  t.incl <- t.incl +. incl;
  t.self <- t.self +. self;
  t.count <- t.count + 1

let enter name =
  if !on then stack := { name; start = now (); child = 0.0 } :: !stack

let pop () =
  match !stack with
  | [] -> ()
  | f :: rest ->
      let dur = now () -. f.start in
      stack := rest;
      (match rest with p :: _ -> p.child <- p.child +. dur | [] -> ());
      charge f.name ~incl:dur ~self:(dur -. f.child);
      if !spans < max_events then events := (f.name, f.start, dur) :: !events;
      incr spans

(* Closes [name] and any frame opened inside it and left open: a
   compile span begun by [pre_compile] stays open if the compilation
   raises before [on_compiled]. *)
let leave name =
  if !on && List.exists (fun f -> f.name = name) !stack then begin
    while (List.hd !stack).name <> name do
      pop ()
    done;
    pop ()
  end

let span name f =
  if not !on then f ()
  else begin
    enter name;
    match f () with
    | v ->
        leave name;
        v
    | exception e ->
        leave name;
        raise e
  end

let self name =
  match Hashtbl.find_opt totals name with Some t -> t.self | None -> 0.0

let incl name =
  match Hashtbl.find_opt totals name with Some t -> t.incl | None -> 0.0

(* -- optimizer passes, through the public lint hook ------------------

   [Manager.optimize] asks the hook for an auditor once per call and
   calls it after every executed pass, so the time since the previous
   call (or since the start of [optimize]) is that pass's time.  The
   hook runs on every domain of a collection pool: totals are atomic,
   and only the main domain charges the open span, whose stack it
   owns. *)

let pass_ns = Array.init Catalog.count (fun _ -> Atomic.make 0)
let pass_runs = Array.init Catalog.count (fun _ -> Atomic.make 0)
let optimize_calls = Atomic.make 0

let pass_auditor _program =
  Atomic.incr optimize_calls;
  let last = ref (now ()) in
  fun ~pass_index ~pass_name:_ ~before:_ ~after:_ ->
    let t = now () in
    let dt = t -. !last in
    last := t;
    ignore (Atomic.fetch_and_add pass_ns.(pass_index) (int_of_float (dt *. 1e9)));
    Atomic.incr pass_runs.(pass_index);
    if Domain.is_main_domain () then begin
      (match !stack with p :: _ -> p.child <- p.child +. dt | [] -> ());
      charge "opt.passes" ~incl:dt ~self:dt
    end

let passes_s () =
  Array.fold_left (fun a c -> a +. (float_of_int (Atomic.get c) /. 1e9)) 0.0 pass_ns

let pass_applications () =
  Array.fold_left (fun a c -> a + Atomic.get c) 0 pass_runs

(* Host cost of one span and of one pass-hook call, measured before the
   run starts and then forgotten: the basis of [trace.overhead_pct]. *)
let calibrate () =
  let reps = 20_000 in
  let t0 = now () in
  for _ = 1 to reps do
    enter "calibrate";
    leave "calibrate"
  done;
  let per_span = (now () -. t0) /. float_of_int reps in
  let audit = pass_auditor () in
  let m =
    Tessera_il.Meth.make ~name:"calibrate" ~params:[||]
      ~ret:Tessera_il.Types.Void ~symbols:[||] [||]
  in
  let t0 = now () in
  for _ = 1 to reps do
    audit ~pass_index:0 ~pass_name:"" ~before:m ~after:m
  done;
  let per_pass = (now () -. t0) /. float_of_int reps in
  Hashtbl.reset totals;
  spans := 0;
  events := [];
  Array.iter (fun a -> Atomic.set a 0) pass_ns;
  Array.iter (fun a -> Atomic.set a 0) pass_runs;
  Atomic.set optimize_calls 0;
  (per_span, per_pass)

let unit_cost = ref (0.0, 0.0)

let start () =
  on := true;
  unit_cost := calibrate ();
  Manager.lint_hook := Some pass_auditor;
  enter "run"

let finish () =
  leave "run";
  Manager.lint_hook := None;
  on := false

(* estimated host time the ledger itself added to the run *)
let overhead_s () =
  let per_span, per_pass = !unit_cost in
  (float_of_int !spans *. per_span)
  +. (float_of_int (pass_applications ()) *. per_pass)

let chrome_json ~args =
  let origin =
    List.fold_left (fun m (_, s, _) -> Float.min m s) infinity !events
  in
  let us x = Json.Num (Float.round (x *. 1e7) /. 10.0) in
  let ev (name, start, dur) =
    Json.Obj
      [
        ("name", Json.Jstr name);
        ("cat", Json.Jstr "benchmark");
        ("ph", Json.Jstr "X");
        ("ts", us (start -. origin));
        ("dur", us dur);
        ("pid", Json.int 1);
        ("tid", Json.int 1);
      ]
  in
  let summary =
    Json.Obj
      [
        ("name", Json.Jstr "ledger");
        ("ph", Json.Jstr "i");
        ("s", Json.Jstr "g");
        ("ts", Json.int 0);
        ("pid", Json.int 1);
        ("tid", Json.int 1);
        ("args", Json.Obj args);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.Arr (summary :: List.rev_map ev !events));
         ("displayTimeUnit", Json.Jstr "ms");
       ])

let layers () =
  Hashtbl.fold (fun name t acc -> (name, t) :: acc) totals []
  |> List.sort compare

let pass_breakdown () =
  List.filter_map
    (fun i ->
      let runs = Atomic.get pass_runs.(i) in
      if runs = 0 then None
      else
        Some
          ( Catalog.all.(i).Catalog.name,
            Json.Obj
              [
                ("s", Json.Num (float_of_int (Atomic.get pass_ns.(i)) /. 1e9));
                ("runs", Json.int runs);
              ] ))
    (List.init Catalog.count Fun.id)
