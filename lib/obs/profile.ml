(* Deterministic sampling profiler over the virtual clock.  Interpreter
   dispatch loops call [charge] with every cycle cost they charge; the
   hot path only decrements a credit counter, and a sample fires each
   time [period] charged cycles have accumulated — so the sample stream
   is a pure function of the charged-cycle sequence, and two runs of the
   same seed produce byte-identical profiles (the canonical-string
   oracle below).  Attribution is (method, block, opcode) at the site
   that crossed the period boundary; a fire spanning k periods carries
   weight k, so no cycles are ever lost to coarse costs. *)

type key = { k_meth : string; k_block : int; k_op : string }

let enabled = ref false
let period_v = ref 4096
let max_sites_v = ref 4096
let credit = ref 4096
let total = ref 0
let dropped = ref 0
let sites : (key, int ref) Hashtbl.t = Hashtbl.create 256
let mu = Mutex.create ()

let reset () =
  Mutex.lock mu;
  Hashtbl.reset sites;
  total := 0;
  dropped := 0;
  credit := !period_v;
  Mutex.unlock mu

let enable ?(period = 4096) ?(max_sites = 4096) () =
  if period <= 0 then invalid_arg "Profile.enable: period must be positive";
  if max_sites <= 0 then invalid_arg "Profile.enable: max_sites must be positive";
  period_v := period;
  max_sites_v := max_sites;
  reset ();
  enabled := true

let disable () = enabled := false
let period () = !period_v
let total_samples () = !total
let dropped_samples () = !dropped
let site_count () = Hashtbl.length sites

(* Cold half of [charge]: the credit underflowed.  The table update is
   mutex-guarded — fires are rare (one per [period] cycles), so the lock
   is off the hot path; the bound keeps a pathological workload from
   growing the table without limit (overflow weight is counted, not
   silently lost). *)
let fire ~meth ~block ~op over =
  let p = !period_v in
  let weight = 1 + (over / p) in
  credit := p - (over mod p);
  Mutex.lock mu;
  let key = { k_meth = meth; k_block = block; k_op = op } in
  (match Hashtbl.find_opt sites key with
  | Some r ->
      r := !r + weight;
      total := !total + weight
  | None ->
      if Hashtbl.length sites >= !max_sites_v then dropped := !dropped + weight
      else begin
        Hashtbl.add sites key (ref weight);
        total := !total + weight
      end);
  Mutex.unlock mu

let charge ~meth ~block ~op cost =
  let c = !credit - cost in
  if c > 0 then credit := c else fire ~meth ~block ~op (-c)

let compare_key a b =
  let c = String.compare a.k_meth b.k_meth in
  if c <> 0 then c
  else
    let c = compare a.k_block b.k_block in
    if c <> 0 then c else String.compare a.k_op b.k_op

let samples () =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) sites []
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)
  |> List.map (fun (k, n) -> ((k.k_meth, k.k_block, k.k_op), n))

(* hottest first; key order breaks ties so the ranking is deterministic *)
let ranked assoc =
  List.sort
    (fun (ka, na) (kb, nb) ->
      if na <> nb then compare nb na else String.compare ka kb)
    assoc

let aggregate f =
  let tbl = Hashtbl.create 64 in
  Hashtbl.iter
    (fun k r ->
      let name = f k in
      let cur = Option.value ~default:0 (Hashtbl.find_opt tbl name) in
      Hashtbl.replace tbl name (cur + !r))
    sites;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [] |> ranked

let hot_methods () = aggregate (fun k -> k.k_meth)
let hot_ops () = aggregate (fun k -> k.k_op)

let flame_lines () =
  samples ()
  |> List.map (fun ((meth, block, op), n) ->
         Printf.sprintf "%s;block_%d;%s %d" meth block op n)

let to_canonical_string () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "period %d total %d dropped %d\n" !period_v !total !dropped);
  List.iter
    (fun ((meth, block, op), n) ->
      Buffer.add_string buf (Printf.sprintf "%s %d %s %d\n" meth block op n))
    (samples ());
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json () =
  let p = !period_v in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"period_cycles\": %d,\n" p);
  Buffer.add_string buf (Printf.sprintf "  \"total_samples\": %d,\n" !total);
  Buffer.add_string buf (Printf.sprintf "  \"dropped_samples\": %d,\n" !dropped);
  Buffer.add_string buf
    (Printf.sprintf "  \"sites\": %d,\n" (Hashtbl.length sites));
  let entries fmt_one l =
    String.concat ",\n" (List.map fmt_one l)
  in
  Buffer.add_string buf "  \"hot_methods\": [\n";
  Buffer.add_string buf
    (entries
       (fun (m, n) ->
         Printf.sprintf
           "    {\"method\": \"%s\", \"samples\": %d, \"est_cycles\": %d}"
           (json_escape m) n (n * p))
       (hot_methods ()));
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"hot_ops\": [\n";
  Buffer.add_string buf
    (entries
       (fun (o, n) ->
         Printf.sprintf
           "    {\"op\": \"%s\", \"samples\": %d, \"est_cycles\": %d}"
           (json_escape o) n (n * p))
       (hot_ops ()));
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"flame\": [\n";
  Buffer.add_string buf
    (entries
       (fun line -> Printf.sprintf "    \"%s\"" (json_escape line))
       (flame_lines ()));
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let report fmt =
  Format.fprintf fmt "sampling profile: period %d cycles, %d samples" !period_v
    !total;
  if !dropped > 0 then
    Format.fprintf fmt " (+%d dropped past the %d-site bound)" !dropped
      !max_sites_v;
  Format.fprintf fmt "@.";
  let p = float_of_int !period_v in
  let tot = float_of_int (max 1 !total) in
  Format.fprintf fmt "@.%-44s %10s %8s@." "method" "samples" "share";
  List.iteri
    (fun i (m, n) ->
      if i < 10 then
        Format.fprintf fmt "%-44s %10d %7.1f%%@." m n
          (100.0 *. float_of_int n /. tot))
    (hot_methods ());
  Format.fprintf fmt "@.%-20s %10s %8s %14s@." "opcode" "samples" "share"
    "est cycles";
  List.iteri
    (fun i (o, n) ->
      if i < 10 then
        Format.fprintf fmt "%-20s %10d %7.1f%% %14.0f@." o n
          (100.0 *. float_of_int n /. tot)
          (float_of_int n *. p))
    (hot_ops ())
