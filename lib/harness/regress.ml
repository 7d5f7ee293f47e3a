(* Perf-regression sentinel over the committed BENCH_*.json baselines.

   Every benchmark surface writes a JSON artifact; this module compares
   a candidate set (a fresh run) against a baseline set (the committed
   files) with noise-aware thresholds: wall-clock-derived speedups get a
   relative tolerance wide enough for run-to-run noise, bounded-budget
   metrics (observability overhead) get an absolute ceiling with slack
   over the baseline, and structural invariants (clean drains, identical
   digests, zero lost requests) admit no tolerance at all.  A missing
   artifact on either side is a skip with a note, never a silent pass
   counted as coverage — the report says exactly what was not checked. *)

module Export = Tessera_obs.Export

type outcome = Pass | Fail | Skip

type result = {
  r_file : string;
  r_check : string;
  r_outcome : outcome;
  r_note : string;
}

(* ------------------------------------------------------------------ *)
(* Threshold primitives (unit-tested directly)                          *)
(* ------------------------------------------------------------------ *)

(* higher-is-better metric: the candidate may lose at most [tol]
   (relative) of the baseline.  Non-finite inputs always fail — a NaN
   speedup is a broken bench, not a pass. *)
let min_ratio_ok ~baseline ~candidate ~tol =
  Float.is_finite baseline && Float.is_finite candidate
  && candidate >= baseline *. (1.0 -. tol)

(* lower-is-better metric with a budget: the candidate must stay under
   [max floor (baseline + slack)] — the floor keeps a tiny baseline from
   turning measurement noise into a failure, the slack bounds drift. *)
let max_abs_ok ~baseline ~candidate ~floor ~slack =
  Float.is_finite candidate && candidate <= Float.max floor (baseline +. slack)

(* ------------------------------------------------------------------ *)
(* JSON plumbing                                                        *)
(* ------------------------------------------------------------------ *)

let load_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> (
      match Export.parse_json s with
      | Ok j -> Ok j
      | Error e -> Error (Printf.sprintf "unparseable (%s)" e))
  | exception Sys_error _ -> Error "missing"

let rec lookup path j =
  match path with
  | [] -> Some j
  | k :: rest -> Option.bind (Export.member k j) (lookup rest)

let num path j =
  match lookup path j with
  | Some (Export.Num f) -> Some f
  | Some (Export.Bool b) -> Some (if b then 1.0 else 0.0)
  | _ -> None

let str path j =
  match lookup path j with Some (Export.Jstr s) -> Some s | _ -> None

let key_name path = String.concat "." path

(* ------------------------------------------------------------------ *)
(* Per-file check specifications                                        *)
(* ------------------------------------------------------------------ *)

type check =
  | Min_ratio of string list * float  (* higher-better, relative tolerance *)
  | Min_quotient of string * string list * string list * float
      (* higher-better quotient of two metrics of one artifact (name,
         numerator, denominator), relative tolerance *)
  | Max_budget of string list * float * float  (* lower-better: floor, slack *)
  | Invariant_true of string list
  | Invariant_zero of string list
  | Same_mode of string list
      (* skip marker: ratio checks only compare like with like — a
         baseline recorded in one mode is no yardstick for another *)

let specs =
  [
    ( "BENCH_cache.json",
      [
        Min_ratio ([ "warm_tts_speedup" ], 0.15);
        Invariant_zero [ "runs"; "warm"; "compilations" ];
      ] );
    ( "BENCH_flat.json",
      [
        Min_ratio ([ "flat_speedup_geomean" ], 0.15);
        Min_ratio ([ "flat_super_speedup_geomean" ], 0.15);
        (* fusion's own factor, not its share of the win over the tree
           walker: the share falls when the unfused loop gets faster *)
        Min_quotient
          ( "fusion_factor",
            [ "flat_super_speedup_geomean" ],
            [ "flat_speedup_geomean" ],
            0.15 );
      ] );
    ( "BENCH_obs.json",
      [
        Max_budget ([ "overhead_pct" ], 3.0, 2.0);
        Invariant_zero [ "dropped" ];
      ] );
    ( "BENCH_profile.json",
      [
        Max_budget ([ "profiler_off_overhead_pct" ], 3.0, 2.0);
        Invariant_true [ "deterministic" ];
        Invariant_zero [ "dropped" ];
        Min_ratio ([ "sample_coverage" ], 0.05);
      ] );
    ( "BENCH_parallel.json",
      [ Invariant_true [ "digests_identical" ] ] );
    ( "BENCH_fork.json",
      [
        Min_ratio ([ "records_per_invocation_gain" ], 0.3);
        Invariant_true [ "oracle_ok" ];
      ] );
    ( "BENCH_serve.json",
      [
        Same_mode [ "mode" ];
        Invariant_zero [ "honest_lost" ];
        Invariant_true [ "drain_clean" ];
        Min_ratio ([ "predictions_per_sec" ], 0.6);
      ] );
  ]

let run_check ~file ~base ~cand check =
  let mk check_name outcome note =
    { r_file = file; r_check = check_name; r_outcome = outcome; r_note = note }
  in
  let min_ratio name ~tol value =
    match (value base, value cand) with
    | Some b, Some c ->
        if min_ratio_ok ~baseline:b ~candidate:c ~tol then
          mk name Pass (Printf.sprintf "%.4f vs baseline %.4f (tol %.0f%%)" c b (100. *. tol))
        else
          mk name Fail
            (Printf.sprintf "%.4f below %.4f - %.0f%% of baseline %.4f" c
               (b *. (1.0 -. tol))
               (100. *. tol) b)
    | None, _ -> mk name Skip "metric absent from baseline"
    | _, None -> mk name Fail "metric absent from candidate"
  in
  match check with
  | Min_ratio (path, tol) -> min_ratio (key_name path) ~tol (num path)
  | Min_quotient (name, numerator, denominator, tol) ->
      min_ratio name ~tol (fun j ->
          match (num numerator j, num denominator j) with
          | Some a, Some b -> Some (a /. b)
          | _ -> None)
  | Max_budget (path, floor, slack) -> (
      let name = key_name path in
      match (num path base, num path cand) with
      | Some b, Some c ->
          if max_abs_ok ~baseline:b ~candidate:c ~floor ~slack then
            mk name Pass
              (Printf.sprintf "%.4f within budget %.4f" c
                 (Float.max floor (b +. slack)))
          else
            mk name Fail
              (Printf.sprintf "%.4f over budget %.4f (baseline %.4f)" c
                 (Float.max floor (b +. slack))
                 b)
      | None, _ -> mk name Skip "metric absent from baseline"
      | _, None -> mk name Fail "metric absent from candidate")
  | Invariant_true path -> (
      let name = key_name path in
      match num path cand with
      | Some 1.0 -> mk name Pass "holds"
      | Some _ -> mk name Fail "invariant violated"
      | None -> mk name Fail "invariant absent from candidate")
  | Invariant_zero path -> (
      let name = key_name path in
      match num path cand with
      | Some 0.0 -> mk name Pass "zero"
      | Some v -> mk name Fail (Printf.sprintf "expected 0, got %g" v)
      | None -> mk name Fail "invariant absent from candidate")
  | Same_mode path -> (
      let name = "mode" in
      match (str path base, str path cand) with
      | Some b, Some c when b <> c ->
          mk name Skip
            (Printf.sprintf "baseline mode %S vs candidate %S" b c)
      | _ -> mk name Pass "modes comparable")

let check_file ~baseline_dir ~candidate_dir (file, checks) =
  let bpath = Filename.concat baseline_dir file in
  let cpath = Filename.concat candidate_dir file in
  match (load_json bpath, load_json cpath) with
  | Error why, _ ->
      [ { r_file = file; r_check = "baseline"; r_outcome = Skip;
          r_note = "baseline " ^ why } ]
  | Ok _, Error why ->
      [ { r_file = file; r_check = "candidate"; r_outcome = Skip;
          r_note = "candidate " ^ why } ]
  | Ok base, Ok cand ->
      let results = List.map (run_check ~file ~base ~cand) checks in
      let mode_skipped =
        List.exists (fun r -> r.r_check = "mode" && r.r_outcome = Skip) results
      in
      if not mode_skipped then results
      else
        (* different serving modes: wall-derived ratios are apples to
           oranges — skip them, keep the invariants *)
        List.map
          (fun r ->
            match
              List.find_opt
                (function
                  | Min_ratio (p, _) -> key_name p = r.r_check
                  | Min_quotient (name, _, _, _) -> name = r.r_check
                  | _ -> false)
                checks
            with
            | Some _ ->
                { r with r_outcome = Skip; r_note = "mode mismatch: " ^ r.r_note }
            | None -> r)
          results

let run ?(baseline_dir = ".") ?(candidate_dir = ".") () =
  List.concat_map (check_file ~baseline_dir ~candidate_dir) specs

let failed results = List.exists (fun r -> r.r_outcome = Fail) results

let outcome_name = function Pass -> "PASS" | Fail -> "FAIL" | Skip -> "skip"

let pp_results fmt results =
  Format.fprintf fmt "%-22s %-32s %-5s %s@." "artifact" "check" "" "note";
  Format.fprintf fmt "%s@." (String.make 96 '-');
  List.iter
    (fun r ->
      Format.fprintf fmt "%-22s %-32s %-5s %s@." r.r_file r.r_check
        (outcome_name r.r_outcome) r.r_note)
    results;
  let count o = List.length (List.filter (fun r -> r.r_outcome = o) results) in
  Format.fprintf fmt "@.%d checks: %d pass, %d fail, %d skipped@."
    (List.length results) (count Pass) (count Fail) (count Skip)
