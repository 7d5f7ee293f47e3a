(* Fast checks of the benchmark itself, run by [dune runtest] without
   running any workload: the order statistics, the agreement between
   BENCHMARK.json and the metrics the code reports, and the JSON the
   runs print and write. *)

open Tessera_benchmark
module Export = Tessera_obs.Export

let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n" what
  end

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

let raises f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let summary () =
  expect "median of one value" (Summary.median [| 4.0 |] = 4.0);
  expect "median of two values" (close (Summary.median [| 1.0; 2.0 |]) 1.5);
  expect "median of unsorted values"
    (close (Summary.median [| 9.0; 1.0; 5.0 |]) 5.0);
  expect "p0 is the minimum" (Summary.percentile [| 3.0; 1.0; 2.0 |] 0.0 = 1.0);
  expect "p100 is the maximum" (Summary.percentile [| 3.0; 1.0; 2.0 |] 100.0 = 3.0);
  expect "p90 interpolates"
    (close (Summary.percentile (Array.init 11 float_of_int) 90.0) 9.0);
  let xs = [| 3.0; 1.0; 2.0 |] in
  ignore (Summary.percentile xs 50.0);
  expect "percentile leaves its input alone" (xs = [| 3.0; 1.0; 2.0 |]);
  expect "percentile of nothing raises" (raises (fun () -> Summary.median [||]));
  expect "percentile above 100 raises"
    (raises (fun () -> Summary.percentile [| 1.0 |] 101.0));
  (* the values Python's statistics.quantiles(xs, n=4) gives *)
  let q xs = Array.to_list (Summary.quartiles xs) in
  expect "quartiles of two values" (q [| 2.0; 1.0 |] = [ 0.75; 1.5; 2.25 ]);
  expect "quartiles of five values" (q [| 3.0; 1.0; 2.0; 10.0; 7.0 |] = [ 1.5; 3.0; 8.5 ]);
  expect "quartiles of ten values"
    (q (Array.init 10 (fun i -> float_of_int (i + 1))) = [ 2.75; 5.5; 8.25 ]);
  expect "quartiles of one value raise" (raises (fun () -> Summary.quartiles [| 1.0 |]));
  expect "spread of equal values is zero" (Summary.spread [| 2.0; 2.0; 2.0 |] = 0.0);
  expect "ratio by zero is zero" (Summary.ratio 1.0 0.0 = 0.0)

let legal_name s =
  let ok = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  String.length s >= 1
  && String.length s <= 64
  && String.for_all ok s
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)

let str = function Some (Json.Jstr s) -> s | _ -> ""

let declared () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  match Export.parse_json text with
  | Error e -> expect ("BENCHMARK.json parses: " ^ e) false
  | Ok (Json.Obj fields as doc) ->
      expect "BENCHMARK.json has exactly its six keys"
        (List.sort compare (List.map fst fields)
        = [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds"; "workloads" ]);
      let list k = match Export.member k doc with Some (Json.Arr xs) -> xs | _ -> [] in
      let e2e = list "end_to_end" and layer = list "per_layer" in
      expect "at most 16 end-to-end metrics" (List.length e2e >= 1 && List.length e2e <= 16);
      expect "at most 128 per-layer metrics" (List.length layer >= 1 && List.length layer <= 128);
      let names = List.map (fun m -> str (Export.member "name" m)) (e2e @ layer) in
      List.iter (fun n -> expect ("legal metric name " ^ n) (legal_name n)) names;
      expect "metric names are unique"
        (List.length (List.sort_uniq compare names) = List.length names);
      let bound m = match Export.member "bound" m with Some (Json.Num b) -> b | _ -> nan in
      List.iter
        (fun m ->
          let b = bound m in
          expect ("bound of " ^ str (Export.member "name" m)) (b > 0.0 && b <= 0.25))
        e2e;
      let setup = List.find_opt (fun m -> str (Export.member "name" m) = "setup_s") e2e in
      expect "setup_s is declared in s, lower is better, with the largest bound"
        (match setup with
        | Some m ->
            str (Export.member "unit" m) = "s"
            && str (Export.member "better" m) = "lower"
            && List.for_all (fun m' -> bound m' <= bound m) e2e
        | None -> false);
      let same what code json =
        let of_code =
          List.map
            (fun (m : Spec.metric) -> (m.Spec.name, m.Spec.unit, Spec.better_name m.Spec.better))
            code
        in
        let of_json =
          List.map
            (fun m ->
              ( str (Export.member "name" m),
                str (Export.member "unit" m),
                str (Export.member "better" m) ))
            json
        in
        expect (what ^ " metrics reported = declared (name, unit, better)") (of_code = of_json)
      in
      same "end-to-end" Spec.end_to_end e2e;
      same "per-layer" Spec.per_layer layer;
      expect "every workload is declared"
        (List.map (fun w -> str (Export.member "name" w)) (list "workloads") = Spec.workloads);
      List.iter
        (fun w ->
          let why = str (Export.member "why" w) in
          expect ("a one-line why for " ^ str (Export.member "name" w))
            (why <> "" && String.length why <= 200 && not (String.contains why '\n')))
        (list "workloads")
  | Ok _ -> expect "BENCHMARK.json is an object" false

let outputs () =
  let metrics = List.map (fun (m : Spec.metric) -> (m.Spec.name, 0.125)) Spec.end_to_end in
  let line = Spec.result_line ~correct:true ~attempted:3 ~failed:0 metrics in
  (match Export.parse_json line with
  | Ok j ->
      expect "result line has its four keys"
        (match j with
        | Json.Obj kvs -> List.map fst kvs = [ "correct"; "attempted"; "failed"; "metrics" ]
        | _ -> false);
      expect "result line carries every metric with its unit"
        (match Export.member "metrics" j with
        | Some (Json.Obj ms) ->
            List.map fst ms = List.map fst metrics
            && List.for_all
                 (fun (_, v) ->
                   Export.member "value" v = Some (Json.Num 0.125)
                   && Export.member "unit" v <> None)
                 ms
        | _ -> false)
  | Error e -> expect ("result line parses: " ^ e) false);
  expect "numbers keep every digit" (Json.number 0.1 = "0.10000000000000001");
  expect "non-finite numbers are refused" (raises (fun () -> Json.number nan));
  (* a two-span ledger: the trace parses and self times add up *)
  Ledger.start ();
  Ledger.span "outer" (fun () -> Ledger.span "inner" (fun () -> Unix.sleepf 0.002));
  Ledger.finish ();
  (match Export.parse_json (Ledger.chrome_json ~args:[ ("wall_s", Json.Num 1.0) ]) with
  | Ok j ->
      expect "trace has the summary and both spans plus the root"
        (match Export.member "traceEvents" j with
        | Some (Json.Arr evs) -> List.length evs = 4
        | _ -> false)
  | Error e -> expect ("trace parses: " ^ e) false);
  let self = List.fold_left (fun a (_, t) -> a +. t.Ledger.self) 0.0 (Ledger.layers ()) in
  expect "self times sum to the root span" (close self (Ledger.incl "run"));
  expect "inner time is charged to outer"
    (Ledger.self "outer" < Ledger.incl "outer" && Ledger.incl "inner" >= 0.002)

let () =
  summary ();
  declared ();
  outputs ();
  if !failures > 0 then exit 1;
  print_endline "benchmark self-test: ok"
