module Record = Tessera_collect.Record
module Rank = Tessera_dataproc.Rank
module Normalize = Tessera_dataproc.Normalize
module Labels = Tessera_dataproc.Labels
module LL = Tessera_dataproc.Liblinear_format
module Trainset = Tessera_dataproc.Trainset
module Features = Tessera_features.Features
module Modifier = Tessera_modifiers.Modifier
module Plan = Tessera_opt.Plan
module Sparse = Tessera_svm.Sparse
module Prng = Tessera_util.Prng

let fv value =
  Features.of_array (Array.init Features.dim (fun i -> if i = 3 then value else i mod 2))

let record ?(features = fv 10) ?(level = Plan.Hot) ?(modifier = Modifier.null)
    ~compile ~runs () =
  let r = Record.make ~sig_id:0 ~features ~level ~modifier ~compile_cycles:compile in
  List.fold_left (fun r c -> Record.add_sample r ~cycles:c ~valid:true) r runs

let test_eq2_value () =
  (* V = R/I + C/(T_h * amortization); this fv has no loop features set at
     index 10/11/12?  fv sets odd indices to 1, so mayHaveLoops (11) = 1
     and mayHaveManyIterationLoops (12) = 0, manyIteration (10) = 0:
     loop class = Has_loops *)
  let r = record ~compile:1000 ~runs:[ 100L; 200L ] () in
  let cls = Tessera_jit.Triggers.loop_class_of_features (fv 10) in
  Alcotest.(check bool) "class has loops" true (cls = Tessera_jit.Triggers.Has_loops);
  let t_h = float_of_int (Tessera_jit.Triggers.trigger Plan.Hot cls) in
  let expected = 150.0 +. (1000.0 /. (t_h *. 2.5)) in
  Alcotest.(check (float 1e-9)) "Eq.2" expected (Rank.value r);
  Alcotest.check_raises "no invocations rejected"
    (Invalid_argument "Rank_value.value: record with no invocations") (fun () ->
      ignore (Rank.value (record ~compile:1 ~runs:[] ())))

let test_rank_selection () =
  (* same feature vector, four modifiers with distinct performance *)
  let m1 = Modifier.of_disabled [ 1 ] in
  let m2 = Modifier.of_disabled [ 2 ] in
  let m3 = Modifier.of_disabled [ 3 ] in
  let records =
    [
      record ~modifier:Modifier.null ~compile:0 ~runs:[ 100L ] ();
      record ~modifier:m1 ~compile:0 ~runs:[ 101L ] () (* within 5% *);
      record ~modifier:m2 ~compile:0 ~runs:[ 150L ] () (* too slow *);
      record ~modifier:m3 ~compile:0 ~runs:[ 102L ] ();
    ]
  in
  let ranked = Rank.rank ~max_per_vector:3 ~tolerance:0.95 ~level:Plan.Hot records in
  Alcotest.(check int) "selected 3 (95% rule drops m2)" 3 (List.length ranked);
  Alcotest.(check bool) "best first is null" true
    (Modifier.is_null (List.hd ranked).Rank.modifier);
  (* max_per_vector 1: only the best *)
  let top1 = Rank.rank ~max_per_vector:1 ~level:Plan.Hot records in
  Alcotest.(check int) "top-1" 1 (List.length top1)

let test_rank_groups_by_vector () =
  let records =
    [
      record ~features:(fv 1) ~compile:0 ~runs:[ 10L ] ();
      record ~features:(fv 2) ~compile:0 ~runs:[ 20L ] ();
      record ~features:(fv 1) ~modifier:(Modifier.of_disabled [ 5 ])
        ~compile:0 ~runs:[ 500L ] ();
    ]
  in
  let ranked = Rank.rank ~level:Plan.Hot records in
  Alcotest.(check int) "unique vectors" 2 (Rank.unique_feature_vectors records);
  Alcotest.(check int) "unique classes" 2 (Rank.unique_classes records);
  (* fv 1 keeps both (no tolerance filtering beyond 95%? 500 vs 10 is
     dropped), fv 2 keeps one *)
  Alcotest.(check int) "selection" 2 (List.length ranked)

let test_rank_level_filter () =
  let records =
    [ record ~level:Plan.Cold ~compile:0 ~runs:[ 10L ] () ]
  in
  Alcotest.(check int) "wrong level filtered" 0
    (List.length (Rank.rank ~level:Plan.Hot records))

let test_normalize () =
  let vectors = [ [| 0; 10; 5 |]; [| 10; 10; 7 |]; [| 5; 10; 3 |] ] in
  let s = Normalize.fit vectors in
  let n = Normalize.apply s [| 5; 10; 5 |] in
  Alcotest.(check (float 1e-9)) "mid" 0.5 n.(0);
  Alcotest.(check (float 1e-9)) "degenerate range -> 0" 0.0 n.(1);
  Alcotest.(check (float 1e-9)) "interpolated" 0.5 n.(2);
  (* out-of-range clamps *)
  let n = Normalize.apply s [| 100; 0; -5 |] in
  Alcotest.(check (float 1e-9)) "clamp high" 1.0 n.(0);
  Alcotest.(check (float 1e-9)) "clamp low" 0.0 n.(2);
  (* Eq. 3 bounds on random data *)
  let rng = Prng.create 3L in
  for _ = 1 to 50 do
    let v = Array.init 3 (fun _ -> Prng.int rng 20) in
    Array.iter
      (fun x -> Alcotest.(check bool) "in [0,1]" true (x >= 0.0 && x <= 1.0))
      (Normalize.apply s v)
  done;
  (* scaling file roundtrip *)
  let s' = Normalize.of_string (Normalize.to_string s) in
  Alcotest.(check bool) "scaling file roundtrip" true (Normalize.equal s s')

let test_labels () =
  let t = Labels.create () in
  let m1 = Modifier.of_disabled [ 1; 2 ] in
  let m2 = Modifier.of_disabled [ 3 ] in
  let l1 = Labels.label_of t m1 in
  let l2 = Labels.label_of t m2 in
  Alcotest.(check int) "labels start at 1" 1 l1;
  Alcotest.(check int) "dense" 2 l2;
  Alcotest.(check int) "idempotent" l1 (Labels.label_of t m1);
  Alcotest.(check bool) "inverse" true
    (match Labels.modifier_of t l1 with
    | Some m -> Modifier.equal m m1
    | None -> false);
  Alcotest.(check (option bool)) "unknown" None
    (Option.map (fun _ -> true) (Labels.modifier_of t 99));
  let t' = Labels.of_string (Labels.to_string t) in
  Alcotest.(check bool) "lookup table roundtrip" true (Labels.equal t t')

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_liblinear_format () =
  let inst =
    { LL.label = 7; x = Sparse.of_list [ (0, 0.5); (9, 0.5625); (70, 1.0) ] }
  in
  let line = LL.instance_to_line inst in
  (* Figure 4: 1-based indices, zero components omitted *)
  Alcotest.(check bool) "1-based index" true
    (String.length line > 0
    && String.sub line 0 2 = "7 "
    && contains_sub line "10:0.5625");
  let inst' = LL.line_to_instance line in
  Alcotest.(check int) "label" inst.LL.label inst'.LL.label;
  Alcotest.(check bool) "sparse equal" true (Sparse.equal inst.LL.x inst'.LL.x)

let test_liblinear_roundtrip () =
  QCheck.Test.make ~count:100 ~name:"liblinear dataset roundtrip"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let insts =
        List.init
          (1 + Prng.int rng 10)
          (fun _ ->
            {
              LL.label = 1 + Prng.int rng 1000;
              x =
                Sparse.of_list
                  (List.sort_uniq compare
                     (List.init (Prng.int rng 8) (fun _ -> Prng.int rng 71))
                  |> List.map (fun i -> (i, Prng.float rng 1.0 +. 0.001)));
            })
        (* the text format keeps no NaN payload, so the row carries the
           NaN the parser yields; bitwise [Sparse.equal] accepts it where
           polymorphic equality would not *)
        @ [ { LL.label = 1; x = Sparse.of_list [ (3, float_of_string "nan"); (5, 0.25) ] } ]
      in
      let parsed = LL.parse (LL.write insts) in
      List.length parsed = List.length insts
      && List.for_all2
           (fun (a : LL.instance) (b : LL.instance) ->
             a.LL.label = b.LL.label && Sparse.equal a.LL.x b.LL.x)
           insts parsed)

let test_liblinear_errors () =
  (match LL.line_to_instance "notanumber 1:0.5" with
  | _ -> Alcotest.fail "bad label accepted"
  | exception Failure _ -> ());
  (match LL.line_to_instance "1 0:0.5" with
  | _ -> Alcotest.fail "0-based index accepted"
  | exception Failure _ -> ());
  match LL.line_to_instance "1 nocolon" with
  | _ -> Alcotest.fail "missing colon accepted"
  | exception Failure _ -> ()

let test_trainset_pipeline () =
  let rng = Prng.create 31L in
  let records =
    List.init 60 (fun i ->
        let features = fv (i mod 5) in
        let modifier =
          if i mod 3 = 0 then Modifier.null
          else Modifier.random rng ~density:0.2
        in
        record ~features ~modifier
          ~compile:(10_000 + Prng.int rng 10_000)
          ~runs:(List.init (1 + (i mod 4)) (fun _ -> Int64.of_int (1000 + Prng.int rng 9000)))
          ())
  in
  let ts = Trainset.build ~level:Plan.Hot records in
  Alcotest.(check bool) "instances nonempty" true (ts.Trainset.instances <> []);
  Alcotest.(check int) "stats: 5 unique vectors" 5
    ts.Trainset.stats.Trainset.unique_feature_vectors;
  Alcotest.(check bool) "<= 3 per vector" true
    (ts.Trainset.stats.Trainset.training_instances <= 15);
  (* instances have normalized components *)
  List.iter
    (fun (i : LL.instance) ->
      Sparse.iter
        (fun _ v -> Alcotest.(check bool) "component in [0,1]" true (v >= 0.0 && v <= 1.0))
        i.LL.x)
    ts.Trainset.instances;
  (* predictor falls back to null on unknown labels *)
  let m =
    Trainset.predictor ~scaling:ts.Trainset.scaling ~labels:(Labels.create ())
      ~model:
        {
          Tessera_svm.Model.solver = "x";
          labels = [| 424242 |];
          n_features = Features.dim;
          weights = [| Array.make Features.dim 0.0 |];
        }
      (fv 1)
  in
  Alcotest.(check bool) "fallback to null" true (Modifier.is_null m)

let suite =
  [
    Alcotest.test_case "Eq.2 ranking value" `Quick test_eq2_value;
    Alcotest.test_case "rank selection rules" `Quick test_rank_selection;
    Alcotest.test_case "rank groups by vector" `Quick test_rank_groups_by_vector;
    Alcotest.test_case "rank level filter" `Quick test_rank_level_filter;
    Alcotest.test_case "Eq.3 normalization" `Quick test_normalize;
    Alcotest.test_case "label remapping" `Quick test_labels;
    Alcotest.test_case "liblinear format" `Quick test_liblinear_format;
    QCheck_alcotest.to_alcotest (test_liblinear_roundtrip ());
    Alcotest.test_case "liblinear errors" `Quick test_liblinear_errors;
    Alcotest.test_case "trainset pipeline" `Quick test_trainset_pipeline;
  ]
