module Sparse = Tessera_svm.Sparse
module Problem = Tessera_svm.Problem
module Linear = Tessera_svm.Linear
module Cs = Tessera_svm.Cs
module Rbf = Tessera_svm.Rbf
module Model = Tessera_svm.Model
module Metrics = Tessera_svm.Metrics
module Prng = Tessera_util.Prng

let test_sparse_ops () =
  let dense = [| 0.0; 2.0; 0.0; -1.5; 0.0 |] in
  let s = Sparse.of_dense dense in
  Alcotest.(check int) "nnz" 2 (Sparse.nnz s);
  Alcotest.(check bool) "dense roundtrip" true (Sparse.to_dense 5 s = dense);
  let w = [| 1.0; 10.0; 100.0; 1000.0; 1.0 |] in
  Alcotest.(check (float 1e-9)) "dot" (20.0 -. 1500.0) (Sparse.dot s w);
  Alcotest.(check (float 1e-9)) "sq_norm" (4.0 +. 2.25) (Sparse.sq_norm s);
  let w2 = Array.make 5 0.0 in
  Sparse.add_scaled w2 s 2.0;
  Alcotest.(check (float 1e-9)) "axpy" 4.0 w2.(1);
  Alcotest.check_raises "duplicate index"
    (Invalid_argument "Sparse.of_list: duplicate index") (fun () ->
      ignore (Sparse.of_list [ (1, 1.0); (1, 2.0) ]))

let test_sparse_sq_dist_matches_dense () =
  QCheck.Test.make ~count:200 ~name:"sq_dist matches dense reference"
    QCheck.(pair (list_of_size (Gen.return 6) (float_bound_exclusive 4.0)
                  ) (list_of_size (Gen.return 6) (float_bound_exclusive 4.0)))
    (fun (a, b) ->
      let da = Array.of_list a and db = Array.of_list b in
      let sa = Sparse.of_dense da and sb = Sparse.of_dense db in
      let expected =
        Array.fold_left ( +. ) 0.0
          (Array.mapi (fun i x -> (x -. db.(i)) ** 2.0) da)
      in
      Float.abs (Sparse.sq_dist sa sb -. expected) < 1e-9)

let test_problem () =
  let x = Array.init 4 (fun i -> Sparse.of_dense [| float_of_int i |]) in
  let p = Problem.make x [| 10; 20; 10; 30 |] in
  Alcotest.(check int) "classes" 3 (Problem.n_classes p);
  Alcotest.(check int) "instances" 4 (Problem.n_instances p);
  Alcotest.(check int) "label of class 0" 10 (Problem.label_of_class p 0);
  Alcotest.(check (option int)) "class of label 20" (Some 1)
    (Problem.class_of_label p 20);
  let sub = Problem.subset p [| 1; 3 |] in
  Alcotest.(check int) "subset size" 2 (Problem.n_instances sub);
  Alcotest.(check int) "subset keeps label table" 3 (Problem.n_classes sub)

(* two gaussian blobs, linearly separable *)
let blob_problem ?(n = 60) ?(k = 2) seed =
  let rng = Prng.create seed in
  let x = ref [] and y = ref [] in
  for cls = 0 to k - 1 do
    let cx = 4.0 *. float_of_int cls in
    for _ = 1 to n / k do
      let px = cx +. Prng.gaussian rng ~mu:0.0 ~sigma:0.4 in
      let py = (2.0 *. float_of_int cls) +. Prng.gaussian rng ~mu:0.0 ~sigma:0.4 in
      x := Sparse.of_dense [| px; py; 1.0 |] :: !x;
      y := (100 + cls) :: !y
    done
  done;
  Problem.make (Array.of_list !x) (Array.of_list !y)

let accuracy_of model p =
  Metrics.accuracy ~predict:(Model.predict model) p.Problem.x
    (Array.map (Problem.label_of_class p) p.Problem.y)

let test_linear_binary_separable () =
  let p = blob_problem 1L in
  let model = Linear.train_ovr p in
  Alcotest.(check (float 0.02)) "100% on separable" 1.0 (accuracy_of model p);
  Alcotest.(check string) "solver name" "L2R_L1LOSS_SVC_DUAL" model.Model.solver

let test_linear_multiclass () =
  let p = blob_problem ~n:90 ~k:3 2L in
  let model = Linear.train_ovr p in
  Alcotest.(check bool)
    (Printf.sprintf "3-class accuracy %.2f >= 0.95" (accuracy_of model p))
    true
    (accuracy_of model p >= 0.95)

let test_cs_multiclass () =
  let p = blob_problem ~n:90 ~k:3 3L in
  let model = Cs.train p in
  Alcotest.(check string) "solver" "MCSVM_CS" model.Model.solver;
  Alcotest.(check int) "p x L matrix" 3 (Array.length model.Model.weights);
  Alcotest.(check bool)
    (Printf.sprintf "CS accuracy %.2f >= 0.95" (accuracy_of model p))
    true
    (accuracy_of model p >= 0.95)

let test_model_roundtrip () =
  let p = blob_problem ~n:60 ~k:3 4L in
  let model = Cs.train p in
  let model' = Model.of_string (Model.to_string model) in
  Alcotest.(check bool) "exact roundtrip" true (Model.equal model model');
  (* predictions identical *)
  Array.iter
    (fun x ->
      Alcotest.(check int) "same prediction" (Model.predict model x)
        (Model.predict model' x))
    p.Problem.x

let test_rbf_xor () =
  (* XOR is not linearly separable; the RBF kernel machine must solve it *)
  let x =
    Array.map Sparse.of_dense
      [| [| 0.; 0. |]; [| 0.; 1. |]; [| 1.; 0. |]; [| 1.; 1. |] |]
  in
  let y = [| 1; 2; 2; 1 |] in
  let p = Problem.make x y in
  let model = Rbf.train ~params:{ Rbf.default_params with Rbf.gamma = 2.0; c = 100.0 } p in
  let acc = Metrics.accuracy ~predict:(Rbf.predict model) x y in
  Alcotest.(check (float 0.01)) "XOR solved" 1.0 acc;
  Alcotest.(check bool) "has support vectors" true
    (Rbf.support_vector_count model > 0);
  (* a linear model cannot exceed 75% on XOR *)
  let lin = Linear.train_ovr p in
  Alcotest.(check bool) "linear fails XOR" true
    (Metrics.accuracy ~predict:(Model.predict lin) x y <= 0.75)

let test_cross_validation () =
  let p = blob_problem ~n:80 5L in
  let acc = Metrics.cross_validate ~k:4 ~train:(fun p -> Linear.train_ovr p) p in
  Alcotest.(check bool)
    (Printf.sprintf "cv accuracy %.2f high" acc)
    true (acc >= 0.9);
  (* kfold partitions are disjoint and complete *)
  let folds = Metrics.kfold ~seed:1L ~k:4 20 in
  Alcotest.(check int) "4 folds" 4 (List.length folds);
  List.iter
    (fun (train, test) ->
      Alcotest.(check int) "sizes" 20 (Array.length train + Array.length test);
      let all = Array.append train test in
      Array.sort compare all;
      Alcotest.(check bool) "partition" true (all = Array.init 20 Fun.id))
    folds

let test_misclassification_cost_default () =
  (* the paper selects C = 10 *)
  Alcotest.(check (float 1e-9)) "C = 10" 10.0 Linear.default_params.Linear.c

(* Bit-identity oracle for the packed rows: the pair-array
   representation they replaced, with the solver loops over it, kept
   as they were.  The packed solvers must reproduce every weight bit. *)
module Pairs = struct
  type row = (int * float) array

  let dot (t : row) w =
    let n = Array.length w in
    let acc = ref 0.0 in
    Array.iter (fun (i, v) -> if i < n then acc := !acc +. (v *. w.(i))) t;
    !acc

  let add_scaled w (t : row) s =
    let n = Array.length w in
    Array.iter (fun (i, v) -> if i < n then w.(i) <- w.(i) +. (s *. v)) t

  let sq_norm (t : row) = Array.fold_left (fun acc (_, v) -> acc +. (v *. v)) 0.0 t

  let sq_dist (a : row) (b : row) =
    let acc = ref 0.0 in
    let na = Array.length a and nb = Array.length b in
    let i = ref 0 and j = ref 0 in
    while !i < na || !j < nb do
      if !i < na && (!j >= nb || fst a.(!i) < fst b.(!j)) then begin
        let v = snd a.(!i) in
        acc := !acc +. (v *. v);
        incr i
      end
      else if !j < nb && (!i >= na || fst b.(!j) < fst a.(!i)) then begin
        let v = snd b.(!j) in
        acc := !acc +. (v *. v);
        incr j
      end
      else begin
        let v = snd a.(!i) -. snd b.(!j) in
        acc := !acc +. (v *. v);
        incr i;
        incr j
      end
    done;
    !acc

  let max_index (t : row) = Array.fold_left (fun acc (i, _) -> max acc i) (-1) t

  let cs_train ?(params = Linear.default_params) ~n_features ~k (x : row array) y =
    let n = Array.length x in
    let nf = max 1 n_features in
    let w = Array.init k (fun _ -> Array.make nf 0.0) in
    let alpha_y = Array.make n 0.0 in
    let order = Array.init n Fun.id in
    let rng = Prng.create params.Linear.seed in
    let qii = Array.map sq_norm x in
    let iter = ref 0 in
    let converged = ref false in
    while (not !converged) && !iter < params.Linear.max_iter do
      incr iter;
      Prng.shuffle rng order;
      let max_violation = ref 0.0 in
      Array.iter
        (fun i ->
          if qii.(i) > 0.0 then begin
            let xi = x.(i) in
            let yi = y.(i) in
            let best_m = ref (-1) in
            let best_score = ref neg_infinity in
            for m = 0 to k - 1 do
              if m <> yi then begin
                let s = dot xi w.(m) in
                if s > !best_score then begin
                  best_score := s;
                  best_m := m
                end
              end
            done;
            let s_y = dot xi w.(yi) in
            let violation = !best_score +. 1.0 -. s_y in
            if violation > 0.0 || alpha_y.(i) > 0.0 then begin
              let t_unc = violation /. (2.0 *. qii.(i)) in
              let t =
                Float.max (-.alpha_y.(i))
                  (Float.min t_unc (params.Linear.c -. alpha_y.(i)))
              in
              if Float.abs t > 1e-12 then begin
                alpha_y.(i) <- alpha_y.(i) +. t;
                add_scaled w.(yi) xi t;
                add_scaled w.(!best_m) xi (-.t);
                if violation > !max_violation then max_violation := violation
              end
            end
          end)
        order;
      if !max_violation < params.Linear.eps then converged := true
    done;
    w

  let train_binary ?(params = Linear.default_params) (x : row array) y =
    let n = Array.length x in
    if n = 0 then [||]
    else begin
      let n_features = 1 + Array.fold_left (fun acc v -> max acc (max_index v)) (-1) x in
      let w = Array.make (max 1 n_features) 0.0 in
      let alpha = Array.make n 0.0 in
      let yf = Array.map (fun b -> if b then 1.0 else -1.0) y in
      let qii = Array.map sq_norm x in
      let order = Array.init n Fun.id in
      let rng = Prng.create params.Linear.seed in
      let iter = ref 0 in
      let converged = ref false in
      while (not !converged) && !iter < params.Linear.max_iter do
        incr iter;
        Prng.shuffle rng order;
        let max_pg = ref 0.0 in
        Array.iter
          (fun i ->
            if qii.(i) > 0.0 then begin
              let g = (yf.(i) *. dot x.(i) w) -. 1.0 in
              let pg =
                if alpha.(i) <= 0.0 then min g 0.0
                else if alpha.(i) >= params.Linear.c then max g 0.0
                else g
              in
              if Float.abs pg > !max_pg then max_pg := Float.abs pg;
              if Float.abs pg > 1e-12 then begin
                let a_old = alpha.(i) in
                let a_new =
                  Float.max 0.0 (Float.min params.Linear.c (a_old -. (g /. qii.(i))))
                in
                if a_new <> a_old then begin
                  alpha.(i) <- a_new;
                  add_scaled w x.(i) ((a_new -. a_old) *. yf.(i))
                end
              end
            end)
          order;
        if !max_pg < params.Linear.eps then converged := true
      done;
      w
    end

  let train_ovr ?(params = Linear.default_params) ~n_features ~k (x : row array) y =
    let weights =
      if k = 2 then [| train_binary ~params x (Array.map (fun c -> c = 0) y) |]
      else
        Array.init k (fun cls ->
            train_binary
              ~params:{ params with Linear.seed = Int64.add params.Linear.seed (Int64.of_int cls) }
              x
              (Array.map (fun c -> c = cls) y))
    in
    Array.map
      (fun w ->
        if Array.length w >= n_features then Array.sub w 0 (max 1 n_features)
        else Array.append w (Array.make (n_features - Array.length w) 0.0))
      weights

  let predict ~labels weights (x : row) =
    let dv = Array.map (fun w -> dot x w) weights in
    let best = ref 0 in
    Array.iteri (fun i v -> if v > dv.(!best) then best := i) dv;
    if Array.length weights = 1 && Array.length labels = 2 then
      if dv.(0) >= 0.0 then labels.(0) else labels.(1)
    else labels.(!best)
end

(* A random problem: 2-8 classes (every one present), some empty rows
   (qii = 0, skipped by both solvers) and some indices at or past
   [n_features] (dropped from every product). *)
let random_rows seed =
  let rng = Prng.create (Int64.of_int seed) in
  let k = 2 + Prng.int rng 7 in
  let n_features = 1 + Prng.int rng 10 in
  let n = k + Prng.int rng 30 in
  let rows =
    Array.init n (fun _ ->
        if Prng.int rng 6 = 0 then []
        else
          List.sort_uniq compare
            (List.init (1 + Prng.int rng 6) (fun _ -> Prng.int rng (n_features + 3)))
          |> List.map (fun i -> (i, Prng.float rng 4.0 -. 2.0)))
  in
  let labels = Array.init n (fun i -> 100 + (if i < k then i else Prng.int rng k)) in
  (n_features, rows, labels)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun wa wb ->
         Array.length wa = Array.length wb
         && Array.for_all2
              (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
              wa wb)
       a b

let test_solvers_match_pair_rows () =
  QCheck.Test.make ~count:60 ~name:"packed solvers = pair-array solvers, bit for bit"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let n_features, rows, raw = random_rows seed in
      let p = Problem.make ~n_features (Array.map Sparse.of_list rows) raw in
      let pairs = Array.map Array.of_list rows in
      let k = Problem.n_classes p in
      let cs = Cs.train p in
      let ovr = Linear.train_ovr p in
      let cs_ref = Pairs.cs_train ~n_features ~k pairs p.Problem.y in
      let ovr_ref = Pairs.train_ovr ~n_features ~k pairs p.Problem.y in
      let predictions_agree (m : Model.t) w =
        Array.for_all2
          (fun x row -> Model.predict m x = Pairs.predict ~labels:p.Problem.labels w row)
          p.Problem.x pairs
      in
      let bits f = Int64.bits_of_float f in
      let kernels_agree =
        Array.for_all2
          (fun x row ->
            bits (Sparse.sq_norm x) = bits (Pairs.sq_norm row)
            && bits (Sparse.sq_dist x p.Problem.x.(0)) = bits (Pairs.sq_dist row pairs.(0)))
          p.Problem.x pairs
      in
      same_bits cs.Model.weights cs_ref
      && same_bits ovr.Model.weights ovr_ref
      && predictions_agree cs cs_ref
      && predictions_agree ovr ovr_ref
      && kernels_agree)

let suite =
  [
    Alcotest.test_case "sparse ops" `Quick test_sparse_ops;
    QCheck_alcotest.to_alcotest (test_sparse_sq_dist_matches_dense ());
    QCheck_alcotest.to_alcotest (test_solvers_match_pair_rows ());
    Alcotest.test_case "problem construction" `Quick test_problem;
    Alcotest.test_case "linear binary separable" `Quick test_linear_binary_separable;
    Alcotest.test_case "linear multiclass" `Quick test_linear_multiclass;
    Alcotest.test_case "Crammer-Singer multiclass" `Quick test_cs_multiclass;
    Alcotest.test_case "model save/load" `Quick test_model_roundtrip;
    Alcotest.test_case "RBF solves XOR" `Quick test_rbf_xor;
    Alcotest.test_case "cross validation" `Quick test_cross_validation;
    Alcotest.test_case "paper's C parameter" `Quick test_misclassification_cost_default;
  ]

let test_explain () =
  let module Explain = Tessera_svm.Explain in
  let p = blob_problem ~n:60 ~k:3 9L in
  let model = Cs.train p in
  let top = Explain.top_features ~k:2 model ~class_index:0 in
  Alcotest.(check bool) "at most 2" true (List.length top <= 2);
  (match top with
  | a :: b :: _ ->
      Alcotest.(check bool) "sorted by |weight|" true
        (Float.abs a.Explain.weight >= Float.abs b.Explain.weight)
  | _ -> ());
  Alcotest.(check bool) "density in (0,1]" true
    (Explain.weight_density model > 0.0 && Explain.weight_density model <= 1.0);
  Alcotest.check_raises "bad class"
    (Invalid_argument "Explain.top_features: class index out of range")
    (fun () -> ignore (Explain.top_features model ~class_index:99));
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Explain.report fmt model;
  Format.pp_print_flush fmt ();
  Alcotest.(check bool) "report renders" true (Buffer.length buf > 50)

let suite = suite @ [ Alcotest.test_case "model explanation" `Quick test_explain ]
