(* Struct of arrays: [idx] strictly increasing, [v] a flat float array
   of the same length, so the solvers' multiply-adds read unboxed floats
   with no per-entry tuple.  Every reduction sums in entry order: trained
   weights depend on that order bit for bit, and test/test_svm.ml pins it
   against a pair-array reference. *)
type t = { idx : int array; v : float array }

let of_dense arr =
  let n = ref 0 in
  Array.iter (fun x -> if x <> 0.0 then incr n) arr;
  let idx = Array.make !n 0 and v = Array.make !n 0.0 in
  let k = ref 0 in
  Array.iteri
    (fun i x ->
      if x <> 0.0 then begin
        idx.(!k) <- i;
        v.(!k) <- x;
        incr k
      end)
    arr;
  { idx; v }

let to_dense n t =
  let d = Array.make n 0.0 in
  for k = 0 to Array.length t.idx - 1 do
    let i = t.idx.(k) in
    if i < n then d.(i) <- t.v.(k)
  done;
  d

let of_list l =
  let arr = Array.of_list l in
  Array.sort (fun (a, _) (b, _) -> compare a b) arr;
  Array.iteri
    (fun k (i, _) ->
      if i < 0 then invalid_arg "Sparse.of_list: negative index";
      if k > 0 && fst arr.(k - 1) = i then
        invalid_arg "Sparse.of_list: duplicate index")
    arr;
  { idx = Array.map fst arr; v = Array.map snd arr }

let dot t w =
  let n = Array.length w in
  let idx = t.idx and v = t.v in
  let acc = ref 0.0 in
  for k = 0 to Array.length idx - 1 do
    let i = Array.unsafe_get idx k in
    if i < n then
      acc := !acc +. (Array.unsafe_get v k *. Array.unsafe_get w i)
  done;
  !acc

let add_scaled w t s =
  let n = Array.length w in
  let idx = t.idx and v = t.v in
  for k = 0 to Array.length idx - 1 do
    let i = Array.unsafe_get idx k in
    if i < n then
      Array.unsafe_set w i (Array.unsafe_get w i +. (s *. Array.unsafe_get v k))
  done

let sq_norm t =
  let v = t.v in
  let acc = ref 0.0 in
  for k = 0 to Array.length v - 1 do
    let x = Array.unsafe_get v k in
    acc := !acc +. (x *. x)
  done;
  !acc

let sq_dist a b =
  let ai = a.idx and av = a.v and bi = b.idx and bv = b.v in
  let na = Array.length ai and nb = Array.length bi in
  let acc = ref 0.0 in
  let i = ref 0 and j = ref 0 in
  while !i < na || !j < nb do
    if !i < na && (!j >= nb || ai.(!i) < bi.(!j)) then begin
      let x = av.(!i) in
      acc := !acc +. (x *. x);
      incr i
    end
    else if !j < nb && (!i >= na || bi.(!j) < ai.(!i)) then begin
      let x = bv.(!j) in
      acc := !acc +. (x *. x);
      incr j
    end
    else begin
      let x = av.(!i) -. bv.(!j) in
      acc := !acc +. (x *. x);
      incr i;
      incr j
    end
  done;
  !acc

let max_index t =
  let n = Array.length t.idx in
  if n = 0 then -1 else t.idx.(n - 1)

let nnz t = Array.length t.idx

let iter f t =
  for k = 0 to Array.length t.idx - 1 do
    f t.idx.(k) t.v.(k)
  done

let equal a b =
  let n = Array.length a.idx in
  n = Array.length b.idx
  &&
  let rec go k =
    k >= n
    || a.idx.(k) = b.idx.(k)
       && Int64.equal (Int64.bits_of_float a.v.(k)) (Int64.bits_of_float b.v.(k))
       && go (k + 1)
  in
  go 0

let pp fmt t = iter (fun i v -> Format.fprintf fmt "%d:%g " i v) t
