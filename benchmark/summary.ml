(* Order statistics for the benchmark's reports.  Timings use the
   library's linear-interpolation percentile; quartiles follow Python's
   [statistics.quantiles(xs, n=4)] (its default "exclusive" method), the
   rule by which a metric's run-to-run spread is judged against its
   bound. *)

let percentile = Tessera_util.Stats.percentile
let median xs = percentile xs 50.0

let quartiles xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Summary.quartiles: fewer than two values";
  let d = Array.copy xs in
  Array.sort compare d;
  let m = n + 1 in
  Array.init 3 (fun k ->
      let i = k + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0)

(* interquartile range as a share of the median *)
let spread xs =
  let q = quartiles xs in
  (q.(2) -. q.(0)) /. median xs

let ratio a b = if b = 0.0 then 0.0 else a /. b
