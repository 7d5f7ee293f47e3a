type counter = { c_name : string; c_help : string; c_value : int Atomic.t }
type gauge = { g_name : string; g_help : string; mutable g_value : float }

type histogram = {
  h_name : string;
  h_help : string;
  h_bounds : float array;  (* upper bounds, increasing; +Inf implicit *)
  h_counts : int array;  (* length = length h_bounds + 1 *)
  mutable h_sum : float;
  mutable h_count : int;
  h_mu : Mutex.t;  (* guards the three fields above *)
}

type instrument = C of counter | G of gauge | H of histogram

(* Registration, exposition, and reset take the registry's [mu].
   Instruments are handed out at registration time, so updates never
   hash: a counter is one atomic add, a histogram observation takes that
   histogram's own [h_mu], so domains sharing an instrument never lose
   an update. *)
type t = { tbl : (string, instrument) Hashtbl.t; mu : Mutex.t }

let create () = { tbl = Hashtbl.create 32; mu = Mutex.create () }
let default = create ()

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register t name make found =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some i -> (
          match found i with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %S already registered as a %s" name
                   (kind_name i)))
      | None ->
          let v, i = make () in
          Hashtbl.add t.tbl name i;
          v)

let counter t ?(help = "") name =
  register t name
    (fun () ->
      let c = { c_name = name; c_help = help; c_value = Atomic.make 0 } in
      (c, C c))
    (function C c -> Some c | _ -> None)

let gauge t ?(help = "") name =
  register t name
    (fun () ->
      let g = { g_name = name; g_help = help; g_value = 0.0 } in
      (g, G g))
    (function G g -> Some g | _ -> None)

let default_buckets = [| 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 |]

let histogram t ?(help = "") ?(buckets = default_buckets) name =
  Array.iteri
    (fun i b ->
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: buckets must increase strictly")
    buckets;
  register t name
    (fun () ->
      let h =
        {
          h_name = name;
          h_help = help;
          h_bounds = Array.copy buckets;
          h_counts = Array.make (Array.length buckets + 1) 0;
          h_sum = 0.0;
          h_count = 0;
          h_mu = Mutex.create ();
        }
      in
      (h, H h))
    (function H h -> Some h | _ -> None)

let inc c = Atomic.incr c.c_value

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters only go up";
  ignore (Atomic.fetch_and_add c.c_value n)

let counter_value c = Atomic.get c.c_value

let set_gauge g v = g.g_value <- v
let add_gauge g v = g.g_value <- g.g_value +. v
let gauge_value g = g.g_value

let bucket_index h v =
  let n = Array.length h.h_bounds in
  let rec go i = if i >= n then n else if v <= h.h_bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  let i = bucket_index h v in
  Mutex.protect h.h_mu (fun () ->
      h.h_counts.(i) <- h.h_counts.(i) + 1;
      h.h_sum <- h.h_sum +. v;
      h.h_count <- h.h_count + 1)

let bucket_counts h =
  Array.init
    (Array.length h.h_counts)
    (fun i ->
      let bound =
        if i < Array.length h.h_bounds then h.h_bounds.(i) else infinity
      in
      (bound, h.h_counts.(i)))

let histogram_sum h = h.h_sum
let histogram_count h = h.h_count

(* Quantiles are exact at bucket resolution: the containing bucket is
   found by a cumulative walk and the position inside it interpolated
   linearly, so two registries with identical counts report identical
   quantiles (the determinism the bench and SLO monitor rely on).  The
   +Inf bucket has no finite upper edge; observations landing there
   report the largest finite bound. *)
let quantile h q =
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Metrics.quantile";
  if h.h_count = 0 then Float.nan
  else
    let nb = Array.length h.h_bounds in
    let rank = q *. float_of_int h.h_count in
    let rec go i cum =
      if i >= nb then if nb = 0 then 0.0 else h.h_bounds.(nb - 1)
      else
        let here = h.h_counts.(i) in
        let cum' = cum + here in
        if here > 0 && float_of_int cum' >= rank then
          let lo = if i = 0 then 0.0 else h.h_bounds.(i - 1) in
          let hi = h.h_bounds.(i) in
          let frac = (rank -. float_of_int cum) /. float_of_int here in
          let frac = Float.max 0.0 (Float.min 1.0 frac) in
          lo +. (frac *. (hi -. lo))
        else go (i + 1) cum'
    in
    go 0 0

let count_le h v =
  let nb = Array.length h.h_bounds in
  let total = ref 0 in
  Array.iteri
    (fun i c ->
      let bound = if i < nb then h.h_bounds.(i) else infinity in
      if bound <= v then total := !total + c)
    h.h_counts;
  !total

let names_unlocked t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] |> List.sort String.compare

let names t = locked t (fun () -> names_unlocked t)

(* Prometheus exposition needs 1e6 to print as "1e+06"-free decimal where
   possible; use %.17g trimmed via %g for bounds and sums.  Non-finite
   values use the format's spellings (NaN, +Inf, -Inf) — "nan"/"inf"
   tokens would fail strict scrape parsers. *)
let float_str f =
  if Float.is_nan f then "NaN"
  else if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

(* Prometheus text-format escaping: a help string (or label value)
   containing a newline would otherwise split the exposition mid-line
   and fail every strict scrape parser.  HELP text escapes backslash and
   newline; label values additionally escape the double quote. *)
let escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '"' -> Buffer.add_string buf "\\\""
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let expose t =
  locked t @@ fun () ->
  let buf = Buffer.create 1024 in
  let header name help kind =
    if help <> "" then
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s %s\n" name (escape_help help));
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (fun name ->
      match Hashtbl.find t.tbl name with
      | C c ->
          header c.c_name c.c_help "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s %d\n" c.c_name (Atomic.get c.c_value))
      | G g ->
          header g.g_name g.g_help "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" g.g_name (float_str g.g_value))
      | H h ->
          header h.h_name h.h_help "histogram";
          let cum = ref 0 in
          Array.iteri
            (fun i count ->
              cum := !cum + count;
              let le =
                if i < Array.length h.h_bounds then float_str h.h_bounds.(i)
                else "+Inf"
              in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" h.h_name
                   (escape_label_value le) !cum))
            h.h_counts;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %s\n" h.h_name (float_str h.h_sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count %d\n" h.h_name h.h_count))
    (names_unlocked t);
  Buffer.contents buf

let reset t =
  locked t (fun () ->
      Hashtbl.iter
        (fun _ i ->
          match i with
          | C c -> Atomic.set c.c_value 0
          | G g -> g.g_value <- 0.0
          | H h ->
              Mutex.protect h.h_mu (fun () ->
                  Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
                  h.h_sum <- 0.0;
                  h.h_count <- 0))
        t.tbl)
