module Prng = Tessera_util.Prng
module Stats = Tessera_util.Stats
module Bitset = Tessera_util.Bitset
module Codec = Tessera_util.Codec
module Crc32 = Tessera_util.Crc32
module Pool = Tessera_util.Pool

let test_prng_determinism () =
  let a = Prng.create 99L and b = Prng.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_bounds () =
  let g = Prng.create 7L in
  for _ = 1 to 10_000 do
    let v = Prng.int g 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17);
    let w = Prng.int_in g (-5) 5 in
    Alcotest.(check bool) "int_in range" true (w >= -5 && w <= 5);
    let f = Prng.float g 3.0 in
    Alcotest.(check bool) "float range" true (f >= 0.0 && f < 3.0)
  done

let test_prng_split_independent () =
  let g = Prng.create 1L in
  let child = Prng.split g in
  (* child and parent streams should differ *)
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.next_int64 g = Prng.next_int64 child then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_prng_bernoulli_frequency () =
  let g = Prng.create 5L in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bernoulli g 0.25 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f near 0.25" rate)
    true
    (rate > 0.23 && rate < 0.27)

let test_prng_shuffle_permutes () =
  let g = Prng.create 3L in
  let arr = Array.init 100 Fun.id in
  Prng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check bool) "is a permutation" true (sorted = Array.init 100 Fun.id);
  Alcotest.(check bool) "actually moved" true (arr <> Array.init 100 Fun.id)

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Stats.mean;
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) s.Stats.stddev;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Stats.max;
  (* CI half-width: t(4) * sd / sqrt 5 = 2.776 * 1.5811 / 2.236 *)
  Alcotest.(check (float 1e-3)) "ci95" 1.9632 s.Stats.ci95

let test_stats_t_table () =
  Alcotest.(check (float 1e-9)) "df=1" 12.706 (Stats.t_critical_95 1);
  Alcotest.(check (float 1e-9)) "df=29 (30 runs)" 2.045 (Stats.t_critical_95 29);
  Alcotest.(check (float 1e-9)) "asymptote" 1.960 (Stats.t_critical_95 10_000)

let test_stats_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |]);
  Alcotest.check_raises "rejects non-positive"
    (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Stats.geomean [| 1.0; 0.0 |]))

let test_stats_percentile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile xs 100.0)

let test_bitset_basics () =
  let b = Bitset.create 58 in
  Alcotest.(check int) "width" 58 (Bitset.width b);
  Alcotest.(check int) "popcount empty" 0 (Bitset.popcount b);
  Bitset.set b 0 true;
  Bitset.set b 57 true;
  Bitset.set b 13 true;
  Alcotest.(check int) "popcount" 3 (Bitset.popcount b);
  Alcotest.(check bool) "get 13" true (Bitset.get b 13);
  Bitset.set b 13 false;
  Alcotest.(check bool) "cleared" false (Bitset.get b 13);
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> ignore (Bitset.get b 58))

let test_bitset_string_roundtrip () =
  QCheck.Test.make ~count:200 ~name:"bitset string roundtrip"
    QCheck.(list_of_size (Gen.return 58) bool)
    (fun bits ->
      let b = Bitset.create 58 in
      List.iteri (fun i v -> Bitset.set b i v) bits;
      Bitset.equal b (Bitset.of_string (Bitset.to_string b)))

let test_bitset_int64_roundtrip () =
  QCheck.Test.make ~count:200 ~name:"bitset int64 roundtrip"
    QCheck.int64 (fun v ->
      let b = Bitset.of_int64_le ~width:58 v in
      let v' = Bitset.to_int64_le b in
      Bitset.equal b (Bitset.of_int64_le ~width:58 v'))

let test_codec_varint_roundtrip () =
  QCheck.Test.make ~count:500 ~name:"varint roundtrip"
    QCheck.(int_bound ((1 lsl 40) - 1))
    (fun v ->
      let buf = Buffer.create 16 in
      Codec.write_varint buf v;
      let r = Codec.reader_of_string (Buffer.contents buf) in
      Codec.read_varint r = v && Codec.at_end r)

let test_codec_primitives () =
  let buf = Buffer.create 64 in
  Codec.write_u8 buf 200;
  Codec.write_i64 buf (-42L);
  Codec.write_f64 buf 3.25;
  Codec.write_string buf "hello\000world";
  let r = Codec.reader_of_string (Buffer.contents buf) in
  Alcotest.(check int) "u8" 200 (Codec.read_u8 r);
  Alcotest.(check int64) "i64" (-42L) (Codec.read_i64 r);
  Alcotest.(check (float 0.0)) "f64" 3.25 (Codec.read_f64 r);
  Alcotest.(check string) "string" "hello\000world" (Codec.read_string r);
  Alcotest.(check bool) "at end" true (Codec.at_end r)

let test_codec_truncation () =
  let r = Codec.reader_of_string "\x01" in
  ignore (Codec.read_u8 r);
  Alcotest.check_raises "truncated" (Codec.Truncated "u8") (fun () ->
      ignore (Codec.read_u8 r))

let test_crc32_vectors () =
  (* standard check value for "123456789" *)
  Alcotest.(check int32) "check vector" 0xCBF43926l (Crc32.string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.string "");
  Alcotest.(check bool) "sensitive to change" true
    (Crc32.string "abc" <> Crc32.string "abd")

(* The polynomial applied one bit at a time: no table, no slicing. *)
let crc32_bitwise s ~pos ~len =
  let crc = ref 0xFFFF_FFFF in
  for i = pos to pos + len - 1 do
    crc := !crc lxor Char.code s.[i];
    for _ = 1 to 8 do
      crc := if !crc land 1 = 1 then (!crc lsr 1) lxor 0xEDB88320 else !crc lsr 1
    done
  done;
  Int32.of_int (!crc lxor 0xFFFF_FFFF)

let test_crc32_reference () =
  let rng = Prng.create 32L in
  let random_string n = String.init n (fun _ -> Char.chr (Prng.int rng 256)) in
  let s = random_string 80 in
  (* every tail length of the eight-byte loop, at offsets of every
     alignment *)
  List.iter
    (fun pos ->
      for len = 0 to 64 do
        Alcotest.(check int32)
          (Printf.sprintf "sub pos=%d len=%d" pos len)
          (crc32_bitwise s ~pos ~len) (Crc32.sub s ~pos ~len)
      done)
    [ 0; 1; 3; 7; 8; 13 ];
  for _ = 1 to 200 do
    let s = random_string (Prng.int rng 300) in
    let n = String.length s in
    let pos = Prng.int rng (n + 1) in
    let len = Prng.int rng (n - pos + 1) in
    Alcotest.(check int32) "random slice" (crc32_bitwise s ~pos ~len)
      (Crc32.sub s ~pos ~len);
    Alcotest.(check int32) "string is the whole slice" (Crc32.string s)
      (Crc32.sub s ~pos:0 ~len:n)
  done;
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "out of range pos=%d len=%d" pos len)
        (Invalid_argument "Crc32.sub") (fun () ->
          ignore (Crc32.sub "0123456789" ~pos ~len)))
    [ (-1, 2); (0, -1); (0, 11); (5, 6); (11, 0); (max_int, 1); (1, max_int) ]

(* ------------------------------------------------------------------ *)
(* Domain pool                                                          *)
(* ------------------------------------------------------------------ *)

let test_pool_matches_sequential () =
  let f i = (i * i) + 3 in
  let expected = Array.init 100 f in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "init at -j %d" jobs)
        expected
        (Pool.init ~jobs 100 f))
    [ 1; 2; 3; 8; 200 ];
  let items = Array.init 37 (fun i -> i * 5) in
  Alcotest.(check (array int)) "map_array order" (Array.map f items)
    (Pool.map_array ~jobs:4 f items);
  Alcotest.(check (list int)) "run_list order" (List.init 19 f)
    (Pool.run_list ~jobs:4 f (List.init 19 Fun.id))

let test_pool_edges () =
  Alcotest.(check (array int)) "empty input" [||]
    (Pool.init ~jobs:4 0 (fun i -> i));
  Alcotest.(check (array int)) "more jobs than items" [| 10 |]
    (Pool.init ~jobs:16 1 (fun i -> i + 10));
  Alcotest.check_raises "negative length"
    (Invalid_argument "Pool.init: negative length") (fun () ->
      ignore (Pool.init (-1) (fun i -> i)));
  Alcotest.(check bool) "default_jobs positive" true (Pool.default_jobs () >= 1)

exception Boom of int

let test_pool_exception () =
  (* the exception of the lowest failing index propagates, whatever the
     scheduling *)
  match Pool.init ~jobs:4 50 (fun i -> if i mod 7 = 3 then raise (Boom i) else i) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "lowest failing index" 3 i

let test_pool_nested () =
  (* a Pool call from inside a worker falls back to sequential instead
     of spawning domains recursively *)
  let inner i = Array.fold_left ( + ) 0 (Pool.init ~jobs:4 8 (fun j -> i * j)) in
  let expected = Array.init 8 (fun i -> i * 28) in
  Alcotest.(check (array int)) "nested pool" expected
    (Pool.init ~jobs:4 8 inner)

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng split independence" `Quick test_prng_split_independent;
    Alcotest.test_case "prng bernoulli frequency" `Quick test_prng_bernoulli_frequency;
    Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutes;
    Alcotest.test_case "stats summary" `Quick test_stats_summary;
    Alcotest.test_case "stats t table" `Quick test_stats_t_table;
    Alcotest.test_case "stats geomean" `Quick test_stats_geomean;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "bitset basics" `Quick test_bitset_basics;
    QCheck_alcotest.to_alcotest (test_bitset_string_roundtrip ());
    QCheck_alcotest.to_alcotest (test_bitset_int64_roundtrip ());
    QCheck_alcotest.to_alcotest (test_codec_varint_roundtrip ());
    Alcotest.test_case "codec primitives" `Quick test_codec_primitives;
    Alcotest.test_case "codec truncation" `Quick test_codec_truncation;
    Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "crc32 matches a bitwise reference" `Quick
      test_crc32_reference;
    Alcotest.test_case "pool: results match sequential at every -j" `Quick
      test_pool_matches_sequential;
    Alcotest.test_case "pool: empty, singleton, invalid" `Quick test_pool_edges;
    Alcotest.test_case "pool: lowest-index exception propagates" `Quick
      test_pool_exception;
    Alcotest.test_case "pool: nested calls run sequentially" `Quick
      test_pool_nested;
  ]
