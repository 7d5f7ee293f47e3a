module Dictionary = Tessera_collect.Dictionary
module Record = Tessera_collect.Record
module Archive = Tessera_collect.Archive
module Collector = Tessera_collect.Collector
module Features = Tessera_features.Features
module Modifier = Tessera_modifiers.Modifier
module Plan = Tessera_opt.Plan
module Prng = Tessera_util.Prng

let test_dictionary () =
  let d = Dictionary.create () in
  let a = Dictionary.intern d "A.a()V" in
  let b = Dictionary.intern d "B.b()V" in
  Alcotest.(check int) "dense ids" 0 a;
  Alcotest.(check int) "second" 1 b;
  Alcotest.(check int) "intern is idempotent" a (Dictionary.intern d "A.a()V");
  Alcotest.(check string) "find" "B.b()V" (Dictionary.find d b);
  Alcotest.(check int) "size" 2 (Dictionary.size d);
  Alcotest.check_raises "unknown id" Not_found (fun () ->
      ignore (Dictionary.find d 9));
  let buf = Buffer.create 64 in
  Dictionary.encode d buf;
  let d' = Dictionary.decode (Tessera_util.Codec.reader_of_string (Buffer.contents buf)) in
  Alcotest.(check bool) "roundtrip" true (Dictionary.equal d d')

let random_record ?(max_sig = 10) rng =
  let features =
    Features.of_array
      (Array.init Features.dim (fun _ -> Prng.int rng 200))
  in
  let r =
    Record.make ~sig_id:(Prng.int rng max_sig) ~features
      ~level:(Prng.choose rng [| Plan.Cold; Plan.Warm; Plan.Hot |])
      ~modifier:(Modifier.random rng ~density:0.3)
      ~compile_cycles:(Prng.int rng 1_000_000)
  in
  let r = ref r in
  for _ = 1 to Prng.int rng 20 do
    r :=
      Record.add_sample !r
        ~cycles:(Int64.of_int (Prng.int rng 100_000))
        ~valid:(Prng.bernoulli rng 0.9)
  done;
  !r

let test_record_roundtrip () =
  QCheck.Test.make ~count:100 ~name:"record binary roundtrip"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let r = random_record rng in
      let buf = Buffer.create 256 in
      Record.encode r buf;
      let r' = Record.decode (Tessera_util.Codec.reader_of_string (Buffer.contents buf)) in
      Record.equal r r')

let test_record_samples () =
  let rng = Prng.create 1L in
  let features = Features.of_array (Array.make Features.dim 0) in
  ignore rng;
  let r =
    Record.make ~sig_id:0 ~features ~level:Plan.Cold ~modifier:Modifier.null
      ~compile_cycles:100
  in
  let r = Record.add_sample r ~cycles:50L ~valid:true in
  let r = Record.add_sample r ~cycles:70L ~valid:true in
  let r = Record.add_sample r ~cycles:999L ~valid:false in
  Alcotest.(check int) "valid invocations" 2 r.Record.invocations;
  Alcotest.(check int64) "running cycles" 120L r.Record.running_cycles;
  Alcotest.(check int) "discarded" 1 r.Record.discarded_samples

let make_archive seed n =
  let rng = Prng.create seed in
  let dictionary = Dictionary.create () in
  for i = 0 to 9 do
    ignore (Dictionary.intern dictionary (Printf.sprintf "M.m%d()V" i))
  done;
  {
    Archive.benchmark = "test";
    dictionary;
    records = List.init n (fun _ -> random_record rng);
  }

let test_archive_roundtrip () =
  let a = make_archive 5L 40 in
  let s = Archive.to_string a in
  let a' = Archive.of_string s in
  Alcotest.(check string) "benchmark" a.Archive.benchmark a'.Archive.benchmark;
  Alcotest.(check bool) "dictionary" true
    (Dictionary.equal a.Archive.dictionary a'.Archive.dictionary);
  Alcotest.(check int) "record count" (List.length a.Archive.records)
    (List.length a'.Archive.records);
  Alcotest.(check bool) "records equal" true
    (List.for_all2 Record.equal a.Archive.records a'.Archive.records)

let test_archive_corruption () =
  let s = Archive.to_string (make_archive 6L 10) in
  (* flip a byte in the middle: CRC must catch it *)
  let b = Bytes.of_string s in
  Bytes.set b (String.length s / 2)
    (Char.chr (Char.code (Bytes.get b (String.length s / 2)) lxor 0x5a));
  (match Archive.of_string (Bytes.to_string b) with
  | _ -> Alcotest.fail "corruption undetected"
  | exception Archive.Corrupt _ -> ());
  (* truncation *)
  (match Archive.of_string (String.sub s 0 (String.length s - 3)) with
  | _ -> Alcotest.fail "truncation undetected"
  | exception Archive.Corrupt _ -> ());
  (* a body that ends inside its last record, under an honest checksum:
     decoding must not read the checksum's bytes as fields *)
  let body = String.sub s 0 (String.length s - 8 - 3) in
  let crc = Buffer.create 8 in
  Buffer.add_int64_le crc (Int64.of_int32 (Tessera_util.Crc32.string body));
  (match Archive.of_string (body ^ Buffer.contents crc) with
  | _ -> Alcotest.fail "short body undetected"
  | exception Archive.Corrupt _ -> ());
  (* bad magic *)
  match Archive.of_string ("XXXX" ^ String.sub s 4 (String.length s - 4)) with
  | _ -> Alcotest.fail "bad magic undetected"
  | exception Archive.Corrupt _ -> ()

let test_archive_file_io () =
  let a = make_archive 7L 25 in
  let path = Filename.temp_file "tessera" ".tsra" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with _ -> ())
    (fun () ->
      Archive.save a path;
      let a' = Archive.load path in
      Alcotest.(check int) "records" 25 (List.length a'.Archive.records))

let test_archive_merge () =
  let a = make_archive 8L 10 and b = make_archive 9L 15 in
  let m = Archive.merge [ a; b ] in
  Alcotest.(check int) "merged size" 25 (List.length m.Archive.records);
  Alcotest.(check string) "merged name" "test+test" m.Archive.benchmark;
  (* every merged record's signature resolves in the merged dictionary *)
  List.iter
    (fun (r : Record.t) ->
      ignore (Dictionary.find m.Archive.dictionary r.Record.sig_id))
    m.Archive.records

let test_collector_integration () =
  let profile =
    { Tessera_workloads.Profile.default with
      Tessera_workloads.Profile.name = "collect-test"; seed = 13L; methods = 5 }
  in
  let program = Tessera_workloads.Generate.program profile in
  let archive, stats =
    Collector.run
      ~config:
        {
          Collector.default_config with
          Collector.search =
            Collector.Queue (Tessera_modifiers.Queue_ctrl.Progressive { l = 30 });
          max_entry_invocations = 40;
        }
      ~program ~benchmark:"collect-test"
      ~entry_args:(fun k -> [| Tessera_vm.Values.Int_v (Int64.of_int k) |])
      ()
  in
  Alcotest.(check bool) "has records" true (archive.Archive.records <> []);
  Alcotest.(check bool) "ran" true (stats.Collector.entry_invocations > 0);
  Alcotest.(check bool) "compiled" true (stats.Collector.compilations > 0);
  List.iter
    (fun (r : Record.t) ->
      Alcotest.(check bool) "records have invocations" true (r.Record.invocations > 0);
      Alcotest.(check bool) "collection levels only" true
        (List.mem r.Record.level [ Plan.Cold; Plan.Warm; Plan.Hot ]);
      ignore (Dictionary.find archive.Archive.dictionary r.Record.sig_id))
    archive.Archive.records;
  (* the null modifier must appear in the data (tried with every method) *)
  Alcotest.(check bool) "null modifier present" true
    (List.exists
       (fun (r : Record.t) -> Modifier.is_null r.Record.modifier)
       archive.Archive.records);
  (* multiple distinct modifiers were explored *)
  let distinct = Hashtbl.create 16 in
  List.iter
    (fun (r : Record.t) ->
      Hashtbl.replace distinct (Modifier.to_bits r.Record.modifier) ())
    archive.Archive.records;
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct modifiers" (Hashtbl.length distinct))
    true
    (Hashtbl.length distinct > 1)

(* regression: merging archives that came through load (whose
   dictionaries were built by decode) must round-trip byte-identically —
   [merge] leans on [Dictionary.find] for every record *)
let test_merged_loaded_archives_roundtrip () =
  let rng = Prng.create 4242L in
  let mk benchmark names =
    let dictionary = Dictionary.create () in
    List.iter (fun n -> ignore (Dictionary.intern dictionary n)) names;
    let records =
      List.init 20 (fun _ -> random_record ~max_sig:(List.length names) rng)
    in
    { Archive.benchmark; dictionary; records }
  in
  let a = mk "alpha" [ "A.a()V"; "B.b()I"; "C.c()J" ] in
  let b = mk "beta" [ "B.b()I"; "D.d()V"; "A.a()V" ] in
  (* simulate the collect-then-merge pipeline: archives cross the codec
     before merging *)
  let a' = Archive.of_string (Archive.to_string a) in
  let b' = Archive.of_string (Archive.to_string b) in
  let merged = Archive.merge [ a'; b' ] in
  let reloaded = Archive.of_string (Archive.to_string merged) in
  Alcotest.(check string) "merged benchmark name" "alpha+beta"
    reloaded.Archive.benchmark;
  Alcotest.(check bool) "merged archive round-trips unchanged" true
    (Archive.equal merged reloaded);
  Alcotest.(check string) "byte-identical re-encode"
    (Archive.to_string merged)
    (Archive.to_string reloaded);
  (* every merged record still resolves to the signature it had in its
     source archive *)
  let source_names =
    List.map (fun (r : Record.t) -> Dictionary.find a'.Archive.dictionary r.Record.sig_id) a'.Archive.records
    @ List.map (fun (r : Record.t) -> Dictionary.find b'.Archive.dictionary r.Record.sig_id) b'.Archive.records
  in
  List.iter2
    (fun name (m : Record.t) ->
      Alcotest.(check string) "signature preserved through merge" name
        (Dictionary.find merged.Archive.dictionary m.Record.sig_id))
    source_names merged.Archive.records

(* ---------------- compilation forking ---------------- *)

let fork_program =
  lazy
    (let profile =
       {
         Tessera_workloads.Profile.default with
         Tessera_workloads.Profile.name = "fork-test";
         seed = 13L;
         methods = 5;
       }
     in
     Tessera_workloads.Generate.program profile)

let run_fork_config ?(seed = 0xF02CL) ?(fanout = 4) ?(uses = 4) ?(invocations = 40)
    ?(jobs = 1) ?(reexec = false) () =
  let program = Lazy.force fork_program in
  Collector.run
    ~config:
      {
        Collector.default_config with
        Collector.search =
          Collector.Fork
            {
              (Collector.fork_defaults
                 (Tessera_modifiers.Queue_ctrl.Progressive { l = 30 }))
              with
              Collector.fanout;
              jobs;
              reexec;
            };
        uses_per_modifier = uses;
        seed;
        max_entry_invocations = invocations;
      }
    ~program ~benchmark:"fork-test"
    ~entry_args:(fun k -> [| Tessera_vm.Values.Int_v (Int64.of_int k) |])
    ()

let test_fork_collector () =
  let archive, stats = run_fork_config () in
  Alcotest.(check bool) "has records" true (archive.Archive.records <> []);
  Alcotest.(check bool) "forked" true (stats.Collector.forks > 0);
  Alcotest.(check bool) "ran branches" true (stats.Collector.branches > 0);
  Alcotest.(check bool)
    "branch invocations counted" true
    (stats.Collector.branch_invocations > 0);
  (* every fork point measures the whole candidate set: records per trunk
     invocation dominate the one-modifier-per-recompilation sweep *)
  Alcotest.(check bool)
    "branches cover candidate sets" true
    (stats.Collector.branches >= stats.Collector.forks * 2);
  List.iter
    (fun (r : Record.t) ->
      Alcotest.(check bool) "records have invocations" true
        (r.Record.invocations > 0);
      ignore (Dictionary.find archive.Archive.dictionary r.Record.sig_id))
    archive.Archive.records;
  Alcotest.(check bool) "null modifier present" true
    (List.exists
       (fun (r : Record.t) -> Modifier.is_null r.Record.modifier)
       archive.Archive.records)

let test_fork_jobs_invariant () =
  let a1, s1 = run_fork_config ~jobs:1 () in
  let a2, s2 = run_fork_config ~jobs:3 () in
  Alcotest.(check bool) "archives equal at any -j" true (Archive.equal a1 a2);
  Alcotest.(check int) "same branches" s1.Collector.branches s2.Collector.branches

let test_fork_oracle () =
  QCheck.Test.make ~count:6 ~name:"fork snapshot = re-execution (oracle)"
    QCheck.(triple (int_bound 1_000_000) (int_range 1 5) (int_range 2 6))
    (fun (seed, fanout, uses) ->
      let seed = Int64.of_int seed in
      let fast, fstats =
        run_fork_config ~seed ~fanout ~uses ~invocations:25 ()
      in
      let slow, sstats =
        run_fork_config ~seed ~fanout ~uses ~invocations:25 ~reexec:true ()
      in
      Archive.equal fast slow
      && fstats.Collector.branches = sstats.Collector.branches
      && fstats.Collector.forks = sstats.Collector.forks
      && fstats.Collector.branch_invocations
         = sstats.Collector.branch_invocations)

let suite =
  [
    Alcotest.test_case "dictionary" `Quick test_dictionary;
    QCheck_alcotest.to_alcotest (test_record_roundtrip ());
    Alcotest.test_case "record samples" `Quick test_record_samples;
    Alcotest.test_case "archive roundtrip" `Quick test_archive_roundtrip;
    Alcotest.test_case "archive corruption detected" `Quick test_archive_corruption;
    Alcotest.test_case "archive file io" `Quick test_archive_file_io;
    Alcotest.test_case "archive merge" `Quick test_archive_merge;
    Alcotest.test_case "merged loaded archives round-trip" `Quick
      test_merged_loaded_archives_roundtrip;
    Alcotest.test_case "collector integration" `Slow test_collector_integration;
    Alcotest.test_case "fork collector" `Slow test_fork_collector;
    Alcotest.test_case "fork jobs invariance" `Slow test_fork_jobs_invariant;
    QCheck_alcotest.to_alcotest (test_fork_oracle ());
  ]
