(* The persistent code cache: codec round-trips, store
   durability/LRU/damage-tolerance, crafted entries, engine warm-start
   equivalence, and the exhaustive single-byte fault matrix — no flipped
   bit anywhere in the cache file may change program output or escape
   the counters. *)

module Types = Tessera_il.Types
module Node = Tessera_il.Node
module Meth = Tessera_il.Meth
module Program = Tessera_il.Program
module Target = Tessera_vm.Target
module Values = Tessera_vm.Values
module Plan = Tessera_opt.Plan
module Modifier = Tessera_modifiers.Modifier
module Features = Tessera_features.Features
module Profile = Tessera_workloads.Profile
module Generate = Tessera_workloads.Generate
module Engine = Tessera_jit.Engine
module Store = Tessera_cache.Store
module Codecache = Tessera_cache.Codecache
module Prog = Tessera_flat.Prog
module Compiler = Tessera_jit.Compiler
module Suites = Tessera_workloads.Suites
module Codec = Tessera_util.Codec

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                  *)
(* ------------------------------------------------------------------ *)

let temp_dir () =
  let path = Filename.temp_file "tessera_cache" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Codec round-trips                                                    *)
(* ------------------------------------------------------------------ *)

let same_bits a b =
  match (a, b) with
  | Values.Int_v x, Values.Int_v y -> Int64.equal x y
  | Values.Float_v x, Values.Float_v y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

(* structurally equal, the pool compared by bits *)
let same_code (a : Prog.t) (b : Prog.t) =
  { a with Prog.pool = [||] } = { b with Prog.pool = [||] }
  && Array.length a.Prog.pool = Array.length b.Prog.pool
  && Array.for_all2 same_bits a.Prog.pool b.Prog.pool

let entry_equal (a : Codecache.entry) (b : Codecache.entry) =
  same_code a.Codecache.code b.Codecache.code
  && a.Codecache.level = b.Codecache.level
  && Modifier.equal a.Codecache.modifier b.Codecache.modifier
  && a.Codecache.compile_cycles = b.Codecache.compile_cycles
  && a.Codecache.optimized_nodes = b.Codecache.optimized_nodes
  && a.Codecache.original_nodes = b.Codecache.original_nodes

let roundtrip e = Codecache.decode_entry (Codecache.encode_entry e)

(* the compiled code of every suite method at every level *)
let test_code_roundtrip () =
  List.iter
    (fun (b : Suites.bench) ->
      let program = Generate.program b.Suites.profile in
      Array.iter
        (fun m ->
          Array.iter
            (fun level ->
              let c = Compiler.compile ~program ~level m in
              if not (same_code c.Compiler.code (roundtrip c).Codecache.code)
              then
                Alcotest.failf "%s at %s does not round-trip" m.Meth.name
                  (Plan.level_name level))
            Plan.levels)
        program.Program.methods)
    Suites.all

(* a method of a generated program, compiled at a random level under a
   random modifier *)
let gen_entry =
  let open QCheck.Gen in
  int_range 0 10_000 >>= fun seed ->
  nat >>= fun pick ->
  oneofl (Array.to_list Plan.levels) >>= fun level ->
  map Modifier.of_bits ui64 >>= fun modifier ->
  let program = Helpers.gen_program (Int64.of_int seed) in
  let methods = program.Program.methods in
  return
    (Compiler.compile ~modifier ~program ~level
       methods.(pick mod Array.length methods))

let test_entry_roundtrip () =
  QCheck.Test.make ~count:100 ~name:"entry codec: decode (encode e) = e"
    (QCheck.make gen_entry)
    (fun e -> entry_equal e (roundtrip e))

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                         *)
(* ------------------------------------------------------------------ *)

let test_fingerprint () =
  let p = Helpers.gen_program 42L in
  let m = p.Program.methods.(1) in
  let fp level modifier target =
    Codecache.fingerprint ~target ~level ~modifier m
  in
  let base = fp Plan.Warm Modifier.null Target.zircon in
  Alcotest.(check bool)
    "deterministic" true
    (Int64.equal base (fp Plan.Warm Modifier.null Target.zircon));
  (* uids are not part of the content: rebuilding every node must not
     move the fingerprint *)
  let rebuilt =
    Meth.map_trees
      (Node.map_bottom_up (fun (n : Node.t) ->
           Node.mk ~sym:n.Node.sym ~const:n.Node.const ~flags:n.Node.flags
             n.Node.op n.Node.ty n.Node.args))
      m
  in
  Alcotest.(check bool)
    "uid-independent" true
    (Int64.equal base
       (Codecache.fingerprint ~target:Target.zircon ~level:Plan.Warm
          ~modifier:Modifier.null rebuilt));
  let distinct =
    [
      fp Plan.Hot Modifier.null Target.zircon;
      fp Plan.Warm (Modifier.of_bits 1L) Target.zircon;
      fp Plan.Warm Modifier.null Target.obsidian;
      Codecache.fingerprint ~target:Target.zircon ~level:Plan.Warm
        ~modifier:Modifier.null
        p.Program.methods.(2);
    ]
  in
  List.iteri
    (fun i other ->
      Alcotest.(check bool)
        (Printf.sprintf "sensitive %d" i)
        false (Int64.equal base other))
    distinct

(* ------------------------------------------------------------------ *)
(* Store                                                                *)
(* ------------------------------------------------------------------ *)

let with_store_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_store_roundtrip () =
  with_store_dir @@ fun dir ->
  let path = Filename.concat dir "s.tscc" in
  let s = Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:false in
  Store.add s 1L "alpha";
  Store.add s 2L "beta";
  Store.add s 1L "gamma";
  Alcotest.(check (option string))
    "supersede in memory" (Some "gamma") (Store.find s 1L Result.ok);
  Store.close s;
  let s2 = Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:false in
  Alcotest.(check int) "entries survive close" 2 (Store.entry_count s2);
  Alcotest.(check (option string))
    "supersede survives close" (Some "gamma") (Store.find s2 1L Result.ok);
  Alcotest.(check (option string)) "find beta" (Some "beta") (Store.find s2 2L Result.ok);
  Alcotest.(check (option string)) "miss" None (Store.find s2 3L Result.ok);
  let c = Store.counters s2 in
  Alcotest.(check int) "hits" 2 c.Store.hits;
  Alcotest.(check int) "misses" 1 c.Store.misses;
  Alcotest.(check int) "nothing corrupt" 0 c.Store.corrupt_entries;
  Store.close s2

let test_store_lru_eviction () =
  with_store_dir @@ fun dir ->
  let path = Filename.concat dir "s.tscc" in
  let value = String.make 64 'x' in
  (* each frame is 82 bytes (1 magic + 1 len + 8 key + 64 value + 8 crc);
     capacity holds two of them *)
  let s = Store.open_ ~path ~capacity_bytes:170 ~readonly:false in
  Store.add s 1L value;
  Store.add s 2L value;
  ignore (Store.find s 1L Result.ok);
  (* key 2 is now least recently used *)
  Store.add s 3L value;
  Alcotest.(check (option string)) "LRU victim gone" None (Store.find s 2L Result.ok);
  Alcotest.(check bool) "refreshed key kept" true (Store.find s 1L Result.ok <> None);
  Alcotest.(check bool) "new key kept" true (Store.find s 3L Result.ok <> None);
  Alcotest.(check int) "evictions" 1 (Store.counters s).Store.evictions;
  Alcotest.(check bool)
    "capacity respected" true
    (Store.byte_size s <= 170);
  Store.close s;
  (* compaction reclaims the evicted frame; the survivors reload *)
  let s2 = Store.open_ ~path ~capacity_bytes:170 ~readonly:false in
  Alcotest.(check int) "survivors reload" 2 (Store.entry_count s2);
  Store.close s2

let test_store_torn_tail () =
  with_store_dir @@ fun dir ->
  let path = Filename.concat dir "s.tscc" in
  let s = Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:false in
  Store.add s 1L "alpha";
  Store.add s 2L "beta";
  Store.add s 3L "gamma";
  Store.close s;
  let image = read_file path in
  (* crash mid-append: the last frame is half written *)
  write_file path (String.sub image 0 (String.length image - 5));
  let s2 = Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:false in
  Alcotest.(check int) "torn frame dropped" 2 (Store.entry_count s2);
  Alcotest.(check bool)
    "torn frame counted" true
    ((Store.counters s2).Store.corrupt_entries > 0);
  Alcotest.(check (option string))
    "intact prefix readable" (Some "alpha") (Store.find s2 1L Result.ok);
  Store.close s2;
  (* the compaction on close scrubbed the damage away *)
  let s3 = Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:false in
  Alcotest.(check int)
    "scrubbed clean" 0
    (Store.counters s3).Store.corrupt_entries;
  Alcotest.(check int) "survivors persist" 2 (Store.entry_count s3);
  Store.close s3

let test_store_version_stale () =
  with_store_dir @@ fun dir ->
  let path = Filename.concat dir "s.tscc" in
  let s = Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:false in
  Store.add s 1L "alpha";
  Store.close s;
  let image = Bytes.of_string (read_file path) in
  Bytes.set image 4 (Char.chr (Char.code (Bytes.get image 4) + 1));
  write_file path (Bytes.to_string image);
  let s2 = Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:false in
  Alcotest.(check int) "future format ignored" 0 (Store.entry_count s2);
  Alcotest.(check int)
    "counted stale, not corrupt" 1
    (Store.counters s2).Store.stale_entries;
  Alcotest.(check int)
    "not corrupt" 0
    (Store.counters s2).Store.corrupt_entries;
  Store.close s2

exception Hung

(* Runs [f] under a wall-clock alarm, so a scan that stops making
   progress fails the test instead of hanging the suite. *)
let within_seconds secs f =
  let timer v = { Unix.it_interval = 0.0; it_value = v } in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Hung)) in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL (timer 0.0));
      Sys.set_signal Sys.sigalrm previous)
    (fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL (timer secs));
      f ())

let test_store_negative_length () =
  with_store_dir @@ fun dir ->
  let path = Filename.concat dir "s.tscc" in
  let s = Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:false in
  Store.add s 1L "alpha";
  Store.close s;
  let valid = read_file path in
  Alcotest.(check int) "one 28-byte frame file" 28 (String.length valid);
  List.iter
    (fun (what, image, survivors) ->
      write_file path image;
      match
        within_seconds 5.0 (fun () ->
            Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:true)
      with
      | exception Hung -> Alcotest.failf "%s: open never returned" what
      | s2 ->
          Alcotest.(check int) (what ^ ": one corrupt entry") 1
            (Store.counters s2).Store.corrupt_entries;
          Alcotest.(check int) (what ^ ": survivors") survivors
            (Store.entry_count s2);
          if survivors > 0 then
            Alcotest.(check (option string)) (what ^ ": prefix kept")
              (Some "alpha") (Store.find s2 1L Result.ok);
          Store.close s2)
    [
      (* a varint of -18: its frame's next boundary would be its own
         start *)
      ( "length -18",
        valid ^ "\xe5\xee\xff\xff\xff\xff\xff\xff\xff\x7f"
        ^ String.make 16 '\000',
        1 );
      ( "length min_int",
        String.sub valid 0 5 ^ "\xe5\x80\x80\x80\x80\x80\x80\x80\x80\x40",
        0 );
    ]

let flip image pos =
  let b = Bytes.of_string image in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
  Bytes.to_string b

let check_store what s ~entries ~corrupt ~stale =
  let c = Store.counters s in
  Alcotest.(check (list int))
    (what ^ ": entries, corrupt, stale")
    [ entries; corrupt; stale ]
    [ Store.entry_count s; c.Store.corrupt_entries; c.Store.stale_entries ]

(* [add 1L "alpha"] as the version-1 store wrote it: its trailer was the
   payload CRC sign-extended to 64 bits *)
let version1_image =
  "TSCC\x01\xe5\x0d\x01\x00\x00\x00\x00\x00\x00\x00alpha\x70\x51\x20\xc4\xff\xff\xff\xff"

(* A writer that opened an empty file, a file whose header it rejected,
   or one whose scan stopped at a torn frame, appends where a reader can
   find it: a second reader opened before the writer closes sees the new
   entry. *)
let test_store_append_after_rejected_bytes () =
  with_store_dir @@ fun dir ->
  let path = Filename.concat dir "s.tscc" in
  let s = Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:false in
  Store.add s 1L "alpha";
  Store.close s;
  let one_frame = read_file path in
  List.iter
    (fun (what, image, corrupt, stale, kept) ->
      write_file path image;
      let w = Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:false in
      check_store (what ^ ", writer") w ~entries:(List.length kept) ~corrupt
        ~stale;
      Store.add w 2L "beta";
      let r = Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:true in
      check_store (what ^ ", reader before close") r
        ~entries:(List.length kept + 1) ~corrupt:0 ~stale:0;
      List.iter
        (fun (key, value) ->
          Alcotest.(check (option string))
            (Printf.sprintf "%s: key %Ld found" what key)
            (Some value) (Store.find r key Result.ok))
        ((2L, "beta") :: kept);
      Store.close r;
      Store.close w;
      let r = Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:true in
      check_store (what ^ ", after close") r ~entries:(List.length kept + 1)
        ~corrupt:0 ~stale:0;
      Store.close r)
    [
      (* what, image, corrupt and stale at open, the entries it keeps *)
      ("empty file", "", 0, 0, []);
      ("another version", "TSCC\x00", 0, 1, []);
      ("bad magic", "TSCX\x02" ^ String.make 30 'x', 1, 0, []);
      ("torn frame", one_frame ^ String.sub one_frame 5 9, 1, 0, [ (1L, "alpha") ]);
      (* cut inside the frame's length: the scan cannot read it *)
      ("cut after a frame magic", one_frame ^ "\xe5", 1, 0, [ (1L, "alpha") ]);
    ]

(* A version-1 file reads as one stale entry, and a writable store
   replaces it with a version-2 file. *)
let test_store_version1_migrates () =
  with_store_dir @@ fun dir ->
  let path = Filename.concat dir "s.tscc" in
  write_file path version1_image;
  Alcotest.(check int) "the frozen file" 28 (String.length version1_image);
  let s = Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:false in
  check_store "version 1" s ~entries:0 ~corrupt:0 ~stale:1;
  Alcotest.(check (option string)) "nothing served" None
    (Store.find s 1L Result.ok);
  Store.add s 1L "alpha";
  Store.close s;
  let image = read_file path in
  Alcotest.(check int) "version byte" 2 (Char.code image.[4]);
  Alcotest.(check int) "one 28-byte frame file" 28 (String.length image);
  let s = Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:true in
  check_store "reopened" s ~entries:1 ~corrupt:0 ~stale:0;
  Alcotest.(check (option string)) "served" (Some "alpha")
    (Store.find s 1L Result.ok);
  Store.close s

(* The store checks each frame's header at open and its payload at the
   first lookup or at compaction. *)
let test_store_checks_payloads_lazily () =
  with_store_dir @@ fun dir ->
  let path = Filename.concat dir "s.tscc" in
  let s = Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:false in
  Store.add s 1L "alpha";
  Store.add s 2L "beta";
  Store.add s 3L "gamma";
  Store.close s;
  let pristine = read_file path in
  (* key 2's frame: magic at 28, length 29, key 30-37, value 38-41,
     payload CRC 42-45, header CRC 46-49 *)
  Alcotest.(check int) "three frames" 73 (String.length pristine);
  let open_ro image =
    write_file path image;
    Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:true
  in
  List.iter
    (fun (what, pos) ->
      let s = open_ro (flip pristine pos) in
      check_store (what ^ ": open counts nothing") s ~entries:3 ~corrupt:0
        ~stale:0;
      Alcotest.(check (option string)) (what ^ ": intact entry") (Some "alpha")
        (Store.find s 1L Result.ok);
      check_store (what ^ ": an intact lookup counts nothing") s ~entries:3
        ~corrupt:0 ~stale:0;
      Alcotest.(check (option string)) (what ^ ": damaged entry") None
        (Store.find s 2L Result.ok);
      check_store (what ^ ": its lookup counts it and drops it") s ~entries:2
        ~corrupt:1 ~stale:0;
      Alcotest.(check int) (what ^ ": a miss") 1 (Store.counters s).Store.misses;
      Alcotest.(check (option string)) (what ^ ": later entry") (Some "gamma")
        (Store.find s 3L Result.ok);
      Store.close s)
    [ ("value byte", 39); ("payload CRC", 43) ];
  List.iter
    (fun (what, pos) ->
      let s = open_ro (flip pristine pos) in
      Alcotest.(check bool) (what ^ ": counted corrupt at open") true
        ((Store.counters s).Store.corrupt_entries > 0);
      Alcotest.(check (option string)) (what ^ ": intact entry") (Some "alpha")
        (Store.find s 1L Result.ok);
      Store.close s)
    [ ("frame magic", 28); ("length", 29); ("key", 33); ("header CRC", 47) ];
  (* a writable store that nobody reads checks every payload it keeps *)
  write_file path (flip pristine 39);
  let s = Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:false in
  check_store "writable: open counts nothing" s ~entries:3 ~corrupt:0 ~stale:0;
  Store.close s;
  check_store "writable: compaction counts and drops" s ~entries:2 ~corrupt:1
    ~stale:0;
  let s = Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:true in
  check_store "compacted" s ~entries:2 ~corrupt:0 ~stale:0;
  List.iter
    (fun (key, value) ->
      Alcotest.(check (option string))
        (Printf.sprintf "compacted: key %Ld" key)
        value (Store.find s key Result.ok))
    [ (1L, Some "alpha"); (2L, None); (3L, Some "gamma") ];
  check_store "compacted, read" s ~entries:2 ~corrupt:0 ~stale:0;
  Store.close s

(* ------------------------------------------------------------------ *)
(* Engine warm start                                                    *)
(* ------------------------------------------------------------------ *)

(* One full adaptive run of a generated program over a given cache. *)
let run_adaptive ?cache ~invocations program =
  let config =
    match cache with
    | None -> Engine.default_config
    | Some c -> { Engine.default_config with Engine.code_cache = Some c }
  in
  let engine = Engine.create ~config program in
  let outcomes =
    List.init invocations (fun k ->
        Engine.invoke_entry engine (Helpers.entry_args k))
  in
  (outcomes, engine)

let test_engine_warm_equivalence () =
  let program = Helpers.gen_program 7L in
  with_store_dir @@ fun dir ->
  let cold_cache = Codecache.create ~dir () in
  let cold_out, cold_engine =
    run_adaptive ~cache:cold_cache ~invocations:6 program
  in
  let cold_compiles = Engine.compile_count cold_engine in
  Codecache.close cold_cache;
  Alcotest.(check bool) "cold run compiles" true (cold_compiles > 0);
  Alcotest.(check bool)
    "cold run misses only" true
    (Engine.cache_hits cold_engine = 0);
  let warm_cache = Codecache.create ~dir () in
  let warm_out, warm_engine =
    run_adaptive ~cache:warm_cache ~invocations:6 program
  in
  Alcotest.(check (list Helpers.outcome_testable))
    "identical outcomes" cold_out warm_out;
  Alcotest.(check int) "no warm compilations" 0
    (Engine.compile_count warm_engine);
  Alcotest.(check int) "every install is an AOT load" cold_compiles
    (Engine.cache_hits warm_engine);
  Codecache.close warm_cache;
  (* read-only: same behaviour, file untouched *)
  let image = read_file (Filename.concat dir Codecache.file_name) in
  let ro_cache = Codecache.create ~dir ~readonly:true () in
  let ro_out, ro_engine = run_adaptive ~cache:ro_cache ~invocations:6 program in
  Alcotest.(check (list Helpers.outcome_testable))
    "read-only outcomes" cold_out ro_out;
  Alcotest.(check int) "read-only compilations" 0
    (Engine.compile_count ro_engine);
  Codecache.close ro_cache;
  Alcotest.(check bool)
    "read-only leaves the file alone" true
    (String.equal image (read_file (Filename.concat dir Codecache.file_name)))

(* With no model query and no collector, nothing reads a feature
   vector, so no method's is extracted: not by a cold compilation, not
   by a warm AOT load. *)
let test_no_reader_no_extraction () =
  let module Suites = Tessera_workloads.Suites in
  let bench = Suites.scale_bench (Option.get (Suites.find "jack")) 0.4 in
  let program = Generate.program bench.Suites.profile in
  with_store_dir @@ fun dir ->
  let run what =
    let cache = Codecache.create ~dir () in
    let _, engine =
      run_adaptive ~cache ~invocations:bench.Suites.iteration_invocations
        program
    in
    Codecache.close cache;
    Array.iteri
      (fun id _ ->
        if (Engine.state engine id).Engine.features <> None then
          Alcotest.failf "%s: method %d was extracted" what id)
      program.Program.methods;
    engine
  in
  Alcotest.(check bool) "the cold run compiles" true
    (Engine.compile_count (run "cold") > 0);
  Alcotest.(check bool) "the warm run loads" true
    (Engine.cache_hits (run "warm") > 0)

(* ------------------------------------------------------------------ *)
(* Fault matrix                                                         *)
(* ------------------------------------------------------------------ *)

(* Tiny deterministic workload so the cache file stays small enough to
   attack every byte. *)
let matrix_profile =
  {
    (Helpers.small_profile 5L) with
    Profile.name = "cachefault";
    methods = 3;
    fragments_mean = 2.0;
    driver_trips = 2;
    hot_methods = 2;
  }

let run_matrix ?cache program =
  let config =
    match cache with
    | None -> Engine.default_config
    | Some c -> { Engine.default_config with Engine.code_cache = Some c }
  in
  let engine = Engine.create ~config program in
  Array.iteri
    (fun id _ -> Engine.request_compile engine ~meth_id:id ~level:Plan.Cold ())
    program.Program.methods;
  Engine.invoke_entry engine (Helpers.entry_args 0)

let test_fault_matrix () =
  let program = Generate.program matrix_profile in
  with_store_dir @@ fun dir ->
  let path = Filename.concat dir Codecache.file_name in
  let cold_cache = Codecache.create ~dir () in
  let reference = run_matrix ~cache:cold_cache program in
  Codecache.close cold_cache;
  let pristine = read_file path in
  let len = String.length pristine in
  Alcotest.(check bool) "cache file populated" true (len > 5);
  for pos = 0 to len - 1 do
    let image = Bytes.of_string pristine in
    Bytes.set image pos
      (Char.chr (Char.code (Bytes.get image pos) lxor (1 lsl (pos mod 8))));
    write_file path (Bytes.to_string image);
    let cache = Codecache.create ~dir ~readonly:true () in
    let outcome = run_matrix ~cache program in
    let c = Codecache.counters cache in
    Codecache.close cache;
    if not (Helpers.outcome_equal reference outcome) then
      Alcotest.failf "flipping a bit of byte %d changed program output" pos;
    (* byte 4 is the format-version byte: well-formed but outdated;
       every other position must be caught as corruption *)
    if pos = 4 then begin
      if c.Store.stale_entries = 0 then
        Alcotest.failf "version flip at byte %d not counted stale" pos
    end
    else if c.Store.corrupt_entries = 0 then
      Alcotest.failf "flip at byte %d not counted corrupt" pos
  done;
  write_file path pristine

(* ------------------------------------------------------------------ *)
(* Entry-layout generations                                             *)
(* ------------------------------------------------------------------ *)

let old_meth =
  Meth.make ~name:"Old.o()I" ~params:[||] ~ret:Types.Int ~symbols:[||]
    [|
      Tessera_il.Block.make 0 []
        (Tessera_il.Block.Return (Some (Node.iconst Types.Int 7L)));
    |]

let old_key =
  Codecache.fingerprint ~target:Target.zircon ~level:Plan.Cold
    ~modifier:Modifier.null old_meth

(* The code of [old_meth] as the older layouts stored it: a stack-machine
   form (name, argument count, return type, synchronized flag, quality,
   local types, then [const.int 7; ret.v] with their costs and tables),
   frozen as the last binary that wrote it encoded it. *)
let old_code_bytes =
  "\x08\x4f\x6c\x64\x2e\x6f\x28\x29\x49\x00\x03\x00\x00\x00\x02\x00\x03\x07\x00\x00\x00\x00\x00\x00\x00\x1a\x01\x01\x02\x00\x00\x01\x00\x01\x00"

(* An entry of an older layout for [old_meth] at the cold level: the
   fields after the level byte, with [features] written as a count and
   that many varints, when given. *)
let old_entry_bytes ?schema ?features () =
  let buf = Buffer.create 256 in
  Option.iter (Codec.write_varint buf) schema;
  Codec.write_u8 buf (Plan.level_index Plan.Cold);
  Codec.write_i64 buf (Modifier.to_bits Modifier.null);
  Option.iter
    (fun f ->
      let fs = Features.to_array f in
      Codec.write_varint buf (Array.length fs);
      Array.iter (fun v -> Codec.write_varint buf v) fs)
    features;
  Codec.write_varint buf 123;
  Codec.write_varint buf 4;
  Codec.write_varint buf 5;
  Buffer.add_string buf old_code_bytes;
  Buffer.contents buf

(* write the frame the way an old binary would have: through the store,
   so the CRC and framing are perfectly valid *)
let write_old_entry dir bytes =
  let path = Filename.concat dir Codecache.file_name in
  let s = Store.open_ ~path ~capacity_bytes:1_000_000 ~readonly:false in
  Store.add s old_key bytes;
  Store.close s

let check_counters what (c : Store.counters) ~hits ~misses ~stale =
  Alcotest.(check (list int))
    (what ^ ": hits, misses, stale, corrupt")
    [ hits; misses; stale; 0 ]
    [ c.Store.hits; c.Store.misses; c.Store.stale_entries; c.Store.corrupt_entries ]

(* An entry written by the first shipped layout — no leading varint, a
   u8 plan level first — must read back as a clean stale miss: dropped,
   counted under [stale] and as a miss, never [corrupt] or a hit, never
   an error. *)
let test_pre_schema_entry_stale () =
  with_store_dir @@ fun dir ->
  write_old_entry dir
    (old_entry_bytes ~features:(Features.extract old_meth) ());
  let cache = Codecache.create ~dir () in
  Alcotest.(check int) "old entry loads" 1 (Codecache.entry_count cache);
  Alcotest.(check bool) "pre-schema entry is a miss" true
    (Option.is_none
       (Codecache.lookup cache ~key:old_key ~level:Plan.Cold
          ~modifier:Modifier.null ~methods:1));
  check_counters "lookup" (Codecache.counters cache) ~hits:0 ~misses:1
    ~stale:1;
  Alcotest.(check int) "entry dropped" 0 (Codecache.entry_count cache);
  Codecache.close cache

let old_program = Program.make ~name:"old" ~entry:0 [| old_meth |]

(* An old entry is a stale miss: the engine recompiles the method, the
   new entry supersedes the old one, and the next open serves it. *)
let check_superseded bytes =
  let program = old_program in
  with_store_dir @@ fun dir ->
  write_old_entry dir bytes;
  let run () =
    let cache = Codecache.create ~dir () in
    let engine =
      Engine.create
        ~config:
          {
            Engine.default_config with
            Engine.adaptive = false;
            code_cache = Some cache;
          }
        program
    in
    Engine.request_compile engine ~meth_id:0 ~level:Plan.Cold
      ~modifier:Modifier.null ();
    Codecache.close cache;
    (engine, Codecache.counters cache)
  in
  let engine, c = run () in
  Alcotest.(check int) "recompiled" 1 (Engine.compile_count engine);
  Alcotest.(check int) "no AOT load" 0 (Engine.cache_hits engine);
  check_counters "first open" c ~hits:0 ~misses:1 ~stale:1;
  let engine, c = run () in
  Alcotest.(check int) "nothing compiled" 0 (Engine.compile_count engine);
  Alcotest.(check int) "one AOT load" 1 (Engine.cache_hits engine);
  check_counters "second open" c ~hits:1 ~misses:0 ~stale:0

(* the second layout: the feature dimension 76 as a schema varint, then
   the vector itself *)
let test_feature_schema_entry_stale () =
  check_superseded
    (old_entry_bytes ~schema:Features.dim
       ~features:(Features.extract ~program:old_program old_meth)
       ())

(* the third layout: 5, then the fields and the stack-machine code *)
let test_layout5_entry_stale () = check_superseded (old_entry_bytes ~schema:5 ())

(* A one-method program returning a constant, and its run through an
   engine whose code cache holds [entry] (if any) under the method's
   cold-level key: the outcome, application cycles and cache counters. *)
let const_meth =
  Meth.make ~name:"C.c()I" ~params:[||] ~ret:Types.Int ~symbols:[||]
    [|
      Tessera_il.Block.make 0 []
        (Tessera_il.Block.Return (Some (Node.iconst Types.Int 7L)));
    |]

let const_program = Program.make ~name:"c" ~entry:0 [| const_meth |]

let run_on_cache ?entry () =
  with_store_dir @@ fun dir ->
  Option.iter
    (fun bytes ->
      let s =
        Store.open_
          ~path:(Filename.concat dir Codecache.file_name)
          ~capacity_bytes:1_000_000 ~readonly:false
      in
      Store.add s
        (Codecache.fingerprint ~target:Target.zircon ~level:Plan.Cold
           ~modifier:Modifier.null const_meth)
        bytes;
      Store.close s)
    entry;
  let cache = Codecache.create ~dir () in
  let engine =
    Engine.create
      ~config:
        {
          Engine.default_config with
          Engine.adaptive = false;
          code_cache = Some cache;
        }
      const_program
  in
  Engine.request_compile engine ~meth_id:0 ~level:Plan.Cold
    ~modifier:Modifier.null ();
  let outcome = Engine.invoke_entry engine [||] in
  Codecache.close cache;
  (outcome, Engine.app_cycles engine, Codecache.counters cache)

(* the constant's compiled code with its [Const] replaced by [by], as a
   CRC-clean entry whose bytes [patch] may then edit (given the
   replaced constant's cost): a corrupt miss, after which the method is
   recompiled and runs exactly as on an empty cache *)
let check_corrupt_miss ?(patch = fun _ bytes -> bytes) by =
  let cold_outcome, cold_cycles, _ = run_on_cache () in
  let c = Compiler.compile ~program:const_program ~level:Plan.Cold const_meth in
  let cost = ref 0 in
  let bad =
    Array.map
      (function
        | Prog.Const (charge, _) ->
            cost := charge;
            by charge
        | i -> i)
      c.Compiler.code.Prog.instrs
  in
  let entry =
    patch !cost
      (Codecache.encode_entry
         { c with Compiler.code = { c.Compiler.code with Prog.instrs = bad } })
  in
  let outcome, cycles, c = run_on_cache ~entry () in
  Alcotest.(check (list int))
    "hits, misses, corrupt" [ 0; 1; 1 ]
    [ c.Store.hits; c.Store.misses; c.Store.corrupt_entries ];
  Alcotest.check Helpers.outcome_testable "outcome" cold_outcome outcome;
  Alcotest.(check int64) "app cycles" cold_cycles cycles

(* An entry whose bytes decode but whose program fails the verifier: its
   constant replaced by a load of a local the method does not have. *)
let test_unverifiable_entry () =
  check_corrupt_miss (fun cost -> Prog.Load_local (cost, 5))

(* An entry whose program verifies but calls a method the program does
   not have: the verifier checks structure, not the engine's method
   table, so the lookup checks every callee. *)
let test_call_outside_program () =
  check_corrupt_miss (fun cost -> Prog.C_invoke (cost, 99, 0, true))

(* [s] with its one occurrence of [sub] replaced by [by] *)
let replace_once s ~sub ~by =
  let n = String.length sub in
  let at =
    List.filter
      (fun i -> String.sub s i n = sub)
      (List.init (String.length s - n + 1) Fun.id)
  in
  match at with
  | [ i ] -> String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  | _ -> Alcotest.failf "%d occurrences of the pattern" (List.length at)

(* The same call with a callee that decodes below 0: the writer refuses
   a negative varint, so the entry's callee 99 (the one byte 0x63) is
   replaced by nine bytes that decode to [min_int]. *)
let test_negative_callee () =
  let varint v =
    let buf = Buffer.create 9 in
    Codec.write_varint buf v;
    Buffer.contents buf
  in
  let tag = String.make 1 (Char.chr (Prog.kind (Prog.C_invoke (0, 0, 0, true)))) in
  check_corrupt_miss
    ~patch:(fun cost bytes ->
      replace_once bytes
        ~sub:(tag ^ varint cost ^ varint 99)
        ~by:(tag ^ varint cost ^ "\x80\x80\x80\x80\x80\x80\x80\x80\x40"))
    (fun cost -> Prog.C_invoke (cost, 99, 0, true))

(* An entry in today's layout for [old_meth] at the cold level, written
   by hand: a program with no locals and no constants that claims
   [count] instructions, then the bytes [rest]. *)
let crafted_entry ~count rest =
  let buf = Buffer.create 64 in
  Codec.write_varint buf Codecache.entry_layout;
  Codec.write_u8 buf (Plan.level_index Plan.Cold);
  Codec.write_i64 buf (Modifier.to_bits Modifier.null);
  List.iter (Codec.write_varint buf) [ 1; 1; 1 ] (* cycles, node counts *);
  Codec.write_string buf "Old.o()I";
  Codec.write_u8 buf (Types.index Types.Int);
  List.iter (Codec.write_varint buf) [ 5; 0; 0 ] (* sync charge, locals, pool *);
  Codec.write_varint buf count;
  Buffer.add_string buf rest;
  Buffer.contents buf

(* tag and cost of [ret], then one block at pc 0 without a handler *)
let ret_void = "\x48\x02"
let one_block = "\x01\x00\x00"

(* Only the opcodes compiled code holds decode: an interpreted opcode's
   tag, or a binop carrying an opcode that is not binary, is malformed. *)
let test_compiled_opcodes_only () =
  Alcotest.(check int) "ret_void's tag" (Char.code ret_void.[0])
    (Prog.kind (Prog.C_ret_void 2));
  let code bytes = (Codecache.decode_entry bytes).Codecache.code in
  Alcotest.(check int) "the well-formed entry decodes" 1
    (Prog.code_size (code (crafted_entry ~count:1 (ret_void ^ one_block))));
  List.iter
    (fun (what, bytes) ->
      match code bytes with
      | _ -> Alcotest.failf "%s decoded" what
      | exception _ -> ())
    [
      ( "interpreted ret_void",
        crafted_entry ~count:1
          (String.make 1 (Char.chr (Prog.kind Prog.Ret_void)) ^ "\x02" ^ one_block) );
      ( "enter",
        crafted_entry ~count:2 ("\x00\x00" ^ ret_void ^ one_block) );
      (* two objects, their "load", popped: it would verify *)
      ( "binop load",
        let tag i = String.make 1 (Char.chr (Prog.kind i)) in
        let new_obj = tag (Prog.New_obj (1, 0)) ^ "\x01\x00" in
        crafted_entry ~count:5
          (new_obj ^ new_obj
          ^ tag
              (Prog.C_binop
                 (1, Option.get (Tessera_vm.Semantics.kernel Tessera_il.Opcode.Add Types.Int)))
          ^ "\x01\x04load"
          ^ String.make 1 (Char.chr (Types.index Types.Int))
          ^ tag (Prog.C_pop 0) ^ "\x00" ^ ret_void ^ one_block) );
    ]

(* An entry claiming a million instructions in a few bytes is rejected
   before the decoder allocates for them. *)
let test_oversized_count () =
  with_store_dir @@ fun dir ->
  write_old_entry dir (crafted_entry ~count:1_000_000 ret_void);
  let cache = Codecache.create ~dir () in
  let before = Gc.allocated_bytes () in
  let found =
    Codecache.lookup cache ~key:old_key ~level:Plan.Cold ~modifier:Modifier.null
      ~methods:1
  in
  let allocated = Gc.allocated_bytes () -. before in
  let c = Codecache.counters cache in
  Codecache.close cache;
  Alcotest.(check bool) "rejected" true (Option.is_none found);
  Alcotest.(check (list int))
    "hits, misses, corrupt" [ 0; 1; 1 ]
    [ c.Store.hits; c.Store.misses; c.Store.corrupt_entries ];
  if allocated >= 1_048_576. then
    Alcotest.failf "the lookup allocated %.0f bytes" allocated

(* The bytes of entries in today's layout: every method of a generated
   program compiled at each level under two modifiers. *)
let test_entry_known_answers () =
  let program = Helpers.gen_program 7L in
  let buf = Buffer.create 65_536 in
  Array.iter
    (fun m ->
      Array.iter
        (fun level ->
          List.iter
            (fun modifier ->
              Buffer.add_string buf
                (Codecache.encode_entry
                   (Compiler.compile ~modifier ~program ~level m)))
            [ Modifier.null; Modifier.of_disabled [ 3; 17; 40 ] ])
        Plan.levels)
    program.Program.methods;
  Alcotest.(check string) "entry bytes md5" "0363eb41bfe5629051ab279859aa5d90"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ------------------------------------------------------------------ *)

let suite =
  [ QCheck_alcotest.to_alcotest (test_entry_roundtrip ()) ]
  @ [
      Alcotest.test_case "code codec: decode (encode p) = p" `Quick
        test_code_roundtrip;
      Alcotest.test_case "fingerprint content-addresses the plan" `Quick
        test_fingerprint;
      Alcotest.test_case "store: add/find/supersede survive reopen" `Quick
        test_store_roundtrip;
      Alcotest.test_case "store: capacity evicts least recently used" `Quick
        test_store_lru_eviction;
      Alcotest.test_case "store: torn tail dropped, prefix kept, scrubbed"
        `Quick test_store_torn_tail;
      Alcotest.test_case "store: future format version reads as stale" `Quick
        test_store_version_stale;
      Alcotest.test_case "store: negative frame length is a torn tail" `Quick
        test_store_negative_length;
      Alcotest.test_case
        "store: frames appended after rejected bytes are found" `Quick
        test_store_append_after_rejected_bytes;
      Alcotest.test_case "store: a version-1 file reads as stale, migrates"
        `Quick test_store_version1_migrates;
      Alcotest.test_case
        "store: headers checked at open, payloads at first lookup" `Quick
        test_store_checks_payloads_lazily;
      Alcotest.test_case "codecache: pre-schema entry reads as stale" `Quick
        test_pre_schema_entry_stale;
      Alcotest.test_case
        "codecache: feature-schema entry reads as stale, then is served"
        `Quick test_feature_schema_entry_stale;
      Alcotest.test_case
        "codecache: layout-5 entry reads as stale, then is served" `Quick
        test_layout5_entry_stale;
      Alcotest.test_case
        "codecache: an entry that fails the verifier is a corrupt miss" `Quick
        test_unverifiable_entry;
      Alcotest.test_case
        "codecache: an entry that calls outside the program is a corrupt miss"
        `Quick test_call_outside_program;
      Alcotest.test_case
        "codecache: an entry that calls a negative method id is a corrupt miss"
        `Quick test_negative_callee;
      Alcotest.test_case "codecache: an oversized count allocates nothing"
        `Quick test_oversized_count;
      Alcotest.test_case "codecache: only compiled opcodes decode" `Quick
        test_compiled_opcodes_only;
      Alcotest.test_case "codecache: entry bytes: known answers" `Quick
        test_entry_known_answers;
      Alcotest.test_case "engine: warm start replays without compiling" `Quick
        test_engine_warm_equivalence;
      Alcotest.test_case "engine: no reader, no feature extraction" `Quick
        test_no_reader_no_extraction;
      Alcotest.test_case "fault matrix: every byte flip is survived" `Slow
        test_fault_matrix;
    ]
