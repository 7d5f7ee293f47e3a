(* Shared machinery for the test suites: reference execution of whole
   programs under different engine configurations, and program/method
   generators wired into qcheck. *)

module Program = Tessera_il.Program
module Meth = Tessera_il.Meth
module Values = Tessera_vm.Values
module Interp = Tessera_vm.Interp
module Lower = Tessera_flat.Lower
module Flat_prog = Tessera_flat.Prog
module Flat_interp = Tessera_flat.Interp
module Manager = Tessera_opt.Manager
module Plan = Tessera_opt.Plan
module Modifier = Tessera_modifiers.Modifier
module Profile = Tessera_workloads.Profile
module Generate = Tessera_workloads.Generate
module Prng = Tessera_util.Prng

type outcome = (Values.t, Values.trap) result

let pp_outcome fmt = function
  | Ok v -> Format.fprintf fmt "Ok %a" Values.pp v
  | Error k -> Format.fprintf fmt "Trap %s" (Values.trap_name k)

let outcome_equal a b =
  match (a, b) with
  | Ok x, Ok y -> Values.equal x y
  | Error x, Error y -> x = y
  | _ -> false

let outcome_testable = Alcotest.testable pp_outcome outcome_equal

(* Run a program's entry method with every method in a fixed
   implementation.  [transform] optionally rewrites each method first
   (optimizer under test); [compile] lowers to native code and executes
   that instead of interpreting. *)
let run_program ?(fuel = 200_000_000) ?(compile = false)
    ?(transform = fun _id m -> m) (program : Program.t) (args : Values.t array)
    : outcome * int =
  let methods =
    Array.mapi (fun id m -> transform id m) program.Program.methods
  in
  let codes =
    if compile then
      Some (Array.map (fun m -> Lower.compile m) methods)
    else None
  in
  let cycles = ref 0 in
  let charge n = cycles := !cycles + n in
  let fuel_ref = ref fuel in
  let rec invoke id args =
    let ctx =
      {
        Interp.classes = program.Program.classes;
        charge;
        invoke;
        fuel = fuel_ref;
      }
    in
    match codes with
    | None -> Interp.run ctx methods.(id) args
    | Some arr -> Flat_interp.run ctx arr.(id) args
  in
  let outcome =
    match invoke program.Program.entry args with
    | v -> Ok v
    | exception Values.Trap k -> Error k
  in
  (outcome, !cycles)

(* Small profiles so property tests stay fast. *)
let small_profile seed =
  {
    Profile.default with
    Profile.name = Printf.sprintf "t%Ld" seed;
    seed;
    methods = 6;
    classes = 3;
    fragments_mean = 3.0;
    driver_trips = 3;
    hot_methods = 3;
  }

let gen_program seed = Generate.program (small_profile seed)

let entry_args k = [| Values.Int_v (Int64.of_int k) |]

(* Optimize every method of a program with a given plan & modifier. *)
let optimize_all ?(validate = true) ~plan ~enabled (program : Program.t) id m =
  ignore id;
  let r = Manager.optimize ~enabled ~validate ~program ~plan m in
  r.Manager.meth

let seeds n base = List.init n (fun i -> Int64.of_int ((i * 7919) + base))

(* An in-process model server on the endpoint [ch] of an in-memory pipe,
   advanced one Serve tick per call: the [lockstep] of a Client on the
   other end.  [predict] answers row by row; the default echoes each
   request's feature count into the modifier. *)
let lockstep_server
    ?(predict =
      fun ~level:_ ~features -> Modifier.of_disabled [ Array.length features mod 58 ])
    ch =
  let module Serve = Tessera_protocol.Serve in
  let engine =
    Serve.create
      ~make_predictor:(fun _ ~level rows ->
        Array.map (fun features -> predict ~level ~features) rows)
      ()
  in
  Serve.lockstep engine ch

exception Bad_frame of string

(* A frame with tag 3 whose 9-byte length varint sets bit 62 in its last
   byte: the length decodes to [min_int]. *)
let negative_length_frame =
  "\xa7\x03\x80\x80\x80\x80\x80\x80\x80\x80\x40\x00\x00\x00\x00"

(* One frame off [ch], decoded by [Message.scan].  Reads one byte at a
   time, so frames queued behind it stay queued for the next call.  A
   descriptor-backed channel is waited on; an in-memory one must already
   hold the whole frame.  Raises [Channel.Closed] at end of stream and
   {!Bad_frame} when the bytes are not one valid frame. *)
let recv ch =
  let module Channel = Tessera_protocol.Channel in
  let module Message = Tessera_protocol.Message in
  let rec go buf =
    match Message.scan buf ~pos:0 with
    | Message.Scan_msg (m, _) -> m
    | Message.Scan_bad why -> raise (Bad_frame why)
    | Message.Scan_need_more -> (
        match Channel.read_avail ch 1 with
        | "" -> (
            match Channel.read_fd ch with
            | Some fd ->
                (try ignore (Unix.select [ fd ] [] [] (-1.0))
                 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
                go buf
            | None -> raise (Bad_frame "incomplete frame"))
        | s -> go (buf ^ s))
  in
  go ""

(* The three modifiers of the compiled-code known answers: the null
   modifier and two seeded random ones. *)
let known_answer_modifiers () =
  let rng = Prng.create 20L in
  [
    Modifier.null;
    Modifier.random rng ~density:0.25;
    Modifier.random rng ~density:0.5;
  ]

(* A canonical rendering of compiled code as the code generator emits
   it: each instruction slot's kind name and operands, a
   superinstruction as its first half ([Prog.first_half], as the code
   cache writes it), so the rendering pins the code generator and not
   the fusion tables; then the pool by bits, and every table the loop
   reads.  Only the forms compiled code can hold render; anything else
   fails. *)
let render_code (p : Flat_prog.t) =
  let module Types = Tessera_il.Types in
  let module Opcode = Tessera_il.Opcode in
  let buf = Buffer.create 1024 in
  let ty t = string_of_int (Types.index t) in
  let op o = Opcode.name o in
  let cast k = Opcode.name (Opcode.Cast k) in
  let bit b = if b then "1" else "0" in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let operands : Flat_prog.instr -> string list = function
    | Flat_prog.Begin c | C_elem_load c | C_elem_store c | C_monitor c
    | C_bounds_chk c | C_arr_copy c | C_arr_cmp c | C_arr_len c | C_pop c
    | C_ret_void c | C_ret_val c | C_raise c ->
        [ string_of_int c ]
    | Const (c, k) | Load_local (c, k) | New_obj (c, k) | C_field_load (c, k)
    | C_field_store (c, k) | C_checkcast (c, k) | C_instance_of (c, k)
    | C_jmp (c, k) | C_br_false (c, k) ->
        [ string_of_int c; string_of_int k ]
    | C_inc_local (c, s, d, t) ->
        [ string_of_int c; string_of_int s; Int64.to_string d; ty t ]
    | C_store_local (c, s, t) -> [ string_of_int c; string_of_int s; ty t ]
    | C_binop (c, k) ->
        [
          string_of_int c;
          op (Tessera_vm.Semantics.kernel_op k);
          ty (Tessera_vm.Semantics.kernel_ty k);
        ]
    | C_negate (c, t) | C_new_arr (c, t) | C_new_multi (c, t) ->
        [ string_of_int c; ty t ]
    | C_cast_to (c, k, t) -> [ string_of_int c; cast k; ty t ]
    | C_invoke (c, callee, argc, pushes) ->
        [ string_of_int c; string_of_int callee; string_of_int argc; bit pushes ]
    | C_mixed (c, argc, t, pushes) ->
        [ string_of_int c; string_of_int argc; ty t; bit pushes ]
    | i ->
        failwith
          ("render_code: not compiled code: "
          ^ Flat_prog.kind_name (Flat_prog.kind i))
  in
  Array.iter
    (fun i ->
      let i = Flat_prog.first_half i in
      Printf.bprintf buf "%s(%s) "
        (Flat_prog.kind_name (Flat_prog.kind i))
        (String.concat "," (operands i)))
    p.Flat_prog.instrs;
  Buffer.add_string buf "\npool:";
  Array.iter
    (function
      | Values.Int_v b -> Printf.bprintf buf " i%Lx" b
      | Values.Float_v f -> Printf.bprintf buf " f%Lx" (Int64.bits_of_float f)
      | _ -> failwith "render_code: pool holds a non-constant")
    p.Flat_prog.pool;
  Printf.bprintf buf
    "\nblock_of_pc: %s\nblock_entry: %s\nhandlers: %s\nlocals: %s\nargs: %s\nret: %s sync: %d stack: %d\n"
    (ints p.Flat_prog.block_of_pc)
    (ints p.Flat_prog.block_entry)
    (ints p.Flat_prog.handler_of_block)
    (String.concat "," (Array.to_list (Array.map ty p.Flat_prog.local_types)))
    (String.concat "" (Array.to_list (Array.map bit p.Flat_prog.local_is_arg)))
    (ty p.Flat_prog.ret) p.Flat_prog.sync_charge p.Flat_prog.max_stack;
  Buffer.contents buf
