module Codec = Tessera_util.Codec
module H = Tessera_util.Hash64
module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Meth = Tessera_il.Meth
module Values = Tessera_vm.Values
module Semantics = Tessera_vm.Semantics
module Prog = Tessera_flat.Prog
module Plan = Tessera_opt.Plan
module Modifier = Tessera_modifiers.Modifier
module Target = Tessera_vm.Target

type entry = {
  code : Prog.t;
  level : Plan.level;
  modifier : Modifier.t;
  compile_cycles : int;
  optimized_nodes : int;
  original_nodes : int;
}

type t = Store.t

let format_version = 1
let file_name = "code.tscc"

exception Stale_schema
exception Malformed of string

let fail what = raise (Malformed what)

(* The first varint of every entry payload.  Entries of the older
   layouts begin with a plan level 0..4, with the varint 76 or with 5,
   so this value must be none of them for them to read as stale. *)
let entry_layout = 6

let create ~dir ?(capacity_mb = 64) ?(readonly = false) () =
  if (not readonly) && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Store.open_
    ~path:(Filename.concat dir file_name)
    ~capacity_bytes:(capacity_mb * 1024 * 1024)
    ~readonly

let fingerprint ~target ~level ~modifier m =
  let acc = H.string H.init "tessera-codecache" in
  let acc = H.int acc format_version in
  let acc = H.int64 acc (Meth.fingerprint m) in
  let acc = H.string acc target.Target.name in
  let acc = H.int acc (Plan.level_index level) in
  H.int64 acc (Modifier.to_bits modifier)

(* -- program codec ----------------------------------------------------
   An entry holds the unfused program: a superinstruction is written as
   its first half ([Prog.first_half]; its other halves are the next
   slots already), and the decoder fuses again, so the bytes do not
   depend on the fusion tables.
   An instruction is its [Prog.kind] as the tag, its static cost, then
   its operands; the decoder knows only the kinds compiled code holds.
   [block_of_pc] is implied by the block entries, which the verifier
   requires to rise from pc 0.  Every count is checked against the
   bytes left before anything is allocated for it: each element takes
   at least one byte. *)

let write_ty buf ty = Codec.write_u8 buf (Types.index ty)

let read_ty r =
  let i = Codec.read_u8 ~what:"type" r in
  if i >= Types.count then fail "bad type index";
  Types.of_index i

let write_bool buf b = Codec.write_u8 buf (Bool.to_int b)

let read_bool r =
  match Codec.read_u8 ~what:"flag" r with
  | 0 -> false
  | 1 -> true
  | _ -> fail "bad flag"

let read_op r =
  let name = Codec.read_string ~what:"opcode" r in
  match Opcode.of_name name with Some op -> op | None -> fail ("opcode " ^ name)

(* tag and static cost: the head of every instruction *)
let head buf i c =
  Codec.write_u8 buf (Prog.kind i);
  Codec.write_varint buf c

let write_instr buf (i : Prog.instr) =
  let i = Prog.first_half i in
  match i with
  | Prog.Begin c | C_elem_load c | C_elem_store c | C_monitor c
  | C_bounds_chk c | C_arr_copy c | C_arr_cmp c | C_arr_len c | C_pop c
  | C_ret_void c | C_ret_val c | C_raise c ->
      head buf i c
  | Const (c, k) | Load_local (c, k) | New_obj (c, k) | C_field_load (c, k)
  | C_field_store (c, k) | C_checkcast (c, k) | C_instance_of (c, k)
  | C_jmp (c, k) | C_br_false (c, k) ->
      head buf i c;
      Codec.write_varint buf k
  | C_inc_local (c, s, d, ty) ->
      head buf i c;
      Codec.write_varint buf s;
      Codec.write_i64 buf d;
      write_ty buf ty
  | C_store_local (c, s, ty) ->
      head buf i c;
      Codec.write_varint buf s;
      write_ty buf ty
  | C_binop (c, k) ->
      head buf i c;
      Codec.write_string buf (Opcode.name (Semantics.kernel_op k));
      write_ty buf (Semantics.kernel_ty k)
  | C_cast_to (c, k, ty) ->
      head buf i c;
      Codec.write_string buf (Opcode.name (Opcode.Cast k));
      write_ty buf ty
  | C_negate (c, ty) | C_new_arr (c, ty) | C_new_multi (c, ty) ->
      head buf i c;
      write_ty buf ty
  | C_invoke (c, callee, argc, pushes) ->
      head buf i c;
      Codec.write_varint buf callee;
      Codec.write_varint buf argc;
      write_bool buf pushes
  | C_mixed (c, argc, ty, pushes) ->
      head buf i c;
      Codec.write_varint buf argc;
      write_ty buf ty;
      write_bool buf pushes
  | i -> invalid_arg ("Codecache: not compiled code: " ^ Prog.kind_name (Prog.kind i))

let operand r = Codec.read_varint ~what:"operand" r

let read_instr r : Prog.instr =
  let tag = Codec.read_u8 ~what:"instr tag" r in
  let c = Codec.read_varint ~what:"cost" r in
  match tag with
  | 1 -> Begin c
  | 3 -> Const (c, operand r)
  | 4 -> Load_local (c, operand r)
  | 6 -> New_obj (c, operand r)
  | 49 ->
      let s = operand r in
      let d = Codec.read_i64 ~what:"delta" r in
      C_inc_local (c, s, d, read_ty r)
  | 50 ->
      let s = operand r in
      C_store_local (c, s, read_ty r)
  | 51 -> C_field_load (c, operand r)
  | 52 -> C_field_store (c, operand r)
  | 53 -> C_elem_load c
  | 54 -> C_elem_store c
  | 55 -> (
      let op = read_op r in
      let ty = read_ty r in
      match Semantics.kernel op ty with
      | Some k -> C_binop (c, k)
      | None -> fail "binop: not a binary opcode")
  | 56 -> C_negate (c, read_ty r)
  | 57 -> (
      match read_op r with
      | Opcode.Cast k -> C_cast_to (c, k, read_ty r)
      | _ -> fail "cast: not a cast")
  | 58 -> C_checkcast (c, operand r)
  | 59 -> C_new_arr (c, read_ty r)
  | 60 -> C_new_multi (c, read_ty r)
  | 61 -> C_instance_of (c, operand r)
  | 62 -> C_monitor c
  | 63 ->
      let callee = operand r in
      let argc = operand r in
      C_invoke (c, callee, argc, read_bool r)
  | 64 ->
      let argc = operand r in
      let ty = read_ty r in
      C_mixed (c, argc, ty, read_bool r)
  | 65 -> C_bounds_chk c
  | 66 -> C_arr_copy c
  | 67 -> C_arr_cmp c
  | 68 -> C_arr_len c
  | 69 -> C_pop c
  | 70 -> C_jmp (c, operand r)
  | 71 -> C_br_false (c, operand r)
  | 72 -> C_ret_void c
  | 73 -> C_ret_val c
  | 74 -> C_raise c
  | t -> fail (Printf.sprintf "instr tag %d" t)

let write_array buf f a =
  Codec.write_varint buf (Array.length a);
  Array.iter f a

let read_count r what =
  let n = Codec.read_varint ~what r in
  if n > Codec.reader_length r - Codec.reader_pos r then
    fail (what ^ ": count exceeds the payload");
  n

let read_array r what f = Array.init (read_count r what) (fun _ -> f r)

let write_program buf (p : Prog.t) =
  Codec.write_string buf p.method_name;
  write_ty buf p.ret;
  Codec.write_varint buf p.sync_charge;
  (* a local's type index and argument flag in one byte *)
  Codec.write_varint buf (Array.length p.local_types);
  Array.iteri
    (fun i ty ->
      Codec.write_u8 buf ((2 * Types.index ty) + Bool.to_int p.local_is_arg.(i)))
    p.local_types;
  write_array buf
    (function
      | Values.Int_v bits ->
          Codec.write_u8 buf 0;
          Codec.write_i64 buf bits
      | Values.Float_v f ->
          Codec.write_u8 buf 1;
          Codec.write_i64 buf (Int64.bits_of_float f)
      | _ -> invalid_arg "Codecache: pool holds a non-constant")
    p.pool;
  write_array buf (write_instr buf) p.instrs;
  write_array buf (Codec.write_varint buf) p.block_entry;
  (* -1 is "no handler": shifted by one for the varint *)
  Array.iter (fun h -> Codec.write_varint buf (h + 1)) p.handler_of_block

let read_program r : Prog.t =
  let method_name = Codec.read_string ~what:"method name" r in
  let ret = read_ty r in
  let sync_charge = Codec.read_varint ~what:"sync charge" r in
  let nlocals = read_count r "locals" in
  let local_is_arg = Array.make nlocals false in
  let local_types =
    Array.init nlocals (fun i ->
        let b = Codec.read_u8 ~what:"local" r in
        if b lsr 1 >= Types.count then fail "local: bad type index";
        local_is_arg.(i) <- b land 1 = 1;
        Types.of_index (b lsr 1))
  in
  let pool =
    read_array r "pool" (fun r ->
        match Codec.read_u8 ~what:"constant kind" r with
        | 0 -> Values.Int_v (Codec.read_i64 ~what:"constant" r)
        | 1 -> Values.Float_v (Int64.float_of_bits (Codec.read_i64 ~what:"constant" r))
        | _ -> fail "bad constant kind")
  in
  let instrs = read_array r "instrs" read_instr in
  let block_entry = read_array r "blocks" (Codec.read_varint ~what:"block entry") in
  let handler_of_block =
    Array.map (fun _ -> Codec.read_varint ~what:"handler" r - 1) block_entry
  in
  let p =
    {
      Prog.method_name;
      instrs;
      pool;
      block_of_pc =
        Prog.owner_blocks ~code_size:(Array.length instrs) block_entry;
      block_entry;
      handler_of_block;
      local_types;
      local_is_arg;
      ret;
      sync_charge;
      max_stack = 0;
      fused_pairs = 0;
    }
  in
  match Prog.verify p with
  | Ok max_stack -> Prog.fuse_in_place { p with max_stack }
  | Error e -> fail e

(* -- entries ---------------------------------------------------------- *)

let encode_entry e =
  let buf = Buffer.create 512 in
  Codec.write_varint buf entry_layout;
  Codec.write_u8 buf (Plan.level_index e.level);
  Codec.write_i64 buf (Modifier.to_bits e.modifier);
  Codec.write_varint buf e.compile_cycles;
  Codec.write_varint buf e.optimized_nodes;
  Codec.write_varint buf e.original_nodes;
  write_program buf e.code;
  Buffer.contents buf

let decode_entry s =
  let r = Codec.reader_of_string s in
  let layout = Codec.read_varint ~what:"entry layout" r in
  if layout <> entry_layout then raise Stale_schema;
  let li = Codec.read_u8 ~what:"level" r in
  if li >= Array.length Plan.levels then fail "entry: bad level";
  let level = Plan.level_of_index li in
  let modifier = Modifier.of_bits (Codec.read_i64 ~what:"modifier" r) in
  let compile_cycles = Codec.read_varint ~what:"compile cycles" r in
  let optimized_nodes = Codec.read_varint ~what:"optimized nodes" r in
  let original_nodes = Codec.read_varint ~what:"original nodes" r in
  let code = read_program r in
  if not (Codec.at_end r) then fail "entry: trailing bytes";
  { code; level; modifier; compile_cycles; optimized_nodes; original_nodes }

(* every call names one of the program's methods: the verifier checks
   the program's structure, not the engine's method table (and a varint
   of nine bytes can decode to a negative callee) *)
let calls_within ~methods (p : Prog.t) =
  Array.for_all
    (function
      | Prog.C_invoke (_, callee, _, _) -> 0 <= callee && callee < methods
      | _ -> true)
    p.instrs

let lookup t ~key ~level ~modifier ~methods =
  Store.find t key (fun bytes ->
      match decode_entry bytes with
      | exception Stale_schema ->
          (* written under another entry layout: a clean generational
             miss, not damage *)
          Error `Stale
      | exception _ ->
          (* CRC-clean but undecodable or unverifiable: treat exactly
             like disk damage *)
          Error `Corrupt
      | e when not (calls_within ~methods e.code) -> Error `Corrupt
      | e ->
          if e.level = level && Modifier.equal e.modifier modifier then Ok e
          else
            (* a fingerprint collision or codec drift: the entry is
               well-formed, just not the code we asked for *)
            Error `Stale)

let store t ~key e = Store.add t key (encode_entry e)

let entry_count = Store.entry_count
let byte_size = Store.byte_size
let readonly = Store.readonly
let counters = Store.counters
let pp_counters = Store.pp_counters
let close = Store.close
