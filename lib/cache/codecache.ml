module Codec = Tessera_util.Codec
module H = Tessera_util.Hash64
module Isa = Tessera_codegen.Isa
module Isa_codec = Tessera_codegen.Isa_codec
module Meth = Tessera_il.Meth
module Plan = Tessera_opt.Plan
module Modifier = Tessera_modifiers.Modifier
module Target = Tessera_vm.Target

type entry = {
  code : Isa.compiled;
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

(* The first varint of every entry payload.  Entries of the older
   layouts begin with a plan level 0..4 or with the varint 76, so this
   value must be neither for them to read as stale. *)
let entry_layout = 5

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

let encode_entry e =
  let buf = Buffer.create 512 in
  Codec.write_varint buf entry_layout;
  Codec.write_u8 buf (Plan.level_index e.level);
  Codec.write_i64 buf (Modifier.to_bits e.modifier);
  Codec.write_varint buf e.compile_cycles;
  Codec.write_varint buf e.optimized_nodes;
  Codec.write_varint buf e.original_nodes;
  Isa_codec.encode buf e.code;
  Buffer.contents buf

let decode_entry s =
  let r = Codec.reader_of_string s in
  let layout = Codec.read_varint ~what:"entry layout" r in
  if layout <> entry_layout then raise Stale_schema;
  let li = Codec.read_u8 ~what:"level" r in
  if li >= Array.length Plan.levels then
    raise (Isa_codec.Malformed "entry: bad level");
  let level = Plan.level_of_index li in
  let modifier = Modifier.of_bits (Codec.read_i64 ~what:"modifier" r) in
  let compile_cycles = Codec.read_varint ~what:"compile cycles" r in
  let optimized_nodes = Codec.read_varint ~what:"optimized nodes" r in
  let original_nodes = Codec.read_varint ~what:"original nodes" r in
  let code = Isa_codec.decode r in
  if not (Codec.at_end r) then
    raise (Isa_codec.Malformed "entry: trailing bytes");
  { code; level; modifier; compile_cycles; optimized_nodes; original_nodes }

let lookup t ~key ~level ~modifier =
  Store.find t key (fun bytes ->
      match decode_entry bytes with
      | exception Stale_schema ->
          (* written under another entry layout: a clean generational
             miss, not damage *)
          Error `Stale
      | exception _ ->
          (* CRC-clean but undecodable: treat exactly like disk damage *)
          Error `Corrupt
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
