module Codec = Tessera_util.Codec
module H = Tessera_util.Hash64
module Isa = Tessera_codegen.Isa
module Isa_codec = Tessera_codegen.Isa_codec
module Meth = Tessera_il.Meth
module Plan = Tessera_opt.Plan
module Modifier = Tessera_modifiers.Modifier
module Features = Tessera_features.Features
module Target = Tessera_vm.Target

type entry = {
  code : Isa.compiled;
  level : Plan.level;
  modifier : Modifier.t;
  features : Features.t;
  compile_cycles : int;
  optimized_nodes : int;
  original_nodes : int;
}

type t = Store.t

let format_version = 1
let file_name = "code.tscc"

exception Stale_schema

(* The feature-vector layout is versioned by its dimension, written as
   the first varint of every entry payload.  Entries written under an
   older layout decode as a clean stale miss (dropped and recounted as
   [stale]) rather than a decode error.  Deliberately NOT folded into
   [format_version]: that value salts the key fingerprint, so bumping it
   would turn old entries into silent misses that linger in the file
   instead of being reclaimed.  Historical note: the first shipped
   layout had no schema varint and began with a u8 plan level (0..4) —
   values a [Features.dim]-valued varint can never take, so pre-schema
   entries are detected as stale too. *)
let feature_schema = Features.dim

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
  Codec.write_varint buf feature_schema;
  Codec.write_u8 buf (Plan.level_index e.level);
  Codec.write_i64 buf (Modifier.to_bits e.modifier);
  let fs = Features.to_array e.features in
  Codec.write_varint buf (Array.length fs);
  Array.iter (fun v -> Codec.write_varint buf v) fs;
  Codec.write_varint buf e.compile_cycles;
  Codec.write_varint buf e.optimized_nodes;
  Codec.write_varint buf e.original_nodes;
  Isa_codec.encode buf e.code;
  Buffer.contents buf

let decode_entry s =
  let r = Codec.reader_of_string s in
  let schema = Codec.read_varint ~what:"feature schema" r in
  if schema <> feature_schema then raise Stale_schema;
  let li = Codec.read_u8 ~what:"level" r in
  if li >= Array.length Plan.levels then
    raise (Isa_codec.Malformed "entry: bad level");
  let level = Plan.level_of_index li in
  let modifier = Modifier.of_bits (Codec.read_i64 ~what:"modifier" r) in
  let n = Codec.read_varint ~what:"feature count" r in
  if n <> Features.dim then raise (Isa_codec.Malformed "entry: bad features");
  let features =
    Features.of_array
      (Array.init n (fun _ -> Codec.read_varint ~what:"feature" r))
  in
  let compile_cycles = Codec.read_varint ~what:"compile cycles" r in
  let optimized_nodes = Codec.read_varint ~what:"optimized nodes" r in
  let original_nodes = Codec.read_varint ~what:"original nodes" r in
  let code = Isa_codec.decode r in
  if not (Codec.at_end r) then
    raise (Isa_codec.Malformed "entry: trailing bytes");
  { code; level; modifier; features; compile_cycles; optimized_nodes;
    original_nodes }

let lookup t ~key ~level ~modifier =
  match Store.find t key with
  | None -> None
  | Some bytes -> (
      match decode_entry bytes with
      | exception Stale_schema ->
          (* written under an older feature layout: a clean generational
             miss, not damage *)
          Store.drop_stale t key;
          None
      | exception _ ->
          (* CRC-clean but undecodable: treat exactly like disk damage *)
          Store.drop_corrupt t key;
          None
      | e ->
          if e.level = level && Modifier.equal e.modifier modifier then Some e
          else begin
            (* a fingerprint collision or codec drift: the entry is
               well-formed, just not the code we asked for *)
            Store.drop_stale t key;
            None
          end)

let store t ~key e = Store.add t key (encode_entry e)

let entry_count = Store.entry_count
let byte_size = Store.byte_size
let readonly = Store.readonly
let counters = Store.counters
let pp_counters = Store.pp_counters
let close = Store.close
