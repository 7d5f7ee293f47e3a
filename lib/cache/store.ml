module Codec = Tessera_util.Codec
module Crc32 = Tessera_util.Crc32
module Fileio = Tessera_util.Fileio

type counters = {
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable evictions : int;
  mutable corrupt_entries : int;
  mutable stale_entries : int;
}

(* An entry read from the file names its payload in the file image
   ([pos], [len]: key and value) until a lookup or the compaction checks
   the payload CRC and copies the value out; [pos = -1] marks a checked
   entry, and an entry added in this session is checked from the start. *)
type slot = {
  mutable value : string;
  mutable pos : int;
  len : int;
  mutable tick : int;
  bytes : int;
}

type t = {
  path : string;
  capacity : int;
  ro : bool;
  image : string;  (** the file as opened *)
  tbl : (int64, slot) Hashtbl.t;
  cnt : counters;
  mutable valid : int;
      (** the leading bytes of [image] a reader gets through: all of
          them, unless the header was rejected (0) or the scan stopped
          at a frame it could not get past *)
  mutable tick : int;
  mutable live_bytes : int;
  mutable dirty : bool;  (** file holds superseded/evicted/damaged frames *)
  mutable out : out_channel option;
  mutable closed : bool;
}

let magic = "TSCC"
let version = 2
let header = magic ^ String.make 1 (Char.chr version)
let frame_magic = 0xE5

(* The frame is built once; both checksums are computed where their
   bytes lie and written over the placeholder that ends the frame: the
   payload's in its low half, the header's (frame magic, length, key)
   in its high half. *)
let frame_of key value =
  let plen = String.length value + 8 in
  let buf = Buffer.create (plen + 18) in
  Codec.write_u8 buf frame_magic;
  Codec.write_varint buf plen;
  let p = Buffer.length buf in
  Codec.write_i64 buf key;
  Buffer.add_string buf value;
  Codec.write_i64 buf 0L;
  let b = Buffer.to_bytes buf in
  let s = Bytes.unsafe_to_string b in
  Bytes.set_int32_le b (p + plen) (Crc32.sub s ~pos:p ~len:plen);
  Bytes.set_int32_le b (p + plen + 4) (Crc32.sub s ~pos:0 ~len:(p + 8));
  s

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

let insert t key (s : slot) =
  (match Hashtbl.find_opt t.tbl key with
  | Some old ->
      t.live_bytes <- t.live_bytes - old.bytes;
      t.dirty <- true
  | None -> ());
  t.live_bytes <- t.live_bytes + s.bytes;
  s.tick <- next_tick t;
  Hashtbl.replace t.tbl key s

let remove t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> ()
  | Some s ->
      t.live_bytes <- t.live_bytes - s.bytes;
      t.dirty <- true;
      Hashtbl.remove t.tbl key

let corrupt t =
  t.cnt.corrupt_entries <- t.cnt.corrupt_entries + 1;
  t.dirty <- true

(* An unchecked payload is checksummed where it lies in the image, and
   only a verified value is copied out of it, once. *)
let checked t (s : slot) =
  s.pos < 0
  || Int32.equal
       (String.get_int32_le t.image (s.pos + s.len))
       (Crc32.sub t.image ~pos:s.pos ~len:s.len)
     && begin
          s.value <- String.sub t.image (s.pos + 8) (s.len - 8);
          s.pos <- -1;
          true
        end

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key (s : slot) acc ->
        match acc with
        | Some (_, (best : slot)) when best.tick <= s.tick -> acc
        | _ -> Some (key, s))
      t.tbl None
  in
  match victim with
  | None -> ()
  | Some (key, _) ->
      remove t key;
      t.cnt.evictions <- t.cnt.evictions + 1

let enforce_capacity t =
  while t.live_bytes > t.capacity && Hashtbl.length t.tbl > 0 do
    evict_lru t
  done

(* Hand-rolled scan over the raw file image: unlike {!Codec.reader} it
   must survive arbitrary garbage at any offset and resume at the next
   frame boundary when the frame length is still trustworthy.  Each
   frame's header is checksummed where it lies, so a damaged key or
   length is counted here; its payload is left for {!checked}. *)
let load t =
  let s = t.image in
  let len = String.length s in
  if len = 0 then ()
  else if len < 5 || not (String.starts_with ~prefix:magic s) then begin
    t.valid <- 0;
    corrupt t
  end
  else if Char.code s.[4] <> version then begin
    t.valid <- 0;
    t.cnt.stale_entries <- t.cnt.stale_entries + 1;
    t.dirty <- true
  end
  else begin
    (* returns (value, pos') or raises Exit on malformed/oversized input *)
    let read_varint pos =
      let rec go pos shift acc =
        if pos >= len || shift > 62 then raise Exit
        else
          let b = Char.code s.[pos] in
          let acc = acc lor ((b land 0x7f) lsl shift) in
          if b land 0x80 = 0 then (acc, pos + 1) else go (pos + 1) (shift + 7) acc
      in
      go pos 0 0
    in
    let pos = ref 5 in
    try
      while !pos < len do
        if Char.code s.[!pos] <> frame_magic then
          (* unknown framing: the rest of the file is untrustworthy *)
          raise Exit;
        let plen, p = read_varint (!pos + 1) in
        let next = p + plen + 8 in
        if plen < 0 || next <= !pos || next > len then
          (* a torn tail (e.g. crash mid-append), or a length no frame
             has: negative, or so large the boundary wraps around.  The
             scan only ever moves forward *)
          raise Exit;
        if
          plen >= 8
          && Int32.equal
               (String.get_int32_le s (p + plen + 4))
               (Crc32.sub s ~pos:!pos ~len:(p + 8 - !pos))
        then
          insert t (String.get_int64_le s p)
            { value = ""; pos = p; len = plen; tick = 0; bytes = next - !pos }
        else corrupt t;
        (* the frame length was covered by the scan either way: resume
           at the next frame boundary *)
        pos := next
      done
    with Exit ->
      t.valid <- !pos;
      corrupt t
  end

let open_ ~path ~capacity_bytes ~readonly =
  let image =
    if Sys.file_exists path then
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    else ""
  in
  let t =
    {
      path;
      capacity = capacity_bytes;
      ro = readonly;
      image;
      tbl = Hashtbl.create 64;
      cnt =
        {
          hits = 0;
          misses = 0;
          inserts = 0;
          evictions = 0;
          corrupt_entries = 0;
          stale_entries = 0;
        };
      valid = String.length image;
      tick = 0;
      live_bytes = 0;
      dirty = false;
      out = None;
      closed = false;
    }
  in
  load t;
  enforce_capacity t;
  t

let trace_key name key =
  if !Tessera_obs.Trace.enabled then
    Tessera_obs.Trace.instant ~cat:"cache"
      ~args:[ ("key", Tessera_obs.Trace.Str (Printf.sprintf "%016Lx" key)) ]
      name

(* A value the caller rejects is not a hit: the caller compiles after
   all. *)
let find t key decode =
  let miss () =
    t.cnt.misses <- t.cnt.misses + 1;
    trace_key "store_miss" key;
    None
  in
  match Hashtbl.find_opt t.tbl key with
  | None -> miss ()
  | Some s when not (checked t s) ->
      remove t key;
      corrupt t;
      trace_key "store_corrupt" key;
      miss ()
  | Some s -> (
      match decode s.value with
      | Ok v ->
          t.cnt.hits <- t.cnt.hits + 1;
          s.tick <- next_tick t;
          trace_key "store_hit" key;
          Some v
      | Error `Stale ->
          remove t key;
          t.cnt.stale_entries <- t.cnt.stale_entries + 1;
          trace_key "store_stale" key;
          miss ()
      | Error `Corrupt ->
          remove t key;
          corrupt t;
          trace_key "store_corrupt" key;
          miss ())

let out_channel t =
  match t.out with
  | Some oc -> oc
  | None ->
      if t.valid < String.length t.image then
        (* a reader stops where [load] did, so frames appended after a
           rejected header or an unreadable frame would be lost until
           [close] rewrites the file: it restarts from what is readable *)
        Fileio.atomic_write ~path:t.path (String.sub t.image 0 t.valid);
      let oc =
        open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 t.path
      in
      if out_channel_length oc = 0 then output_string oc header;
      t.out <- Some oc;
      oc

let add t key value =
  if t.ro || t.closed then ()
  else begin
    let frame = frame_of key value in
    insert t key
      { value; pos = -1; len = 0; tick = 0; bytes = String.length frame };
    t.cnt.inserts <- t.cnt.inserts + 1;
    let oc = out_channel t in
    output_string oc frame;
    flush oc;
    enforce_capacity t
  end

let entry_count t = Hashtbl.length t.tbl
let byte_size t = t.live_bytes
let counters t = t.cnt
let readonly t = t.ro

let close t =
  if not t.closed then begin
    t.closed <- true;
    (match t.out with
    | Some oc ->
        close_out oc;
        t.out <- None
    | None -> ());
    if not t.ro then begin
      (* the compaction keeps only checked payloads: one nobody looked up
         is checked now, never framed again under a fresh CRC unchecked *)
      Hashtbl.filter_map_inplace
        (fun _ s ->
          if checked t s then Some s
          else begin
            t.live_bytes <- t.live_bytes - s.bytes;
            corrupt t;
            None
          end)
        t.tbl;
      if t.dirty then begin
        let entries =
          Hashtbl.fold (fun key s acc -> (key, s) :: acc) t.tbl []
          |> List.sort (fun (_, (a : slot)) (_, (b : slot)) ->
                 compare a.tick b.tick)
        in
        let buf = Buffer.create (t.live_bytes + 16) in
        Buffer.add_string buf header;
        List.iter
          (fun (key, s) -> Buffer.add_string buf (frame_of key s.value))
          entries;
        Fileio.atomic_write ~path:t.path (Buffer.contents buf);
        t.dirty <- false
      end
    end
  end

let pp_counters fmt c =
  Format.fprintf fmt
    "hits=%d misses=%d inserts=%d evictions=%d stale=%d corrupt=%d" c.hits
    c.misses c.inserts c.evictions c.stale_entries c.corrupt_entries
