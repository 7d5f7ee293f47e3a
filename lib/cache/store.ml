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

type slot = { mutable value : string; mutable tick : int; mutable bytes : int }

type t = {
  path : string;
  capacity : int;
  ro : bool;
  tbl : (int64, slot) Hashtbl.t;
  cnt : counters;
  mutable tick : int;
  mutable live_bytes : int;
  mutable dirty : bool;  (** file holds superseded/evicted/damaged frames *)
  mutable out : out_channel option;
  mutable closed : bool;
}

let magic = "TSCC"
let version = 1
let frame_magic = 0xE5

(* The frame is built once; its payload checksum is computed where the
   payload lies and written over the placeholder that ends the frame. *)
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
  let crc = Crc32.sub (Bytes.unsafe_to_string b) ~pos:p ~len:plen in
  Bytes.set_int64_le b (p + plen) (Int64.of_int32 crc);
  Bytes.unsafe_to_string b

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

let insert t key value bytes =
  (match Hashtbl.find_opt t.tbl key with
  | Some old ->
      t.live_bytes <- t.live_bytes - old.bytes + bytes;
      t.dirty <- true;
      old.value <- value;
      old.bytes <- bytes;
      old.tick <- next_tick t
  | None ->
      t.live_bytes <- t.live_bytes + bytes;
      Hashtbl.replace t.tbl key { value; tick = next_tick t; bytes });
  ()

let remove t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> ()
  | Some s ->
      t.live_bytes <- t.live_bytes - s.bytes;
      t.dirty <- true;
      Hashtbl.remove t.tbl key

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
   payload is checksummed where it lies; only a verified value is copied
   out of the image. *)
let load t s =
  let len = String.length s in
  if len = 0 then ()
  else if len < 5 || not (String.starts_with ~prefix:magic s) then begin
    t.cnt.corrupt_entries <- t.cnt.corrupt_entries + 1;
    t.dirty <- true
  end
  else if Char.code s.[4] <> version then begin
    t.cnt.stale_entries <- t.cnt.stale_entries + 1;
    t.dirty <- true
  end
  else begin
    let corrupt () =
      t.cnt.corrupt_entries <- t.cnt.corrupt_entries + 1;
      t.dirty <- true
    in
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
    (try
       while !pos < len do
         if Char.code s.[!pos] <> frame_magic then begin
           (* unknown framing: the rest of the file is untrustworthy *)
           corrupt ();
           raise Exit
         end;
         let plen, p = read_varint (!pos + 1) in
         let next = p + plen + 8 in
         if plen < 0 || next <= !pos || next > len then begin
           (* a torn tail (e.g. crash mid-append), or a length no frame
              has: negative, or so large the boundary wraps around.  The
              scan only ever moves forward *)
           corrupt ();
           raise Exit
         end;
         if
           plen >= 8
           && Int64.equal
                (String.get_int64_le s (p + plen))
                (Int64.of_int32 (Crc32.sub s ~pos:p ~len:plen))
         then
           insert t (String.get_int64_le s p)
             (String.sub s (p + 8) (plen - 8))
             (next - !pos)
         else corrupt ();
         (* the frame length was covered by the scan either way: resume
            at the next frame boundary *)
         pos := next
       done
     with Exit -> ())
  end

let open_ ~path ~capacity_bytes ~readonly =
  let t =
    {
      path;
      capacity = capacity_bytes;
      ro = readonly;
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
      tick = 0;
      live_bytes = 0;
      dirty = false;
      out = None;
      closed = false;
    }
  in
  (if Sys.file_exists path then
     let ic = open_in_bin path in
     Fun.protect
       ~finally:(fun () -> close_in ic)
       (fun () ->
         load t (really_input_string ic (in_channel_length ic))));
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
          t.cnt.corrupt_entries <- t.cnt.corrupt_entries + 1;
          trace_key "store_corrupt" key;
          miss ())

let out_channel t =
  match t.out with
  | Some oc -> oc
  | None ->
      let fresh = not (Sys.file_exists t.path) in
      let oc =
        open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 t.path
      in
      if fresh then begin
        output_string oc magic;
        output_char oc (Char.chr version)
      end;
      t.out <- Some oc;
      oc

let add t key value =
  if t.ro || t.closed then ()
  else begin
    let frame = frame_of key value in
    insert t key value (String.length frame);
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
    if (not t.ro) && t.dirty then begin
      let entries =
        Hashtbl.fold (fun key s acc -> (key, s) :: acc) t.tbl []
        |> List.sort (fun (_, (a : slot)) (_, (b : slot)) ->
               compare a.tick b.tick)
      in
      let buf = Buffer.create (t.live_bytes + 16) in
      Buffer.add_string buf magic;
      Codec.write_u8 buf version;
      List.iter
        (fun (key, s) -> Buffer.add_string buf (frame_of key s.value))
        entries;
      Fileio.atomic_write ~path:t.path (Buffer.contents buf);
      t.dirty <- false
    end
  end

let pp_counters fmt c =
  Format.fprintf fmt
    "hits=%d misses=%d inserts=%d evictions=%d stale=%d corrupt=%d" c.hits
    c.misses c.inserts c.evictions c.stale_entries c.corrupt_entries
