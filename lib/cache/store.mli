(** Corruption-safe single-file key/value store with an in-memory LRU
    index — the on-disk layer of the persistent code cache.

    File layout (version 2): a 5-byte header (magic ["TSCC"], format
    version byte [2]) followed by a sequence of frames, each

    {v  0xE5 | varint payload_len | payload | crc32(payload) | crc32(header)  v}

    where the payload is an 8-byte little-endian key followed by the
    value bytes, the header is the frame's bytes up to the payload's
    value (frame magic, length varint, key), and each checksum is a
    little-endian 32-bit word: together the 8-byte trailer.

    What is checked, and when:
    - {b open} reads the file once and checks its framing: the file
      header (bad magic counts one corrupt entry, another version one
      stale entry, and either drops the whole file), each frame's
      magic, length and bounds (a torn tail or a length no frame has
      ends the scan, counted corrupt), and each frame's header checksum
      (a damaged key or length counts one corrupt entry, and the scan
      resumes at the next frame boundary).  It indexes each key to its
      payload in the file image and checks or copies no payload;
    - the {b first [find]} of a key checks its payload checksum and
      copies the value out of the image once.  A mismatch drops the
      entry and counts a corrupt miss, like a value [decode] rejects;
    - {b compaction} ([close] of a writable store) first checks every
      payload nobody looked up, dropping and counting those that fail,
      so a payload is never framed again under a fresh checksum
      unchecked.

    Every damaged byte is thus counted once its entry is read, and a
    writable store counts all of them by the time it closes: a cache
    can only ever make a run faster, never wronger.  A file of another
    version (a version-1 file, whose trailer held only the payload
    checksum) reads as one stale entry and is replaced by the first
    [add] or the compaction.

    New entries are appended (and flushed) immediately so they survive a
    crash mid-run; duplicate keys are superseded by the later frame.
    When the file holds bytes no reader gets through — a rejected file
    header, or a frame that ended the scan — the first append first
    replaces it with its readable part, so what is appended is found by
    the next reader.  [close] compacts live entries through
    {!Tessera_util.Fileio}'s atomic write, reclaiming superseded/evicted
    frames and scrubbing any damage found.  Capacity is enforced in frame
    bytes with least-recently-{e used} eviction (lookups refresh
    recency). *)

type counters = {
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable evictions : int;
  mutable corrupt_entries : int;
      (** damage: bad file magic, torn frames, header or payload
          checksum mismatches, undecodable payloads rejected by
          {!find}'s [decode] *)
  mutable stale_entries : int;
      (** well-formed but outdated: format-version mismatch, or a
          metadata mismatch rejected by {!find}'s [decode] *)
}

type t

val open_ : path:string -> capacity_bytes:int -> readonly:bool -> t
(** Reads and indexes [path] (a missing file is an empty store),
    checking framing and frame headers only; the store keeps the file
    image until it is dropped.  Never raises on damaged content — damage
    is counted and skipped. *)

val find :
  t -> int64 -> (string -> ('a, [ `Stale | `Corrupt ]) result) -> 'a option
(** [find t key decode] looks [key] up, checks its payload checksum if
    no lookup has yet, and lets [decode] check its value before anything
    is counted.  [Ok v] counts a hit and refreshes the entry's recency.
    A checksum mismatch, or [Error reason], removes the entry, counts it
    [corrupt] (damaged, or a payload that passed the checksum but does
    not decode) or [stale] (outdated or mismatched metadata), and counts
    the lookup as a miss, like an absent key: the caller compiles after
    all.  Pass [Result.ok] to take any value. *)

val add : t -> int64 -> string -> unit
(** Insert or supersede; appends a frame and evicts LRU entries while
    over capacity.  A no-op (not even a counter) on read-only stores. *)

val entry_count : t -> int
(** Live entries, counting those whose payload no lookup has checked
    yet (damage in them is counted when they are read). *)

val byte_size : t -> int
(** Live frame bytes (what capacity bounds). *)

val counters : t -> counters
val readonly : t -> bool

val close : t -> unit
(** Unless read-only: checks every payload no lookup checked, then
    compacts to disk (atomic replace) if anything was superseded,
    evicted or found damaged.  Idempotent. *)

val pp_counters : Format.formatter -> counters -> unit
