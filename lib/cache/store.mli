(** Corruption-safe single-file key/value store with an in-memory LRU
    index — the on-disk layer of the persistent code cache.

    File layout: a 5-byte header (magic ["TSCC"], format-version byte)
    followed by a sequence of frames, each

    {v  0xE5 | varint payload_len | payload | crc32(payload) as i64  v}

    where the payload is an 8-byte little-endian key followed by the
    value bytes.  Every anomaly on load — bad magic, bad version, torn
    frame (a negative or wrapping length included), CRC mismatch — drops
    the affected entries (never the whole process), bumps {!counters},
    and lets the reader carry on with whatever verified intact: a cache
    can only ever make a run faster, never wronger.

    New entries are appended (and flushed) immediately so they survive a
    crash mid-run; duplicate keys are superseded by the later frame.
    [close] compacts live entries through {!Tessera_util.Fileio}'s
    atomic write, reclaiming superseded/evicted frames and scrubbing any
    damage found on load.  Capacity is enforced in frame bytes with
    least-recently-{e used} eviction (lookups refresh recency). *)

type counters = {
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable evictions : int;
  mutable corrupt_entries : int;
      (** load/decode anomalies: torn frames, CRC mismatches, bad magic,
          undecodable payloads rejected by {!find}'s [decode] *)
  mutable stale_entries : int;
      (** well-formed but outdated: format-version mismatch, or a
          metadata mismatch rejected by {!find}'s [decode] *)
}

type t

val open_ : path:string -> capacity_bytes:int -> readonly:bool -> t
(** Loads and verifies [path] (a missing file is an empty store).
    Never raises on damaged content — damage is counted and skipped. *)

val find :
  t -> int64 -> (string -> ('a, [ `Stale | `Corrupt ]) result) -> 'a option
(** [find t key decode] looks [key] up and lets [decode] check its value
    before anything is counted.  [Ok v] counts a hit and refreshes the
    entry's recency.  [Error reason] removes the entry, counts it
    [stale] (outdated or mismatched metadata) or [corrupt] (a payload
    that passed the CRC but does not decode), and counts the lookup as a
    miss, like an absent key: the caller compiles after all.  Pass
    [Result.ok] to take any value. *)

val add : t -> int64 -> string -> unit
(** Insert or supersede; appends a frame and evicts LRU entries while
    over capacity.  A no-op (not even a counter) on read-only stores. *)

val entry_count : t -> int

val byte_size : t -> int
(** Live frame bytes (what capacity bounds). *)

val counters : t -> counters
val readonly : t -> bool

val close : t -> unit
(** Compacts to disk (atomic replace) unless read-only; idempotent. *)

val pp_counters : Format.formatter -> counters -> unit
