(** The persistent compiled-code cache: warm-start for the simulated JIT.

    Entries are whole compilation results — the compiled program
    ({!Tessera_flat.Prog.t}, the one form compiled code has from code
    generation to disk to execution) plus the level/modifier/cycle
    metadata the engine tracks per installed compilation — keyed by a
    content fingerprint of
    (method IL hash, target, level, modifier, cache-format version).
    Anything that could change the generated code changes the key, so
    invalidation is structural: there is nothing to flush when a method,
    plan, or target changes, the old entries simply stop being found and
    age out of the LRU.

    A cache hit must be {e exactly} as trustworthy as a fresh
    compilation: an entry whose bytes are damaged (framing or a frame
    header's CRC, checked when the cache opens; the payload's CRC,
    checked at the entry's first lookup; codec errors), whose program
    fails {!Tessera_flat.Prog.verify}, or whose metadata disagrees with
    the request (fingerprint collision) is dropped, counted, and the
    caller recompiles — cache trouble can never change program
    behaviour. *)

module Meth = Tessera_il.Meth
module Plan = Tessera_opt.Plan
module Modifier = Tessera_modifiers.Modifier
module Target = Tessera_vm.Target

type entry = {
  code : Tessera_flat.Prog.t;
      (** the fused, verified program the engine runs *)
  level : Plan.level;
  modifier : Modifier.t;
  compile_cycles : int;
      (** what the original compilation cost — what a warm start saves *)
  optimized_nodes : int;
  original_nodes : int;
}
(** One compilation: [Tessera_jit.Compiler.compilation] is this type
    (the cache cannot depend on the JIT), so what the engine installs is
    what the cache stores, with nothing converted in between. *)

type t

val format_version : int
(** Bump on any codec or fingerprint change; old files then read as
    stale (version byte) or simply never hit (fingerprint salt). *)

val entry_layout : int
(** Entry-layout version, written as the first varint of every entry
    payload.  An entry carrying a different value decodes as a clean
    stale miss: dropped, counted under [stale] (and the lookup under
    [misses]), recompiled and superseded.  The older layouts all start
    with a byte this value never takes: a plan-level byte in [0..4] (the
    first layout), the feature-vector dimension 76 (the second, which
    also carried the method's feature vector), or 5 (the third, whose
    code was a stack-machine form translated to the flat one at its
    first run).  Kept out of {!format_version} on purpose, since that
    salts the lookup key and old entries would otherwise linger
    unreclaimed. *)

val file_name : string
(** Name of the store file inside the cache directory. *)

val create : dir:string -> ?capacity_mb:int -> ?readonly:bool -> unit -> t
(** Opens (creating [dir] if needed and not read-only) the store at
    [dir/]{!file_name}.  [capacity_mb] defaults to 64. *)

val fingerprint :
  target:Target.t ->
  level:Plan.level ->
  modifier:Modifier.t ->
  Meth.t ->
  int64
(** Stable across processes; includes {!format_version}. *)

val lookup :
  t ->
  key:int64 ->
  level:Plan.level ->
  modifier:Modifier.t ->
  methods:int ->
  entry option
(** Decode-and-verify: a hit's program has passed
    {!Tessera_flat.Prog.verify}, and every call in it names a method id
    below [methods] (the engine's program's method count).  Corrupt
    payloads, programs that fail the verifier or call outside the
    program, other entry layouts and metadata mismatches return [None]
    (dropped, counted [corrupt] or [stale], and counted as a miss, not a
    hit); never raises. *)

val store : t -> key:int64 -> entry -> unit
(** Write-back after a successful compilation; no-op when read-only. *)

val entry_count : t -> int
val byte_size : t -> int
val readonly : t -> bool
val counters : t -> Store.counters
val pp_counters : Format.formatter -> Store.counters -> unit

val close : t -> unit
(** Compacts and persists; idempotent. *)

(** {1 Entry codec} (exposed for the round-trip properties) *)

val encode_entry : entry -> string
(** The program is written unfused: each instruction as its
    [Prog.kind], static cost and operands.  Raises [Invalid_argument] on
    a program that is not compiled code. *)

val decode_entry : string -> entry
(** Accepts only the opcodes compiled code holds, checks every count
    against the bytes left before allocating, then verifies the program
    and fuses it again.  Raises on malformed input (the exceptions
    {!lookup} absorbs). *)
