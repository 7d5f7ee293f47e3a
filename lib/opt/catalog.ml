module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Node = Tessera_il.Node
module Block = Tessera_il.Block
module Meth = Tessera_il.Meth
module Program = Tessera_il.Program

type ctx = { program : Program.t }

type weight = Cheap | Medium | Expensive | Very_expensive

type traits = {
  nodes : int;
  has_loops : bool;
  has_allocs : bool;
  has_sync : bool;
  has_arrays : bool;
  has_handlers : bool;
  has_calls : bool;
  has_casts : bool;
  has_decimals : bool;
  has_longdouble : bool;
  has_fp : bool;
  has_objects : bool;
  has_mixed : bool;
  has_heap_loads : bool;
  has_throws : bool;
  uses_bigdecimal : bool;
  uses_unsafe : bool;
}

(* [traits_of] is one walk over the method that allocates nothing but
   its result: every trait is a bit of one accumulator, and the node
   count sits above the bits. *)
let t_allocs = 1
let t_sync = 2
let t_arrays = 4
let t_calls = 8
let t_casts = 16
let t_decimals = 32
let t_longdouble = 64
let t_fp = 128
let t_objects = 256
let t_mixed = 512
let t_heap_loads = 1024
let t_throws = 2048
let t_loops = 4096
let t_handlers = 8192
let one_node = 16384

let node_traits (n : Node.t) =
  let of_type =
    match n.Node.ty with
    | Types.Float_ | Types.Double -> t_fp
    | Types.Long_double -> t_fp lor t_longdouble
    | Types.Packed_decimal | Types.Zoned_decimal -> t_decimals
    | Types.Object_ -> t_objects
    | Types.Address -> t_arrays
    | _ -> 0
  in
  let of_op =
    match n.Node.op with
    | Opcode.New | Opcode.Newarray | Opcode.Newmultiarray -> t_allocs
    | Opcode.Synchronization _ -> t_sync
    | Opcode.Arrayop _ -> t_arrays
    | Opcode.Call -> t_calls
    | Opcode.Cast _ -> t_casts
    | Opcode.Mixedop -> t_mixed
    | Opcode.Instanceof -> t_objects
    | Opcode.Throw_op -> t_throws
    | Opcode.Load when Array.length n.Node.args > 0 -> t_heap_loads
    | _ -> 0
  in
  of_type lor of_op

let rec tree_traits acc (n : Node.t) =
  let args = n.Node.args in
  let acc = ref ((acc lor node_traits n) + one_node) in
  for i = 0 to Array.length args - 1 do
    acc := tree_traits !acc (Array.unsafe_get args i)
  done;
  !acc

let back_edge (b : Block.t) t = if t <= b.Block.id then t_loops else 0

let block_traits acc (b : Block.t) =
  let acc = List.fold_left tree_traits acc b.Block.stmts in
  let acc =
    match b.Block.handler with Some _ -> acc lor t_handlers | None -> acc
  in
  match b.Block.term with
  | Block.Goto t -> acc lor back_edge b t
  | Block.If { cond; if_true; if_false } ->
      tree_traits acc cond lor back_edge b if_true lor back_edge b if_false
  | Block.Return None -> acc
  | Block.Return (Some n) -> tree_traits acc n
  | Block.Throw n -> tree_traits acc n lor t_throws

let traits_of (m : Meth.t) =
  let attrs = m.Meth.attrs in
  let acc = if attrs.Meth.synchronized then t_sync else 0 in
  let acc = Array.fold_left block_traits acc m.Meth.blocks in
  let has t = acc land t <> 0 in
  {
    nodes = acc / one_node;
    has_loops = has t_loops;
    has_allocs = has t_allocs;
    has_sync = has t_sync;
    has_arrays = has t_arrays;
    has_handlers = has t_handlers;
    has_calls = has t_calls;
    has_casts = has t_casts;
    has_decimals = has t_decimals;
    has_longdouble = has t_longdouble;
    has_fp = has t_fp;
    has_objects = has t_objects;
    has_mixed = has t_mixed;
    has_heap_loads = has t_heap_loads;
    has_throws = has t_throws;
    uses_bigdecimal = attrs.Meth.uses_bigdecimal;
    uses_unsafe = attrs.Meth.uses_unsafe;
  }

type entry = {
  index : int;
  name : string;
  weight : weight;
  applicable : traits -> bool;
  run : ctx -> Meth.t -> Meth.t;
  quality_hint : int;
}

let always (_ : traits) = true

let pure f = fun (_ : ctx) m -> f m

let entry ?(hint = 0) index name weight applicable run =
  { index; name; weight; applicable; run; quality_hint = hint }

let identity_pass (_ : ctx) m = m

let all =
  [|
    entry 0 "constantFolding" Cheap always (pure Passes_local.const_fold);
    entry 1 "localConstantPropagation" Cheap always (pure Passes_block.local_const_prop);
    entry 2 "rematerializeConstants" Cheap
      (fun t -> not t.uses_bigdecimal)
      (pure Passes_global.remat_constants);
    entry 3 "globalCopyPropagation" Medium always (pure Passes_global.global_copy_prop);
    entry 4 "localCopyPropagation" Cheap always (pure Passes_block.copy_prop);
    entry 5 "deadTreesElimination" Cheap always (pure Passes_block.dead_tree_elim);
    entry 6 "deadStoresElimination" Medium always (pure Passes_block.dead_store_elim);
    entry 7 "unreachableBlockElimination" Cheap always (pure Passes_block.unreachable_elim);
    entry 8 "blockMerging" Medium always (pure Passes_block.block_merge);
    entry 9 "branchFolding" Cheap always (pure Passes_block.branch_fold);
    entry 10 "branchReversal" Cheap always (pure Passes_block.branch_reversal);
    entry 11 "jumpThreading" Cheap always (pure Passes_block.jump_threading);
    entry 12 "blockLayout" Medium always (pure Passes_block.block_layout);
    entry 13 "coldBlockOutlining" Medium
      (fun t -> t.has_handlers || t.has_throws)
      (pure Passes_block.cold_outline);
    entry 14 "profiledBlockOrdering" Expensive always
      (pure Passes_block.profile_block_order);
    entry 15 "localCSE" Expensive always (pure Passes_block.local_cse);
    entry 16 "localValueNumbering" Expensive always (pure Passes_block.local_vn);
    entry 17 "redundantLoadElimination" Expensive
      (fun t -> t.has_heap_loads && not t.uses_unsafe)
      (pure Passes_block.field_load_cse);
    entry 18 "simplifier" Cheap always (pure Passes_local.simplify);
    entry 19 "treeSimplificationCleanup" Cheap always (pure Passes_local.simplify);
    entry 20 "bitopSimplification" Cheap always (pure Passes_local.bitop_simplify);
    entry 21 "strengthReduction" Cheap always (pure Passes_local.strength_reduce);
    entry 22 "expressionReassociation" Medium always (pure Passes_local.reassociate);
    entry 23 "signExtensionElimination" Cheap
      (fun t -> t.has_casts)
      (pure Passes_local.sign_ext_elim);
    entry 24 "shiftPeephole" Cheap always (pure Passes_local.peephole_shift);
    entry 25 "comparePeephole" Cheap always (pure Passes_local.peephole_compare);
    entry 26 "inductionVariableSimplification" Medium
      (fun t -> t.has_loops)
      (pure Passes_local.induction_var);
    entry 27 "loopInvariantCodeMotion" Expensive
      (fun t -> t.has_loops)
      (pure Passes_loop.licm);
    entry 28 "loopUnrollingSmall" Expensive
      (fun t -> t.has_loops)
      (pure (Passes_loop.unroll ~factor:2));
    entry 29 "loopUnrollingAggressive" Very_expensive
      (fun t -> t.has_loops)
      (pure (Passes_loop.unroll ~factor:4));
    entry 30 "loopPeeling" Expensive (fun t -> t.has_loops) (pure Passes_loop.peel);
    entry 31 "arraycopyIdiomRecognition" Medium
      (fun t -> t.has_loops && t.has_arrays)
      (pure Passes_loop.arraycopy_idiom);
    entry 32 "boundsCheckElimination" Medium
      (fun t -> t.has_arrays)
      (pure Passes_block.bounds_check_elim);
    entry 33 "redundantBoundsCheckRemoval" Medium
      (fun t -> t.has_arrays)
      (pure Passes_block.loop_bounds_flags);
    entry 34 "nullCheckElimination" Medium
      (fun t -> t.has_objects || t.has_arrays)
      (pure Passes_block.null_check_elim);
    entry 35 "compactNullChecks" Medium
      (fun t -> t.has_objects || t.has_arrays)
      (pure Passes_block.compact_null_checks);
    entry 36 "escapeAnalysis" Very_expensive
      (fun t -> t.has_allocs)
      (pure Passes_global.escape_analysis);
    entry 37 "monitorElision" Medium
      (fun t -> t.has_sync && t.has_allocs)
      (pure Passes_global.monitor_elision);
    entry 38 "redundantMonitorElimination" Medium
      (fun t -> t.has_sync)
      (pure Passes_block.monitor_pair_elim);
    entry 39 "trivialInlining" Medium
      (fun t -> t.has_calls)
      (fun ctx m -> Passes_global.inline_trivial ~program:ctx.program m);
    entry 40 "generalInlining" Very_expensive
      (fun t -> t.has_calls)
      (fun ctx m -> Passes_global.inline_general ~program:ctx.program m);
    entry 41 "unusedSymbolElimination" Cheap always
      (pure Passes_block.unused_symbol_elim);
    entry 42 "exceptionDirectedOptimization" Medium
      (fun t -> t.has_handlers)
      (pure Passes_block.throw_to_goto);
    entry 43 "returnMerging" Cheap always (pure Passes_block.return_merge);
    entry 44 "bigDecimalReduction" Medium
      (fun t -> t.uses_bigdecimal)
      (pure Passes_local.mixed_fold);
    entry 45 "packedDecimalFolding" Medium
      (fun t -> t.has_decimals)
      (pure Passes_local.packed_fold);
    entry 46 "zonedDecimalConversionRemoval" Medium
      (fun t -> t.has_decimals)
      (pure Passes_local.decimal_cast_removal);
    entry 47 "longDoubleNarrowing" Medium
      (fun t -> t.has_longdouble || t.has_fp)
      (pure Passes_local.longdouble_narrow);
    entry 48 "instanceofFolding" Cheap
      (fun t -> t.has_objects)
      (pure Passes_local.instanceof_fold);
    entry 49 "checkcastReduction" Cheap
      (fun t -> t.has_casts && t.has_objects)
      (pure Passes_local.checkcast_reduce);
    entry 50 "arrayLengthFolding" Cheap
      (fun t -> t.has_arrays)
      (pure Passes_local.arraylength_fold);
    entry 51 "mixedIntrinsicFolding" Cheap
      (fun t -> t.has_mixed)
      (pure Passes_local.mixed_fold);
    entry ~hint:1 52 "globalRegisterAllocationHint" Expensive always identity_pass;
    entry ~hint:1 53 "instructionSchedulingHint" Expensive always identity_pass;
    entry 54 "deadCodeCleanup" Cheap always
      (pure (fun m -> Passes_block.dead_store_elim (Passes_block.dead_tree_elim m)));
    entry 55 "lateConstantFolding" Cheap always (pure Passes_local.const_fold);
    entry 56 "finalBlockCleanup" Cheap always
      (pure (fun m -> Passes_block.unreachable_elim (Passes_block.jump_threading m)));
    entry 57 "loopCanonicalization" Medium
      (fun t -> t.has_loops)
      (pure (fun m ->
           Passes_block.unreachable_elim
             (Passes_block.jump_threading (Passes_block.block_merge m))));
  |]

let count = Array.length all

let () = assert (count = 58)

let () = Array.iteri (fun i e -> assert (e.index = i)) all

let by_name name = Array.find_opt (fun e -> String.equal e.name name) all

let weight_cycles = function
  | Cheap -> (1_500, 30)
  | Medium -> (4_000, 90)
  | Expensive -> (12_000, 250)
  | Very_expensive -> (30_000, 600)

let check_cycles = 400
