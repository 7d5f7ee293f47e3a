(* The two lowerings of tree IL to the flat form: [of_meth] for the
   interpreter and [compile], the code generator, for compiled code.

   The interpreted lowering is cycle- and fuel-exact with respect to
   the tree walker [Vm.Interp.run]: every point where the tree walker
   decrements fuel or calls [ctx.charge] has a corresponding instruction
   here that does the same, in the same order.  Interior nodes emit a
   [Begin] prologue (one fuel event plus the node's dispatch+op charge)
   before their children, leaves carry their charge inline, and block
   entries emit [Enter] (fuel only) — so a trace of (fuel, charge)
   events is bit-identical between the two tiers, which is what keeps
   learned-model labels and the figures digest comparable.

   Compiled code is syntax-directed: one IL node becomes one instruction
   (after its operands), each one fuel event, then one charge of its
   static cost, then its action.  The cost is computed here, once, from
   the target's cost model, the node's optimization flags and the
   register-allocation quality; so every node the optimizer removes is
   an instruction, and its cycles, removed from the compiled method. *)

module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Node = Tessera_il.Node
module Block = Tessera_il.Block
module Meth = Tessera_il.Meth
module Symbol = Tessera_il.Symbol
module Values = Tessera_vm.Values
module Semantics = Tessera_vm.Semantics
module Cost = Tessera_vm.Cost
module Target = Tessera_vm.Target
open Prog

(* -- emitter ----------------------------------------------------------
   Both lowerings share one emitter: instructions are appended to a
   growable array block by block (so the entries imply each pc's
   block), constants go through one pool, and [finish] resolves jump
   targets from block ids to entry pcs, then verifies. *)

type emitter = {
  mutable code : instr array;
  mutable len : int;
  block_entry : int array;
  mutable pool : Values.t list;  (* reversed: the head is the last index *)
  mutable pool_len : int;
}

let emitter (m : Meth.t) =
  {
    code = Array.make 64 Pop;
    len = 0;
    block_entry = Array.make (Array.length m.Meth.blocks) 0;
    pool = [];
    pool_len = 0;
  }

let emit e i =
  let n = e.len in
  if n = Array.length e.code then begin
    let code = Array.make ((2 * n) + 1) Pop in
    Array.blit e.code 0 code 0 n;
    e.code <- code
  end;
  e.code.(n) <- i;
  e.len <- n + 1

(* blocks are emitted in order, each from its entry on *)
let start_block e b = e.block_entry.(b) <- e.len

(* Constants are matched by kind and bits: matched by value, 0.0 would
   merge with -0.0, and NaN payloads.  A method has a few dozen at most,
   so a scan of the pool does. *)
let const_idx e ty bits =
  let float = Types.is_floating ty in
  let rec find k = function
    | Values.Int_v b :: _ when (not float) && Int64.equal b bits -> k
    | Values.Float_v f :: _ when float && Int64.equal (Int64.bits_of_float f) bits
      ->
        k
    | _ :: rest -> find (k - 1) rest
    | [] ->
        e.pool <-
          (if float then Values.Float_v (Int64.float_of_bits bits)
           else Values.Int_v bits)
          :: e.pool;
        e.pool_len <- e.pool_len + 1;
        e.pool_len - 1
  in
  find (e.pool_len - 1) e.pool

let finish e (m : Meth.t) ~local_is_arg ~sync_charge =
  let instrs = Array.sub e.code 0 e.len in
  let entry b = e.block_entry.(b) in
  Array.iteri
    (fun i ins ->
      match ins with
      | Jmp b -> instrs.(i) <- Jmp (entry b)
      | Cond_br (t, f) -> instrs.(i) <- Cond_br (entry t, entry f)
      | C_jmp (c, b) -> instrs.(i) <- C_jmp (c, entry b)
      | C_br_false (c, b) -> instrs.(i) <- C_br_false (c, entry b)
      | _ -> ())
    instrs;
  let p =
    {
      method_name = m.Meth.name;
      instrs;
      pool = Array.of_list (List.rev e.pool);
      block_of_pc = owner_blocks ~code_size:e.len e.block_entry;
      block_entry = e.block_entry;
      handler_of_block =
        Array.map
          (fun (b : Block.t) -> Option.value b.Block.handler ~default:(-1))
          m.Meth.blocks;
      local_types = Array.map (fun (s : Symbol.t) -> s.Symbol.ty) m.Meth.symbols;
      local_is_arg;
      ret = m.Meth.ret;
      sync_charge;
      max_stack = 0;
      fused_pairs = 0;
    }
  in
  match verify p with
  | Ok max_stack -> { p with max_stack }
  | Error err -> invalid_arg ("Flat.Lower: " ^ err)

let monitor_enter_charge =
  2 * Cost.op_base (Opcode.Synchronization Opcode.Monitor_enter) Types.Object_

let sym_ty (m : Meth.t) s = m.Meth.symbols.(s).Symbol.ty

(* a binary operator, resolved once to the kernel that runs it *)
let kernel (n : Node.t) =
  match Semantics.kernel n.op n.ty with
  | Some k -> k
  | None -> invalid_arg ("Flat.Lower: not a binary operator: " ^ Opcode.name n.op)

(* -- interpreted code ------------------------------------------------- *)

let node_charge (n : Node.t) = Cost.interp_dispatch + Cost.op_base n.op n.ty

(* an interior node's action, its operands on the stack *)
let action m (n : Node.t) =
  match n.op with
  | Opcode.Load -> if Array.length n.args = 1 then Field_load n.sym else Elem_load
  | Opcode.Store -> (
      match Array.length n.args with
      | 1 -> Store_local (n.sym, sym_ty m n.sym)
      | 2 -> Field_store n.sym
      | _ -> Elem_store)
  | Opcode.Neg -> Negate n.ty
  | Opcode.Cast Opcode.C_check -> Checkcast n.sym
  | Opcode.Cast k -> Cast_to (k, n.ty)
  | Opcode.Newarray -> New_arr (Types.of_index n.sym)
  | Opcode.Newmultiarray -> New_multi (Types.of_index n.sym)
  | Opcode.Instanceof -> Instance_of n.sym
  | Opcode.Synchronization _ -> Monitor
  | Opcode.Throw_op -> Drop_void
  | Opcode.Call -> Invoke (n.sym, Array.length n.args)
  | Opcode.Arrayop Opcode.Bounds_check -> Bounds_chk
  | Opcode.Arrayop Opcode.Array_copy -> Arr_copy
  | Opcode.Arrayop Opcode.Array_cmp -> Arr_cmp
  | Opcode.Arrayop Opcode.Array_length -> Arr_len
  | Opcode.Mixedop -> Mixed (Array.length n.args, n.ty)
  | _ -> Binop (kernel n)

(* A leaf is one instruction.  An interior node is a [Begin] prologue
   with its fuel and charge, its children, then its action; a field
   access costs 2 more, an element access 3. *)
let of_meth (m : Meth.t) =
  let e = emitter m in
  let rec node (n : Node.t) =
    let c = node_charge n in
    let argc = Array.length n.args in
    match n.op with
    | Opcode.Loadconst -> emit e (Const (c, const_idx e n.ty n.const))
    | Opcode.Load when argc = 0 -> emit e (Load_local (c, n.sym))
    | Opcode.Inc -> emit e (Inc_local (c, n.sym, n.const, sym_ty m n.sym))
    | Opcode.New -> emit e (New_obj (c, n.sym))
    | (Opcode.Synchronization _ | Opcode.Throw_op) when argc = 0 ->
        emit e (Void_leaf c)
    | _ -> (
        emit e
          (Begin
             (match (n.op, argc) with
             | Opcode.Load, 1 | Opcode.Store, 2 -> c + 2
             | Opcode.Load, 2 | Opcode.Store, 3 -> c + 3
             | _ -> c));
        Array.iter node n.args;
        match n.op with
        | Opcode.Branch_op -> (* the child's value is the node's value *) ()
        | _ -> emit e (action m n))
  in
  Array.iteri
    (fun bi (b : Block.t) ->
      start_block e bi;
      emit e Enter;
      List.iter
        (fun s ->
          node s;
          emit e Pop)
        b.Block.stmts;
      match b.Block.term with
      | Block.Goto t -> emit e (Jmp t)
      | Block.If { cond; if_true; if_false } ->
          emit e (Charge 1);
          node cond;
          emit e (Cond_br (if_true, if_false))
      | Block.Return None -> emit e Ret_void
      | Block.Return (Some v) ->
          node v;
          emit e Ret_val
      | Block.Throw v ->
          node v;
          emit e Pop;
          emit e Raise_user)
    m.Meth.blocks;
  let p =
    finish e m
      ~local_is_arg:
        (Array.map (fun (s : Symbol.t) -> s.Symbol.kind = Symbol.Arg) m.Meth.symbols)
      ~sync_charge:(if m.Meth.attrs.Meth.synchronized then monitor_enter_charge else 0)
  in
  (* the tree walker spends one fuel unit entering each block *)
  Array.iter
    (fun pc ->
      match p.instrs.(pc) with
      | Enter -> ()
      | _ -> invalid_arg "Flat.Lower.of_meth: block entry is not Enter")
    p.block_entry;
  p

(* -- compiled code ---------------------------------------------------
   One instruction per node, after its operands; a statement's value is
   popped.  A call was charged by the code generator, so [C_invoke]
   adds nothing; monitor exit with nothing on the stack has no action
   and is a [Begin]. *)

let pushes ty = not (Types.equal ty Types.Void)

let code_of e m target ~local (n : Node.t) =
  let c = Target.node_cost target n in
  let argc = Array.length n.args in
  match n.op with
  | Opcode.Loadconst -> Const (c, const_idx e n.ty n.const)
  | Opcode.Load when argc = 0 -> Load_local (local, n.sym)
  | Opcode.Load when argc = 1 -> C_field_load (c + 2, n.sym)
  | Opcode.Load -> C_elem_load (c + 4)
  | Opcode.Store when argc = 1 -> C_store_local (local, n.sym, sym_ty m n.sym)
  | Opcode.Store when argc = 2 -> C_field_store (c + 2, n.sym)
  | Opcode.Store -> C_elem_store (c + 4)
  | Opcode.Inc -> C_inc_local (local, n.sym, n.const, sym_ty m n.sym)
  | Opcode.Neg -> C_negate (c, n.ty)
  | Opcode.Cast Opcode.C_check -> C_checkcast (c, n.sym)
  | Opcode.Cast k -> C_cast_to (c, k, n.ty)
  | Opcode.New -> New_obj (c, n.sym)
  | Opcode.Newarray -> C_new_arr (c, Types.of_index n.sym)
  | Opcode.Newmultiarray -> C_new_multi (c, Types.of_index n.sym)
  | Opcode.Instanceof -> C_instance_of (c, n.sym)
  | Opcode.Synchronization _ -> if argc > 0 then C_monitor c else Begin c
  | Opcode.Throw_op -> C_mixed (c, 0, Types.Void, false)
  | Opcode.Call -> C_invoke (target.Target.call_overhead, n.sym, argc, pushes n.ty)
  | Opcode.Arrayop Opcode.Bounds_check -> C_bounds_chk c
  | Opcode.Arrayop Opcode.Array_copy -> C_arr_copy c
  | Opcode.Arrayop Opcode.Array_cmp -> C_arr_cmp c
  | Opcode.Arrayop Opcode.Array_length -> C_arr_len c
  | Opcode.Mixedop -> C_mixed (c, argc, n.ty, pushes n.ty)
  | _ -> C_binop (c, kernel n)

let compile ?(quality = Cost.Q_base) ?(target = Target.zircon) (m : Meth.t) =
  let e = emitter m in
  let local = target.Target.local_access ~codegen_quality:quality in
  let rec value (n : Node.t) =
    (match n.op with
    | Opcode.Throw_op -> Array.iter stmt n.args
    | _ -> Array.iter value n.args);
    match n.op with
    | Opcode.Branch_op -> (* the child's value is the node's value *) ()
    | _ -> emit e (code_of e m target ~local n)
  and stmt (n : Node.t) =
    value n;
    if pushes n.ty then emit e (C_pop 0)
  in
  Array.iteri
    (fun bi (b : Block.t) ->
      start_block e bi;
      List.iter stmt b.Block.stmts;
      match b.Block.term with
      | Block.Goto t -> emit e (C_jmp ((if t = bi + 1 then 0 else 1), t))
      | Block.If { cond; if_true; if_false } ->
          value cond;
          emit e (C_br_false (1, if_false));
          emit e (C_jmp (1, if_true))
      | Block.Return None -> emit e (C_ret_void 2)
      | Block.Return (Some v) ->
          value v;
          emit e (C_ret_val 2)
      | Block.Throw v ->
          stmt v;
          emit e (C_raise (Target.op_cost target Opcode.Throw_op Types.Void)))
    m.Meth.blocks;
  let nargs = Meth.arg_count m in
  (* [finish] built the array: no one else holds it *)
  fuse_in_place
    (finish e m
       ~local_is_arg:(Array.mapi (fun i _ -> i < nargs) m.Meth.symbols)
       ~sync_charge:
         (5 (* frame set-up *)
         + if m.Meth.attrs.Meth.synchronized then monitor_enter_charge else 0))
