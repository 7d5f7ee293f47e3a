module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Node = Tessera_il.Node
module Block = Tessera_il.Block
module Meth = Tessera_il.Meth
module Profile = Tessera_obs.Profile
open Values

type context = {
  classes : Tessera_il.Classdef.t array;
  charge : int -> unit;
  invoke : int -> Values.t array -> Values.t;
  fuel : int ref;
}

exception Out_of_fuel

let run ctx (m : Meth.t) args =
  (* profiler hook: selected once per run, so the unprofiled walker pays
     one branch here and nothing per node.  [cur_block]/[cur_op] track
     the attribution site; the wrapped charge routes every charged cycle
     through the sampler before the real meter. *)
  let profiling = !Profile.enabled in
  let cur_block = ref 0 in
  let cur_op = ref "enter" in
  let meth_name = if profiling then m.Meth.name else "" in
  let charge =
    if profiling then (fun c ->
      Profile.charge ~meth:meth_name ~block:!cur_block ~op:!cur_op c;
      ctx.charge c)
    else ctx.charge
  in
  let env = Array.make (Array.length m.symbols) Void_v in
  Array.iteri
    (fun i (s : Tessera_il.Symbol.t) ->
      if i < Array.length args && s.kind = Tessera_il.Symbol.Arg then
        env.(i) <- Semantics.store_coerce s.ty args.(i)
      else env.(i) <- default s.ty)
    m.symbols;
  let rec eval (n : Node.t) =
    (* check-then-decrement: a caller granting n fuel gets exactly n
       fuel-charging steps (fuel=1 executes one node) *)
    if !(ctx.fuel) <= 0 then raise Out_of_fuel;
    decr ctx.fuel;
    if profiling then cur_op := Opcode.name n.op;
    charge (Cost.interp_dispatch + Cost.op_base n.op n.ty);
    match n.op with
    | Opcode.Loadconst ->
        if Types.is_floating n.ty then Float_v (Node.const_float n)
        else Int_v n.const
    | Opcode.Load -> (
        match Array.length n.args with
        | 0 -> env.(n.sym)
        | 1 ->
            charge 2;
            Semantics.field_load (eval n.args.(0)) n.sym
        | _ ->
            charge 3;
            Semantics.elem_load (eval n.args.(0)) (eval n.args.(1)))
    | Opcode.Store -> (
        match Array.length n.args with
        | 1 ->
            let v = eval n.args.(0) in
            env.(n.sym) <- Semantics.store_coerce m.symbols.(n.sym).ty v;
            Void_v
        | 2 ->
            charge 2;
            let o = eval n.args.(0) in
            let v = eval n.args.(1) in
            Semantics.field_store o n.sym v;
            Void_v
        | _ ->
            charge 3;
            let a = eval n.args.(0) in
            let i = eval n.args.(1) in
            let v = eval n.args.(2) in
            Semantics.elem_store a i v;
            Void_v)
    | Opcode.Inc ->
        env.(n.sym) <- Semantics.inc m.symbols.(n.sym).ty env.(n.sym) n.const;
        Void_v
    | Opcode.Neg -> Semantics.neg n.ty (eval n.args.(0))
    | Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Div | Opcode.Rem
    | Opcode.Or | Opcode.And | Opcode.Xor | Opcode.Shift _ | Opcode.Compare _
      ->
        let a = eval n.args.(0) in
        let b = eval n.args.(1) in
        Semantics.binop n.op n.ty a b
    | Opcode.Cast Opcode.C_check ->
        Semantics.checkcast ~classes:ctx.classes n.sym (eval n.args.(0))
    | Opcode.Cast k -> Semantics.cast k n.ty (eval n.args.(0))
    | Opcode.New -> Semantics.new_obj ~classes:ctx.classes n.sym
    | Opcode.Newarray ->
        Semantics.new_array ~elem:(Types.of_index n.sym) (eval n.args.(0))
    | Opcode.Newmultiarray ->
        let d1 = eval n.args.(0) in
        let d2 = eval n.args.(1) in
        Semantics.new_multiarray ~elem:(Types.of_index n.sym) d1 d2
    | Opcode.Instanceof ->
        Semantics.instanceof ~classes:ctx.classes n.sym (eval n.args.(0))
    | Opcode.Synchronization _ ->
        if Array.length n.args > 0 then Semantics.monitor (eval n.args.(0));
        Void_v
    | Opcode.Throw_op ->
        if Array.length n.args > 0 then ignore (eval n.args.(0));
        Void_v
    | Opcode.Branch_op -> eval n.args.(0)
    | Opcode.Call ->
        let actuals = Array.map eval n.args in
        charge Cost.interp_call_overhead;
        ctx.invoke n.sym actuals
    | Opcode.Arrayop Opcode.Bounds_check ->
        let a = eval n.args.(0) in
        let i = eval n.args.(1) in
        Semantics.bounds_check a i;
        Void_v
    | Opcode.Arrayop Opcode.Array_copy ->
        let s = eval n.args.(0) in
        let d = eval n.args.(1) in
        let l = eval n.args.(2) in
        let copied = Semantics.array_copy s d l in
        charge (copied * Cost.per_element_copy);
        Void_v
    | Opcode.Arrayop Opcode.Array_cmp ->
        let a = eval n.args.(0) in
        let b = eval n.args.(1) in
        let r, inspected = Semantics.array_cmp a b in
        charge (inspected * Cost.per_element_copy);
        r
    | Opcode.Arrayop Opcode.Array_length ->
        Semantics.array_length (eval n.args.(0))
    | Opcode.Mixedop -> Semantics.mixed n.ty (Array.map eval n.args)
  in
  let rec exec_block bid =
    (* block transitions consume fuel too: an empty self-loop must still
       trip the guard *)
    if !(ctx.fuel) <= 0 then raise Out_of_fuel;
    decr ctx.fuel;
    if profiling then cur_block := bid;
    let b = Meth.block m bid in
    let outcome =
      try
        List.iter (fun s -> ignore (eval s)) b.Block.stmts;
        match b.Block.term with
        | Block.Goto t -> `Jump t
        | Block.If { cond; if_true; if_false } ->
            charge 1;
            if is_truthy (eval cond) then `Jump if_true else `Jump if_false
        | Block.Return None -> `Done Void_v
        | Block.Return (Some v) ->
            `Done (Semantics.store_coerce m.ret (eval v))
        | Block.Throw v ->
            ignore (eval v);
            `Trap Values.User_exception
      with Trap k -> `Trap k
    in
    match outcome with
    | `Jump t -> exec_block t
    | `Done v -> v
    | `Trap k -> (
        charge Cost.exception_unwind;
        match b.Block.handler with
        | Some h -> exec_block h
        | None -> raise (Trap k))
  in
  if m.attrs.synchronized then charge (2 * Cost.op_base (Opcode.Synchronization Opcode.Monitor_enter) Types.Object_);
  exec_block 0
