module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Node = Tessera_il.Node
module Block = Tessera_il.Block
module Meth = Tessera_il.Meth
module Symbol = Tessera_il.Symbol
module Program = Tessera_il.Program

(* ------------------------------------------------------------------ *)
(* Single-definition forwarding                                          *)
(* ------------------------------------------------------------------ *)

(* Find temporaries defined exactly once, by a statement-level store in
   the entry block (whose handler is [None], so a trap before the store
   cannot expose the un-stored value to a handler), with [accept] deciding
   whether the defining right-hand side may be forwarded. *)
let single_defs ~accept (m : Meth.t) =
  if Array.length m.Meth.blocks = 0 then []
  else begin
    let entry = m.Meth.blocks.(0) in
    if entry.Block.handler <> None then []
    else begin
      let info = Treeutil.sym_info m in
      let defs = ref [] in
      List.iteri
        (fun idx (s : Node.t) ->
          match s.Node.op with
          | Opcode.Store when Array.length s.Node.args = 1 ->
              let sym = s.Node.sym in
              if
                m.Meth.symbols.(sym).Symbol.kind = Symbol.Temp
                && info.Treeutil.stores.(sym) = 1
                && accept sym s.Node.args.(0)
              then defs := (sym, idx, s.Node.args.(0)) :: !defs
          | _ -> ())
        entry.Block.stmts;
      !defs
    end
  end

let forward_defs defs (m : Meth.t) =
  if defs = [] then m
  else begin
    let table = Hashtbl.create 8 in
    List.iter (fun (sym, idx, repl) -> Hashtbl.replace table sym (idx, repl)) defs;
    let rewrite ~after_idx tree =
      Node.map_bottom_up
        (fun (n : Node.t) ->
          if n.Node.op = Opcode.Load && Array.length n.Node.args = 0 then
            match Hashtbl.find_opt table n.Node.sym with
            | Some (def_idx, repl)
              when after_idx > def_idx && Types.equal repl.Node.ty n.Node.ty ->
                repl
            | _ -> n
          else n)
        tree
    in
    let blocks =
      Array.mapi
        (fun bi (b : Block.t) ->
          if bi = 0 then begin
            let stmts =
              List.mapi (fun idx s -> rewrite ~after_idx:idx s) b.Block.stmts
            in
            let term =
              Block.map_terminator_nodes (rewrite ~after_idx:max_int) b.Block.term
            in
            Block.with_term (Block.with_stmts b stmts) term
          end
          else Treeutil.map_block_nodes (rewrite ~after_idx:max_int) b)
        m.Meth.blocks
    in
    Meth.with_blocks m blocks
  end

let remat_constants (m : Meth.t) =
  let defs =
    single_defs m ~accept:(fun sym (rhs : Node.t) ->
        rhs.Node.op = Opcode.Loadconst
        && Types.equal rhs.Node.ty m.Meth.symbols.(sym).Symbol.ty)
  in
  let defs =
    List.map
      (fun (sym, idx, (rhs : Node.t)) ->
        (* flag so diagnostics can see the decision *)
        (sym, idx, Node.with_flags rhs Node.flag_rematerialized))
      defs
  in
  forward_defs defs m

let global_copy_prop (m : Meth.t) =
  let info = Treeutil.sym_info m in
  let defs =
    single_defs m ~accept:(fun sym (rhs : Node.t) ->
        rhs.Node.op = Opcode.Load
        && Array.length rhs.Node.args = 0
        && m.Meth.symbols.(rhs.Node.sym).Symbol.kind = Symbol.Arg
        && info.Treeutil.stores.(rhs.Node.sym) = 0
        && Types.equal rhs.Node.ty m.Meth.symbols.(sym).Symbol.ty
        && Types.equal rhs.Node.ty m.Meth.symbols.(rhs.Node.sym).Symbol.ty)
  in
  forward_defs defs m

(* ------------------------------------------------------------------ *)
(* Escape analysis and monitor elision                                   *)
(* ------------------------------------------------------------------ *)

(* Temporaries holding only fresh allocations whose value is consumed
   exclusively in receiver positions.  Receiver positions: base of a
   field/element access, array operand of array ops, monitored object. *)
let non_escaping_alloc_syms (m : Meth.t) =
  let n = Array.length m.Meth.symbols in
  let candidate = Array.make n false in
  let disqualified = Array.make n false in
  (* candidates: temps whose every store has a New/Newarray rhs *)
  Meth.fold_nodes
    (fun () (node : Node.t) ->
      match node.Node.op with
      | Opcode.Store when Array.length node.Node.args = 1 -> (
          match node.Node.args.(0).Node.op with
          | Opcode.New | Opcode.Newarray -> candidate.(node.Node.sym) <- true
          | _ -> disqualified.(node.Node.sym) <- true)
      | Opcode.Inc -> disqualified.(node.Node.sym) <- true
      | _ -> ())
    () m;
  (* a load of a candidate anywhere except a receiver position escapes *)
  let check_node (node : Node.t) =
    let receiver_slots =
      match (node.Node.op, Array.length node.Node.args) with
      | Opcode.Load, (1 | 2) -> [ 0 ]
      | Opcode.Store, (2 | 3) -> [ 0 ]
      | Opcode.Arrayop Opcode.Array_length, _ -> [ 0 ]
      | Opcode.Arrayop Opcode.Bounds_check, _ -> [ 0 ]
      | Opcode.Synchronization _, 1 -> [ 0 ]
      | Opcode.Instanceof, _ -> [ 0 ]
      | _ -> []
    in
    Array.iteri
      (fun slot (k : Node.t) ->
        if
          k.Node.op = Opcode.Load
          && Array.length k.Node.args = 0
          && candidate.(k.Node.sym)
          && not (List.mem slot receiver_slots)
        then disqualified.(k.Node.sym) <- true)
      node.Node.args
  in
  Meth.fold_nodes (fun () node -> check_node node) () m;
  (* loads appearing as statement roots or terminator roots escape-check:
     return/throw of the value escapes *)
  Array.iter
    (fun (b : Block.t) ->
      let root_load (v : Node.t) =
        if v.Node.op = Opcode.Load && Array.length v.Node.args = 0 then
          disqualified.(v.Node.sym) <- true
      in
      match b.Block.term with
      | Block.Return (Some v) | Block.Throw v -> root_load v
      | _ -> ())
    m.Meth.blocks;
  Array.init n (fun i -> candidate.(i) && not disqualified.(i))

let flag_alloc_stores ok_syms flag (m : Meth.t) =
  Meth.with_blocks m
    (Array.map
       (Treeutil.map_block_nodes (fun (s : Node.t) ->
            match s.Node.op with
            | Opcode.Store
              when Array.length s.Node.args = 1 && ok_syms.(s.Node.sym) -> (
                match s.Node.args.(0).Node.op with
                | Opcode.New | Opcode.Newarray ->
                    Node.with_args s [| Node.with_flags s.Node.args.(0) flag |]
                | _ -> s)
            | _ -> s))
       m.Meth.blocks)

let escape_analysis (m : Meth.t) =
  let ok = non_escaping_alloc_syms m in
  if Array.exists Fun.id ok then flag_alloc_stores ok Node.flag_stack_alloc m
  else m

let monitor_elision (m : Meth.t) =
  let ok = non_escaping_alloc_syms m in
  if not (Array.exists Fun.id ok) then m
  else
    Treeutil.map_method_nodes
      (Node.map_bottom_up (fun (n : Node.t) ->
           match n.Node.op with
           | Opcode.Synchronization _
             when Array.length n.Node.args = 1
                  && n.Node.args.(0).Node.op = Opcode.Load
                  && Array.length n.Node.args.(0).Node.args = 0
                  && ok.(n.Node.args.(0).Node.sym) ->
               Node.with_flags n Node.flag_sync_elided
           | _ -> n))
      m

(* ------------------------------------------------------------------ *)
(* Inlining                                                              *)
(* ------------------------------------------------------------------ *)

let callee_ok (callee : Meth.t) =
  Array.length callee.Meth.blocks = 1
  && callee.Meth.blocks.(0).Block.handler = None
  && (not callee.Meth.attrs.Meth.synchronized)
  && not callee.Meth.attrs.Meth.virtual_overridden

(* trivial: single pure expression over its arguments *)
let trivial_body (callee : Meth.t) =
  if not (callee_ok callee) then None
  else
    let b = callee.Meth.blocks.(0) in
    match (b.Block.stmts, b.Block.term) with
    | [], Block.Return (Some e)
      when Node.size e <= 12
           && Types.equal e.Node.ty callee.Meth.ret
           && Node.fold
                (fun acc (n : Node.t) ->
                  acc
                  &&
                  match n.Node.op with
                  | Opcode.Load ->
                      Array.length n.Node.args = 0
                      && callee.Meth.symbols.(n.Node.sym).Symbol.kind
                         = Symbol.Arg
                  | Opcode.Loadconst | Opcode.Add | Opcode.Sub | Opcode.Mul
                  | Opcode.Neg | Opcode.Shift _ | Opcode.Or | Opcode.And
                  | Opcode.Xor | Opcode.Compare _ ->
                      true
                  | Opcode.Cast k -> k <> Opcode.C_check
                  | Opcode.Div | Opcode.Rem -> Types.is_floating n.Node.ty
                  | _ -> false)
                true e ->
        Some e
    | _ -> None

let arg_use_counts (callee : Meth.t) e =
  let counts = Array.make (Array.length callee.Meth.symbols) 0 in
  Node.fold
    (fun () (n : Node.t) ->
      if n.Node.op = Opcode.Load && Array.length n.Node.args = 0 then
        counts.(n.Node.sym) <- counts.(n.Node.sym) + 1)
    () e;
  counts

let is_leaf (n : Node.t) =
  match n.Node.op with
  | Opcode.Loadconst -> true
  | Opcode.Load -> Array.length n.Node.args = 0
  | _ -> false

let substitute_args e (actuals : Node.t array) =
  Node.map_bottom_up
    (fun (n : Node.t) ->
      if n.Node.op = Opcode.Load && Array.length n.Node.args = 0 then
        actuals.(n.Node.sym)
      else n)
    e

let inline_trivial ~program (m : Meth.t) =
  let budget = ref 8 in
  Treeutil.map_method_nodes
    (Node.map_bottom_up (fun (n : Node.t) ->
         if !budget <= 0 || n.Node.op <> Opcode.Call || n.Node.sym < 0 then n
         else if n.Node.sym >= Program.method_count program then n
         else
           let callee = Program.meth program n.Node.sym in
           match trivial_body callee with
           | Some e
             when Array.length n.Node.args = Array.length callee.Meth.params
                  && Types.equal n.Node.ty callee.Meth.ret
                  && Array.for_all Node.subtree_pure n.Node.args
                  && Array.for_all2
                       (fun (a : Node.t) p -> Types.equal a.Node.ty p)
                       n.Node.args callee.Meth.params
                  &&
                  let counts = arg_use_counts callee e in
                  Array.for_all2
                    (fun a i -> counts.(i) <= 1 || is_leaf a)
                    n.Node.args
                    (Array.init (Array.length n.Node.args) Fun.id) ->
               decr budget;
               substitute_args e n.Node.args
           | _ -> n))
    m

(* general: single-block callees spliced at statement positions *)
let general_body (callee : Meth.t) =
  if not (callee_ok callee) then None
  else
    let b = callee.Meth.blocks.(0) in
    let has_call =
      Meth.fold_nodes
        (fun acc (n : Node.t) -> acc || n.Node.op = Opcode.Call)
        false callee
    in
    if has_call || Meth.tree_count callee > 40 then None
    else
      match b.Block.term with
      | Block.Return ret -> Some (b.Block.stmts, ret)
      | _ -> None

let inline_general ~program (m : Meth.t) =
  let budget = ref 4 in
  let m_ref = ref m in
  let splice_call (call : Node.t) (dst : int option) =
    if !budget <= 0 || call.Node.sym < 0 then None
    else if call.Node.sym >= Program.method_count program then None
    else
      let callee = Program.meth program call.Node.sym in
      match general_body callee with
      | Some (body, ret)
        when Array.length call.Node.args = Array.length callee.Meth.params
             && Types.equal call.Node.ty callee.Meth.ret
             && (dst = None || ret <> None)
             && Array.for_all2
                  (fun (a : Node.t) p -> Types.equal a.Node.ty p)
                  call.Node.args callee.Meth.params ->
          decr budget;
          (* fresh caller symbols for every callee symbol *)
          let map =
            Array.map
              (fun (s : Symbol.t) ->
                let m', id =
                  Treeutil.fresh_temp !m_ref ("inl_" ^ s.Symbol.name) s.Symbol.ty
                in
                m_ref := m';
                id)
              callee.Meth.symbols
          in
          let remap tree =
            Node.map_bottom_up
              (fun (n : Node.t) ->
                let local =
                  match n.Node.op with
                  | Opcode.Load -> Array.length n.Node.args = 0
                  | Opcode.Store -> Array.length n.Node.args = 1
                  | Opcode.Inc -> true
                  | _ -> false
                in
                if local then
                  Node.mk ~sym:map.(n.Node.sym) ~const:n.Node.const
                    ~flags:n.Node.flags n.Node.op n.Node.ty n.Node.args
                else n)
              tree
          in
          let arg_stores =
            Array.to_list
              (Array.mapi
                 (fun i a -> Node.store_sym map.(i) a)
                 call.Node.args)
          in
          let body = List.map remap body in
          let tail =
            match (dst, ret) with
            | Some t, Some e -> [ Node.store_sym t (remap e) ]
            | Some _, None -> assert false (* excluded by the guard above *)
            | None, Some e ->
                let e = remap e in
                if Node.subtree_pure e then [] else [ e ]
            | None, None -> []
          in
          Some (arg_stores @ body @ tail)
      | _ -> None
  in
  let blocks =
    Array.map
      (fun (b : Block.t) ->
        let stmts =
          List.concat_map
            (fun (s : Node.t) ->
              match s.Node.op with
              | Opcode.Call -> (
                  match splice_call s None with
                  | Some spliced -> spliced
                  | None -> [ s ])
              | Opcode.Store
                when Array.length s.Node.args = 1
                     && s.Node.args.(0).Node.op = Opcode.Call
                     && Types.equal s.Node.args.(0).Node.ty
                          (!m_ref).Meth.symbols.(s.Node.sym).Symbol.ty -> (
                  match splice_call s.Node.args.(0) (Some s.Node.sym) with
                  | Some spliced -> spliced
                  | None -> [ s ])
              | _ -> [ s ])
            b.Block.stmts
        in
        Block.with_stmts b stmts)
      (!m_ref).Meth.blocks
  in
  Meth.with_blocks !m_ref blocks
