module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Node = Tessera_il.Node
module Block = Tessera_il.Block
module Meth = Tessera_il.Meth
module Semantics = Tessera_vm.Semantics

(* ------------------------------------------------------------------ *)
(* Shared predicates                                                   *)
(* ------------------------------------------------------------------ *)

(* Trees computing only over locals and constants: re-evaluating them at a
   different point in the same block yields the same value, and they can
   never trap. *)
let register_only_op (n : Node.t) =
  match n.Node.op with
  | Opcode.Load -> Array.length n.Node.args = 0
  | Opcode.Loadconst | Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Neg
  | Opcode.Shift _ | Opcode.Or | Opcode.And | Opcode.Xor | Opcode.Compare _
  | Opcode.Branch_op ->
      true
  | Opcode.Cast k -> k <> Opcode.C_check
  | Opcode.Div | Opcode.Rem -> Types.is_floating n.Node.ty
  | _ -> false

let rec register_only (n : Node.t) =
  register_only_op n && args_register_only n.Node.args 0

and args_register_only args i =
  i >= Array.length args
  || (register_only (Array.unsafe_get args i) && args_register_only args (i + 1))

let stmt_has_heap_effects (s : Node.t) =
  Node.exists
    (fun (n : Node.t) ->
      match n.Node.op with
      | Opcode.Call | Opcode.Throw_op | Opcode.Synchronization _ -> true
      | Opcode.Arrayop Opcode.Array_copy -> true
      | _ -> false)
    s

let rec replace_equal ~target ~replacement (n : Node.t) =
  if Node.structural_equal n target then replacement
  else
    let changed = ref false in
    let args =
      Array.map
        (fun k ->
          let k' = replace_equal ~target ~replacement k in
          if k' != k then changed := true;
          k')
        n.Node.args
    in
    if !changed then Node.with_args n args else n

(* ------------------------------------------------------------------ *)
(* Generic in-block common-subexpression machinery                      *)
(* ------------------------------------------------------------------ *)

type cse_config = {
  candidate : Node.t -> bool;
      (** is a subtree with this root reusable; its children must all be
          register-only *)
  min_size : int;
  heap_kills : bool;
      (** a statement that may write memory kills every entry, besides
          the entries reading a local it stores *)
  max_picks : int;
  (* reject first-occurrence statements whose internal evaluation order
     makes early evaluation of the candidate unsound *)
  hoist_barrier : Node.t -> bool;
}

type occurrence = {
  tree : Node.t;
  size : int;
  hash : int;
  loaded : int list;  (** locals the tree reads, for kills *)
  mutable occs : int list;  (** statement indices, descending *)
  mutable dead : bool;
}

(* One statement's subtrees in pre-order: slot [p] holds a node, and the
   slots [p, p + size.(p)) its subtree.  Each subtree's size and
   register-only bit are computed once, bottom-up; a structural hash is
   computed on demand, once per subtree, for candidates only. *)
type scan = {
  nodes : Node.t array;
  size : int array;
  kids_ro : bool array;  (** every child register-only *)
  ro : bool array;  (** the whole subtree register-only *)
  hash : int array;
  hashed : int array;  (** the [stamp] under which [hash] was computed *)
  mutable stamp : int;  (** one per scanned statement *)
}

let scan_create capacity (some : Node.t) =
  {
    nodes = Array.make capacity some;
    size = Array.make capacity 0;
    kids_ro = Array.make capacity false;
    ro = Array.make capacity false;
    hash = Array.make capacity 0;
    hashed = Array.make capacity (-1);
    stamp = 0;
  }

let rec scan_tree sc (n : Node.t) p =
  sc.nodes.(p) <- n;
  let args = n.Node.args in
  let next = ref (p + 1) in
  let kids = ref true in
  for i = 0 to Array.length args - 1 do
    let c = !next in
    next := scan_tree sc (Array.unsafe_get args i) c;
    if not sc.ro.(c) then kids := false
  done;
  sc.size.(p) <- !next - p;
  sc.kids_ro.(p) <- !kids;
  sc.ro.(p) <- !kids && register_only_op n;
  !next

let rec hash_of sc p =
  if sc.hashed.(p) = sc.stamp then sc.hash.(p)
  else begin
    let n = sc.nodes.(p) in
    let h = ref (Node.local_hash n) in
    let c = ref (p + 1) in
    for _ = 1 to Array.length n.Node.args do
      h := (!h * 31) + hash_of sc !c;
      c := !c + sc.size.(!c)
    done;
    sc.hash.(p) <- !h;
    sc.hashed.(p) <- sc.stamp;
    !h
  end

let rec stores_any_of stored loaded =
  match stored with
  | [] -> false
  | s :: rest -> List.mem s loaded || stores_any_of rest loaded

let run_cse_on_block cfg sc entries (m : Meth.t) (b : Block.t) =
  let stmts = Array.of_list b.Block.stmts in
  let nstmts = Array.length stmts in
  Hashtbl.reset entries;
  (* every entry, for the kill scan *)
  let all = ref [] in
  let find p =
    let tree = sc.nodes.(p) and h = hash_of sc p in
    let bucket =
      match Hashtbl.find_opt entries h with
      | Some b -> b
      | None ->
          let b = ref [] in
          Hashtbl.add entries h b;
          b
    in
    match
      List.find_opt (fun e -> Node.structural_equal e.tree tree) !bucket
    with
    | Some e -> e
    | None ->
        let e =
          {
            tree;
            size = sc.size.(p);
            hash = h;
            loaded = Treeutil.loaded_syms_of_tree tree;
            occs = [];
            dead = false;
          }
        in
        bucket := e :: !bucket;
        all := e :: !all;
        e
  in
  Array.iteri
    (fun i s ->
      (* collect candidate occurrences of this statement, in pre-order *)
      sc.stamp <- sc.stamp + 1;
      let total = scan_tree sc s 0 in
      for p = 0 to total - 1 do
        if
          sc.kids_ro.(p)
          && sc.size.(p) >= cfg.min_size
          && cfg.candidate sc.nodes.(p)
        then begin
          let e = find p in
          if not e.dead then e.occs <- i :: e.occs
        end
      done;
      (* then apply kills induced by the statement *)
      match !all with
      | [] -> ()
      | _ ->
          let stored = Treeutil.stored_syms_of_tree s in
          let writes = cfg.heap_kills && Treeutil.tree_writes_memory s in
          if writes || stored <> [] then
            List.iter
              (fun e ->
                if (not e.dead) && (writes || stores_any_of stored e.loaded)
                then e.dead <- true)
              !all)
    stmts;
  (* pick profitable, non-overlapping entries *)
  let viable =
    Hashtbl.fold (fun _ b acc -> !b @ acc) entries []
    |> List.filter (fun e -> match e.occs with _ :: _ :: _ -> true | _ -> false)
    |> List.filter (fun e ->
           let first = List.fold_left min max_int e.occs in
           not (cfg.hoist_barrier stmts.(first)))
    |> List.sort (fun a b ->
           let ben e = (List.length e.occs - 1) * e.size in
           compare (ben b) (ben a))
  in
  let overlaps a b =
    Node.exists (fun n -> Node.structural_equal n b.tree) a.tree
    || Node.exists (fun n -> Node.structural_equal n a.tree) b.tree
  in
  let picked =
    List.fold_left
      (fun acc e ->
        if List.length acc >= cfg.max_picks then acc
        else if List.exists (overlaps e) acc then acc
        else e :: acc)
      [] viable
  in
  if picked = [] then None
  else begin
    (* materialize each picked tree into a fresh temporary *)
    let m = ref m in
    let inserts = Array.make nstmts [] in
    let repls = ref [] in
    List.iter
      (fun e ->
        let first = List.fold_left min max_int e.occs in
        let last = List.fold_left max 0 e.occs in
        let m', tmp =
          Treeutil.fresh_temp !m
            (Printf.sprintf "cse%d" (Hashtbl.hash e.hash))
            e.tree.Node.ty
        in
        m := m';
        inserts.(first) <- Node.store_sym tmp e.tree :: inserts.(first);
        repls := (e.tree, Node.load_sym e.tree.Node.ty tmp, first, last) :: !repls)
      picked;
    let out = ref [] in
    Array.iteri
      (fun i s ->
        List.iter (fun ins -> out := ins :: !out) (inserts.(i));
        let s =
          List.fold_left
            (fun s (target, replacement, first, last) ->
              if i >= first && i <= last then
                replace_equal ~target ~replacement s
              else s)
            s !repls
        in
        out := s :: !out)
      stmts;
    Some (!m, Block.with_stmts b (List.rev !out))
  end

let run_cse cfg (m : Meth.t) =
  let first_stmt (b : Block.t) =
    match b.Block.stmts with s :: _ -> Some s | [] -> None
  in
  match Array.find_map first_stmt m.Meth.blocks with
  | None -> m
  | Some s ->
      (* scan slots for the method's largest statement *)
      let largest acc (b : Block.t) =
        List.fold_left (fun acc s -> max acc (Node.size s)) acc b.Block.stmts
      in
      let capacity = Array.fold_left largest 0 m.Meth.blocks in
      let sc = scan_create capacity s in
      let entries = Hashtbl.create 32 in
      let m = ref m in
      let blocks = Array.copy !m.Meth.blocks in
      Array.iteri
        (fun i b ->
          match run_cse_on_block cfg sc entries !m b with
          | Some (m', b') ->
              m := m';
              blocks.(i) <- b'
          | None -> ())
        blocks;
      Meth.with_blocks !m blocks

let alu_root (n : Node.t) =
  match n.Node.op with
  | Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Neg | Opcode.Shift _
  | Opcode.Or | Opcode.And | Opcode.Xor | Opcode.Compare _ ->
      true
  | Opcode.Div | Opcode.Rem -> Types.is_floating n.Node.ty
  | Opcode.Cast k -> k <> Opcode.C_check
  | _ -> false

let cse_config =
  {
    candidate = alu_root;
    min_size = 3;
    heap_kills = false;
    max_picks = 4;
    hoist_barrier = (fun _ -> false);
  }

let local_cse m = run_cse cse_config m

(* Commutative normalization: order pure integer operands canonically so
   [a+b] and [b+a] share structure, then reuse the CSE machinery. *)
let commutable (n : Node.t) =
  match n.Node.op with
  | Opcode.Add | Opcode.Mul | Opcode.Or | Opcode.And | Opcode.Xor
  | Opcode.Compare Opcode.Eq | Opcode.Compare Opcode.Ne ->
      not (Types.is_floating n.Node.ty)
  | _ -> false

(* One bottom-up walk: each rewritten subtree leaves in [ro] whether it
   is register-only and, when it is, its structural hash in [hash], so
   no subtree is hashed twice.  Operands are swapped when the first
   one's hash is the greater. *)
let commute m =
  let ro = ref false and hash = ref 0 in
  let rec go (n : Node.t) =
    let args = n.Node.args in
    let own_ro = register_only_op n in
    if Array.length args = 2 then begin
      let a0 = args.(0) and a1 = args.(1) in
      let a0' = go a0 in
      let r0 = !ro and h0 = !hash in
      let a1' = go a1 in
      let r1 = !ro and h1 = !hash in
      let swap = r0 && r1 && commutable n && h0 > h1 in
      ro := own_ro && r0 && r1;
      if !ro then begin
        let ha, hb = if swap then (h1, h0) else (h0, h1) in
        hash := (((Node.local_hash n * 31) + ha) * 31) + hb
      end;
      if swap then Node.with_args n [| a1'; a0' |]
      else if a0' == a0 && a1' == a1 then n
      else Node.with_args n [| a0'; a1' |]
    end
    else begin
      let out = ref args in
      let all_ro = ref own_ro in
      let h = ref (if own_ro then Node.local_hash n else 0) in
      for i = 0 to Array.length args - 1 do
        let k = args.(i) in
        let k' = go k in
        if !all_ro then
          if !ro then h := (!h * 31) + !hash else all_ro := false;
        if k' != k then begin
          if !out == args then out := Array.copy args;
          !out.(i) <- k'
        end
      done;
      ro := !all_ro;
      hash := !h;
      Node.with_args n !out
    end
  in
  Treeutil.map_method_nodes go m

let local_vn m = local_cse (commute m)

let field_cse_config =
  {
    candidate =
      (fun (n : Node.t) ->
        n.Node.op = Opcode.Load && Array.length n.Node.args > 0);
    min_size = 2;
    heap_kills = true;
    max_picks = 4;
    hoist_barrier = stmt_has_heap_effects;
  }

let field_load_cse m = run_cse field_cse_config m

(* ------------------------------------------------------------------ *)
(* Copy and constant propagation                                        *)
(* ------------------------------------------------------------------ *)

(* Forward in-block propagation: [map] holds, per destination symbol, the
   node that may replace a load of it, with the locals that node reads.
   While it is empty no statement can change and none is walked. *)
let propagate ~derive (m : Meth.t) =
  let map = ref [] in
  let kill_sym s =
    match !map with
    | [] -> ()
    | entries ->
        (* mappings whose replacement reads s die too *)
        let dies (dst, _, reads) = dst = s || List.mem s reads in
        if List.exists dies entries then
          map := List.filter (fun e -> not (dies e)) entries
  in
  let rec replace (n : Node.t) = function
    | [] -> n
    | (dst, (repl : Node.t), _) :: rest ->
        if dst <> n.Node.sym then replace n rest
        else if not (Types.equal repl.Node.ty n.Node.ty) then n
        else if
          (* after a self-copy [s = s], [s] maps to a load of itself:
             keep the node rather than an equal copy *)
          repl.Node.op = Opcode.Load
          && Array.length repl.Node.args = 0
          && repl.Node.sym = n.Node.sym
          && repl.Node.flags = n.Node.flags
          && Int64.equal repl.Node.const n.Node.const
        then n
        else repl
  in
  let rewrite =
    Node.map_bottom_up (fun (n : Node.t) ->
        if n.Node.op = Opcode.Load && Array.length n.Node.args = 0 then
          replace n !map
        else n)
  in
  let apply tree = match !map with [] -> tree | _ -> rewrite tree in
  let stmt (s : Node.t) =
    let s =
      match s.Node.op with
      | Opcode.Store when Array.length s.Node.args = 1 ->
          let v = s.Node.args.(0) in
          let v' = apply v in
          if v' == v then s else Node.with_args s [| v' |]
      | Opcode.Inc -> s
      | _ -> apply s
    in
    (match s.Node.op with
    | Opcode.Store when Array.length s.Node.args = 1 -> (
        kill_sym s.Node.sym;
        let dst_ty = m.Meth.symbols.(s.Node.sym).Tessera_il.Symbol.ty in
        match derive ~dst_ty s.Node.sym s.Node.args.(0) with
        | Some repl ->
            map := (s.Node.sym, repl, Treeutil.loaded_syms_of_tree repl) :: !map
        | None -> ())
    | Opcode.Inc -> kill_sym s.Node.sym
    | _ -> ());
    s
  in
  Meth.map_blocks
    (fun (b : Block.t) ->
      map := [];
      let b = Block.map_stmts stmt b in
      Block.with_term b (Block.map_terminator_nodes apply b.Block.term))
    m

let copy_prop m =
  propagate m ~derive:(fun ~dst_ty _dst (rhs : Node.t) ->
      match rhs.Node.op with
      | Opcode.Load
        when Array.length rhs.Node.args = 0
             && Types.equal rhs.Node.ty dst_ty
             && Types.equal
                  m.Meth.symbols.(rhs.Node.sym).Tessera_il.Symbol.ty dst_ty ->
          Some rhs
      | _ -> None)

let local_const_prop m =
  propagate m ~derive:(fun ~dst_ty _dst (rhs : Node.t) ->
      match rhs.Node.op with
      | Opcode.Loadconst when Types.is_integral dst_ty && Types.is_integral rhs.Node.ty ->
          Some (Node.iconst dst_ty (Semantics.truncate dst_ty rhs.Node.const))
      | Opcode.Loadconst
        when Types.is_floating dst_ty && Types.is_floating rhs.Node.ty ->
          Some (Node.fconst dst_ty (Node.const_float rhs))
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Dead code                                                            *)
(* ------------------------------------------------------------------ *)

(* In-block overwrites: a store to [t] is dead when [t] is stored again
   later in the same block with no intervening read.  Backward scan;
   blocks with a handler are skipped (the handler could observe [t] after
   a trap between the two stores).  [t] is in the overwritten set while
   [marks.(t) = stamp], one fresh stamp per block. *)
let rec unmark_reads marks (n : Node.t) =
  (match n.Node.op with
  | Opcode.Load when Array.length n.Node.args = 0 -> marks.(n.Node.sym) <- 0
  | Opcode.Inc -> marks.(n.Node.sym) <- 0
  | _ -> ());
  let args = n.Node.args in
  for i = 0 to Array.length args - 1 do
    unmark_reads marks (Array.unsafe_get args i)
  done

let eliminate_overwritten marks stamp (b : Block.t) =
  match b.Block.handler with
  | Some _ -> b
  | None ->
      (match b.Block.term with
      | Block.Goto _ | Block.Return None -> ()
      | Block.If { cond = n; _ } | Block.Return (Some n) | Block.Throw n ->
          unmark_reads marks n);
      let kept =
        List.fold_left
          (fun acc (s : Node.t) ->
            match s.Node.op with
            | Opcode.Store when Array.length s.Node.args = 1 ->
                let rhs = s.Node.args.(0) in
                if marks.(s.Node.sym) = stamp then begin
                  unmark_reads marks rhs;
                  if Node.subtree_pure rhs then acc else rhs :: acc
                end
                else begin
                  marks.(s.Node.sym) <- stamp;
                  unmark_reads marks rhs;
                  s :: acc
                end
            | Opcode.Inc ->
                (* reads and writes its symbol *)
                marks.(s.Node.sym) <- 0;
                s :: acc
            | _ ->
                unmark_reads marks s;
                s :: acc)
          []
          (List.rev b.Block.stmts)
      in
      Block.with_stmts b kept

let dead_store_elim (m : Meth.t) =
  let info = Treeutil.sym_info m in
  let dead s =
    info.Treeutil.loads.(s) = 0
    && m.Meth.symbols.(s).Tessera_il.Symbol.kind = Tessera_il.Symbol.Temp
  in
  let marks = Array.make (Array.length m.Meth.symbols) 0 in
  Meth.map_blocks
    (fun (b : Block.t) ->
      eliminate_overwritten marks (b.Block.id + 1)
        (Treeutil.filter_map_stmts
           (fun (s : Node.t) ->
             match s.Node.op with
             | Opcode.Store when Array.length s.Node.args = 1 && dead s.Node.sym
               ->
                 let rhs = s.Node.args.(0) in
                 if Node.subtree_pure rhs then None else Some rhs
             | Opcode.Inc when dead s.Node.sym -> None
             | _ -> Some s)
           b))
    m

let dead_tree_elim (m : Meth.t) =
  Meth.with_blocks m
    (Array.map
       (Treeutil.filter_map_stmts (fun (s : Node.t) ->
            if Node.subtree_pure s then None else Some s))
       m.Meth.blocks)

let unused_symbol_elim (m : Meth.t) =
  let info = Treeutil.sym_info m in
  let n = Array.length m.Meth.symbols in
  let keep =
    Array.init n (fun i ->
        m.Meth.symbols.(i).Tessera_il.Symbol.kind = Tessera_il.Symbol.Arg
        || info.Treeutil.loads.(i) > 0
        || info.Treeutil.stores.(i) > 0)
  in
  if Array.for_all Fun.id keep then m
  else begin
    let remap = Array.make n (-1) in
    let next = ref 0 in
    for i = 0 to n - 1 do
      if keep.(i) then begin
        remap.(i) <- !next;
        incr next
      end
    done;
    let symbols =
      Array.of_list
        (List.filteri (fun i _ -> keep.(i)) (Array.to_list m.Meth.symbols))
    in
    let m = Meth.with_symbols m symbols in
    Treeutil.map_method_nodes
      (Node.map_bottom_up (fun (node : Node.t) ->
           let is_local =
             match node.Node.op with
             | Opcode.Load -> Array.length node.Node.args = 0
             | Opcode.Store -> Array.length node.Node.args = 1
             | Opcode.Inc -> true
             | _ -> false
           in
           if is_local && remap.(node.Node.sym) <> node.Node.sym then
             Node.mk ~sym:remap.(node.Node.sym) ~const:node.Node.const
               ~flags:node.Node.flags node.Node.op node.Node.ty node.Node.args
           else node))
      m
  end

(* ------------------------------------------------------------------ *)
(* Control flow                                                          *)
(* ------------------------------------------------------------------ *)

let branch_fold (m : Meth.t) =
  Meth.with_blocks m
    (Array.map
       (fun (b : Block.t) ->
         match b.Block.term with
         | Block.If { cond; if_true; if_false }
           when cond.Node.op = Opcode.Loadconst ->
             let truthy =
               if Types.is_floating cond.Node.ty then Node.const_float cond <> 0.0
               else cond.Node.const <> 0L
             in
             Block.with_term b (Block.Goto (if truthy then if_true else if_false))
         | Block.If { cond; if_true; if_false } when if_true = if_false ->
             if Node.subtree_pure cond then Block.with_term b (Block.Goto if_true)
             else
               Block.with_stmts
                 (Block.with_term b (Block.Goto if_true))
                 (b.Block.stmts @ [ cond ])
         | _ -> b)
       m.Meth.blocks)

let branch_reversal (m : Meth.t) =
  Meth.with_blocks m
    (Array.map
       (fun (b : Block.t) ->
         match b.Block.term with
         | Block.If { cond; if_true; if_false } -> (
             match cond.Node.op with
             | Opcode.Compare rel
               when (rel = Opcode.Eq || rel = Opcode.Ne)
                    && Array.length cond.Node.args = 2
                    && cond.Node.args.(1).Node.op = Opcode.Loadconst
                    && cond.Node.args.(1).Node.const = 0L
                    && Types.is_integral cond.Node.args.(0).Node.ty
                    && Types.is_integral cond.Node.args.(1).Node.ty ->
                 let x = cond.Node.args.(0) in
                 if rel = Opcode.Ne then
                   Block.with_term b (Block.If { cond = x; if_true; if_false })
                 else
                   Block.with_term b
                     (Block.If { cond = x; if_true = if_false; if_false = if_true })
             | _ -> b)
         | _ -> b)
       m.Meth.blocks)

let jump_threading (m : Meth.t) =
  let n = Array.length m.Meth.blocks in
  let final = Array.make n (-1) in
  let rec resolve seen b =
    if final.(b) >= 0 then final.(b)
    else if List.mem b seen then b
    else
      let blk = m.Meth.blocks.(b) in
      let r =
        match (blk.Block.stmts, blk.Block.term) with
        | [], Block.Goto t when t <> b -> resolve (b :: seen) t
        | _ -> b
      in
      final.(b) <- r;
      r
  in
  Treeutil.retarget (fun t -> resolve [] t) m

let block_merge (m : Meth.t) =
  let rec go m budget =
    if budget = 0 then m
    else
      let cfg = Cfg.build m in
      let is_handler_target c =
        Array.exists
          (fun (b : Block.t) -> b.Block.handler = Some c)
          m.Meth.blocks
      in
      let candidate = ref None in
      Array.iteri
        (fun bi (b : Block.t) ->
          if !candidate = None then
            match b.Block.term with
            | Block.Goto c
              when c <> 0 && c <> bi
                   && Cfg.single_pred cfg c = Some bi
                   && (not (is_handler_target c))
                   && m.Meth.blocks.(c).Block.handler = b.Block.handler ->
                candidate := Some (bi, c)
            | _ -> ())
        m.Meth.blocks;
      match !candidate with
      | None -> m
      | Some (bi, c) ->
          let blocks = Array.copy m.Meth.blocks in
          let b = blocks.(bi) and cb = blocks.(c) in
          blocks.(bi) <-
            Block.with_term
              (Block.with_stmts b (b.Block.stmts @ cb.Block.stmts))
              cb.Block.term;
          (* leave c in place; it is now unreachable and compacted away *)
          go (Treeutil.compact (Meth.with_blocks m blocks)) (budget - 1)
  in
  go m 32

let unreachable_elim = Treeutil.compact

let greedy_layout (m : Meth.t) =
  let m = Loops.annotate_frequencies m in
  let n = Array.length m.Meth.blocks in
  if n <= 2 then m
  else begin
    let placed = Array.make n false in
    let order = ref [ 0 ] in
    placed.(0) <- true;
    let count = ref 1 in
    let cur = ref 0 in
    while !count < n do
      let succs = Block.successors m.Meth.blocks.(!cur) in
      let next =
        List.filter (fun s -> not placed.(s)) succs
        |> List.sort (fun a b ->
               compare m.Meth.blocks.(b).Block.freq m.Meth.blocks.(a).Block.freq)
        |> function
        | s :: _ -> s
        | [] ->
            (* lowest unplaced id: keeps loop headers before their bodies *)
            let rec find i = if placed.(i) then find (i + 1) else i in
            find 0
      in
      placed.(next) <- true;
      order := next :: !order;
      incr count;
      cur := next
    done;
    Treeutil.reorder m (Array.of_list (List.rev !order))
  end

let block_layout = greedy_layout

let cold_outline (m : Meth.t) =
  let n = Array.length m.Meth.blocks in
  if n <= 2 then m
  else begin
    let is_handler = Array.make n false in
    Array.iter
      (fun (b : Block.t) ->
        match b.Block.handler with Some h -> is_handler.(h) <- true | None -> ())
      m.Meth.blocks;
    let cold i =
      i <> 0
      && (is_handler.(i)
         ||
         match m.Meth.blocks.(i).Block.term with
         | Block.Throw _ -> true
         | _ -> false)
    in
    let hot = List.init n Fun.id |> List.filter (fun i -> not (cold i)) in
    let colds = List.init n Fun.id |> List.filter cold in
    if colds = [] then m
    else Treeutil.reorder m (Array.of_list (hot @ colds))
  end

let profile_block_order (m : Meth.t) =
  let m = Loops.annotate_frequencies m in
  let n = Array.length m.Meth.blocks in
  if n <= 2 then m
  else
    let rest = List.init (n - 1) (fun i -> i + 1) in
    let rest =
      List.stable_sort
        (fun a b ->
          compare m.Meth.blocks.(b).Block.freq m.Meth.blocks.(a).Block.freq)
        rest
    in
    Treeutil.reorder m (Array.of_list (0 :: rest))

let return_merge (m : Meth.t) =
  let groups : (string, int list ref) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun i (b : Block.t) ->
      if b.Block.stmts = [] then
        let key =
          match b.Block.term with
          | Block.Return None -> Some "ret"
          | Block.Return (Some v) when v.Node.op = Opcode.Loadconst ->
              Some
                (Printf.sprintf "ret:%s:%Ld" (Types.name v.Node.ty) v.Node.const)
          | _ -> None
        in
        match key with
        | Some k -> (
            match Hashtbl.find_opt groups k with
            | Some l -> l := i :: !l
            | None -> Hashtbl.add groups k (ref [ i ]))
        | None -> ())
    m.Meth.blocks;
  let remap = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ l ->
      match List.rev !l with
      | rep :: rest when rest <> [] ->
          List.iter (fun i -> Hashtbl.replace remap i rep) rest
      | _ -> ())
    groups;
  if Hashtbl.length remap = 0 then m
  else
    Treeutil.compact
      (Treeutil.retarget
         (fun t -> match Hashtbl.find_opt remap t with Some r -> r | None -> t)
         m)

let throw_to_goto (m : Meth.t) =
  Meth.with_blocks m
    (Array.map
       (fun (b : Block.t) ->
         match (b.Block.term, b.Block.handler) with
         | Block.Throw v, Some h ->
             Block.with_stmts
               (Block.with_term b (Block.Goto h))
               (b.Block.stmts @ [ v ])
         | _ -> b)
       m.Meth.blocks)

(* ------------------------------------------------------------------ *)
(* Check elimination                                                    *)
(* ------------------------------------------------------------------ *)

(* Proven-fact tracking within a block over register-only trees; each
   fact keeps its hash and the locals it reads, for kills. *)
module Facts = struct
  type fact = { hash : int; tree : Node.t; loaded : int list }
  type t = fact list ref

  let create () : t = ref []

  let rec mem_in h tree = function
    | [] -> false
    | f :: rest ->
        (f.hash = h && Node.structural_equal f.tree tree) || mem_in h tree rest

  let mem (t : t) tree = mem_in (Node.structural_hash tree) tree !t

  let add (t : t) tree =
    if register_only tree then begin
      let h = Node.structural_hash tree in
      if not (mem_in h tree !t) then
        t := { hash = h; tree; loaded = Treeutil.loaded_syms_of_tree tree } :: !t
    end

  let kill_stores (t : t) stmt =
    match !t with
    | [] -> ()
    | facts ->
        let stored = Treeutil.stored_syms_of_tree stmt in
        if stored <> [] then
          t := List.filter (fun f -> not (stores_any_of stored f.loaded)) facts
end

(* A bounds fact is the pair (array tree, index tree), encoded as a
   two-child Mixedop so Facts can reuse structural equality. *)
let pair_key a i = Node.mk Opcode.Mixedop Types.Void [| a; i |]

let bounds_check_elim (m : Meth.t) =
  Meth.map_blocks
    (fun (b : Block.t) ->
      let proven = Facts.create () in
      Treeutil.filter_map_stmts
        (fun (s : Node.t) ->
          let keep =
            match s.Node.op with
            | Opcode.Arrayop Opcode.Bounds_check
              when register_only s.Node.args.(0)
                   && register_only s.Node.args.(1) ->
                let key = pair_key s.Node.args.(0) s.Node.args.(1) in
                if Facts.mem proven key then None
                else begin
                  Facts.add proven key;
                  Some s
                end
            | _ -> Some s
          in
          Facts.kill_stores proven s;
          keep)
        b)
    m

let flag_covered_accesses ~get_key ~flag (m : Meth.t) =
  Meth.map_blocks
    (fun (b : Block.t) ->
      let proven = Facts.create () in
      let process tree =
        (* flag nodes proven by earlier statements, then record the
           facts this statement establishes *)
        let tree' =
          Node.map_bottom_up
            (fun (n : Node.t) ->
              match get_key n with
              | Some key when Facts.mem proven key -> Node.with_flags n flag
              | _ -> n)
            tree
        in
        Node.fold
          (fun () (n : Node.t) ->
            match get_key n with Some key -> Facts.add proven key | None -> ())
          () tree';
        tree'
      in
      let b =
        Block.map_stmts
          (fun s ->
            let s' = process s in
            Facts.kill_stores proven s';
            s')
          b
      in
      Block.with_term b (Block.map_terminator_nodes process b.Block.term))
    m

let loop_bounds_flags m =
  flag_covered_accesses m ~flag:Node.flag_no_bounds_check
    ~get_key:(fun (n : Node.t) ->
      match (n.Node.op, Array.length n.Node.args) with
      | Opcode.Arrayop Opcode.Bounds_check, _ | Opcode.Load, 2 ->
          if register_only n.Node.args.(0) && register_only n.Node.args.(1) then
            Some (pair_key n.Node.args.(0) n.Node.args.(1))
          else None
      | Opcode.Store, 3 ->
          if register_only n.Node.args.(0) && register_only n.Node.args.(1) then
            Some (pair_key n.Node.args.(0) n.Node.args.(1))
          else None
      | _ -> None)

let null_check_elim m =
  flag_covered_accesses m ~flag:Node.flag_no_null_check
    ~get_key:(fun (n : Node.t) ->
      match (n.Node.op, Array.length n.Node.args) with
      | Opcode.Load, (1 | 2) | Opcode.Store, (2 | 3) | Opcode.Arrayop _, _
      | Opcode.Synchronization _, 1 ->
          if Array.length n.Node.args > 0 && register_only n.Node.args.(0) then
            Some n.Node.args.(0)
          else None
      | _ -> None)

let compact_null_checks (m : Meth.t) =
  if Array.length m.Meth.blocks = 0 then m
  else begin
    let info = Treeutil.sym_info m in
    (* arguments proven non-null by a field access in the entry block and
       never reassigned *)
    let proven = Hashtbl.create 4 in
    List.iter
      (fun (s : Node.t) ->
        Node.fold
          (fun () (n : Node.t) ->
            match (n.Node.op, Array.length n.Node.args) with
            | (Opcode.Load, (1 | 2)) | (Opcode.Store, (2 | 3)) ->
                let recv = n.Node.args.(0) in
                if
                  recv.Node.op = Opcode.Load
                  && Array.length recv.Node.args = 0
                  && m.Meth.symbols.(recv.Node.sym).Tessera_il.Symbol.kind
                     = Tessera_il.Symbol.Arg
                  && info.Treeutil.stores.(recv.Node.sym) = 0
                then Hashtbl.replace proven recv.Node.sym ()
            | _ -> ())
          () s)
      m.Meth.blocks.(0).Block.stmts;
    if Hashtbl.length proven = 0 then m
    else
      Treeutil.map_method_nodes
        (Node.map_bottom_up (fun (n : Node.t) ->
             match (n.Node.op, Array.length n.Node.args) with
             | (Opcode.Load, (1 | 2)) | (Opcode.Store, (2 | 3)) ->
                 let recv = n.Node.args.(0) in
                 if
                   recv.Node.op = Opcode.Load
                   && Array.length recv.Node.args = 0
                   && Hashtbl.mem proven recv.Node.sym
                 then Node.with_flags n Node.flag_no_null_check
                 else n
             | _ -> n))
        m
  end

let monitor_pair_elim (m : Meth.t) =
  Meth.with_blocks m
    (Array.map
       (fun (b : Block.t) ->
         let proven = Facts.create () in
         let rec go = function
           | [] -> []
           | (s : Node.t) :: rest -> (
               let record () =
                 (match s.Node.op with
                 | Opcode.Synchronization _ when Array.length s.Node.args = 1 ->
                     Facts.add proven s.Node.args.(0)
                 | _ -> ());
                 Facts.kill_stores proven s
               in
               match (s.Node.op, rest) with
               | ( Opcode.Synchronization Opcode.Monitor_exit,
                   (next : Node.t) :: rest' )
                 when next.Node.op
                      = Opcode.Synchronization Opcode.Monitor_enter
                      && Array.length s.Node.args = 1
                      && Array.length next.Node.args = 1
                      && Node.structural_equal s.Node.args.(0)
                           next.Node.args.(0)
                      && register_only s.Node.args.(0)
                      && Facts.mem proven s.Node.args.(0) ->
                   go rest'
               | _ ->
                   record ();
                   s :: go rest)
         in
         Block.with_stmts b (go b.Block.stmts))
       m.Meth.blocks)
