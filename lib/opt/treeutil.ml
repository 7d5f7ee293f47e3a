module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Node = Tessera_il.Node
module Block = Tessera_il.Block
module Meth = Tessera_il.Meth
module Symbol = Tessera_il.Symbol

let map_block_nodes = Block.map_nodes

let map_method_nodes = Meth.map_trees

(* [List.filter_map] that returns [l] itself when [f] keeps every
   element unchanged; elements are visited first to last *)
let rec filter_map_shared f l =
  match l with
  | [] -> l
  | x :: rest -> (
      let y = f x in
      let rest' = filter_map_shared f rest in
      match y with
      | Some y -> if y == x && rest' == rest then l else y :: rest'
      | None -> rest')

let filter_map_stmts f (b : Block.t) =
  Block.with_stmts b (filter_map_shared f b.Block.stmts)

(* [f] sees, block by block, an [If]'s false target, then its true
   target, then the handler.  [Passes_block.jump_threading] memoizes
   inside [f], so this order decides which block represents a cycle of
   empty gotos. *)
let retarget_block f (b : Block.t) =
  let term =
    match b.Block.term with
    | Block.Goto t ->
        let t' = f t in
        if t' = t then b.Block.term else Block.Goto t'
    | Block.If ({ if_true; if_false; _ } as r) ->
        let if_false' = f if_false in
        let if_true' = f if_true in
        if if_true' = if_true && if_false' = if_false then b.Block.term
        else Block.If { r with if_true = if_true'; if_false = if_false' }
    | (Block.Return _ | Block.Throw _) as t -> t
  in
  let handler =
    match b.Block.handler with
    | None -> None
    | Some h as old ->
        let h' = f h in
        if h' = h then old else Some h'
  in
  if term == b.Block.term && handler == b.Block.handler then b
  else { b with Block.term; handler }

let retarget f (m : Meth.t) = Meth.map_blocks (retarget_block f) m

let compact (m : Meth.t) =
  let cfg = Cfg.build m in
  let n = Array.length m.blocks in
  let all = Array.for_all (fun r -> r) cfg.Cfg.reachable in
  if all then m
  else begin
    let remap = Array.make n (-1) in
    let next = ref 0 in
    for i = 0 to n - 1 do
      if cfg.Cfg.reachable.(i) then begin
        remap.(i) <- !next;
        incr next
      end
    done;
    let kept =
      Array.of_list
        (List.filteri
           (fun i _ -> cfg.Cfg.reachable.(i))
           (Array.to_list m.blocks))
    in
    let kept = Array.mapi (fun i (b : Block.t) -> { b with Block.id = i }) kept in
    retarget (fun t -> remap.(t)) (Meth.with_blocks m kept)
  end

let reorder (m : Meth.t) order =
  let n = Array.length m.blocks in
  if Array.length order <> n then invalid_arg "Treeutil.reorder: bad order";
  if n > 0 && order.(0) <> 0 then
    invalid_arg "Treeutil.reorder: entry must stay first";
  let new_id_of_old = Array.make n (-1) in
  Array.iteri (fun newi oldi -> new_id_of_old.(oldi) <- newi) order;
  if Array.exists (fun x -> x < 0) new_id_of_old then
    invalid_arg "Treeutil.reorder: not a permutation";
  let rec identity i = i = n || (order.(i) = i && identity (i + 1)) in
  if identity 0 then m
  else
    let blocks =
      Array.mapi
        (fun newi oldi -> { (m.Meth.blocks.(oldi)) with Block.id = newi })
        order
    in
    retarget (fun t -> new_id_of_old.(t)) (Meth.with_blocks m blocks)

type sym_info = {
  loads : int array;
  stores : int array;
  escapes : bool array;
}

let sym_info (m : Meth.t) =
  let n = Array.length m.symbols in
  let info =
    { loads = Array.make n 0; stores = Array.make n 0; escapes = Array.make n false }
  in
  let mark_escape (k : Node.t) =
    if k.Node.op = Opcode.Load && Array.length k.Node.args = 0 then
      info.escapes.(k.Node.sym) <- true
  in
  let visit (n : Node.t) =
    match n.Node.op with
    | Opcode.Load when Array.length n.Node.args = 0 ->
        info.loads.(n.Node.sym) <- info.loads.(n.Node.sym) + 1
    | Opcode.Store when Array.length n.Node.args = 1 ->
        info.stores.(n.Node.sym) <- info.stores.(n.Node.sym) + 1
    | Opcode.Store when Array.length n.Node.args = 3 ->
        (* value operand of an array store escapes *)
        mark_escape n.Node.args.(2)
    | Opcode.Store when Array.length n.Node.args = 2 ->
        mark_escape n.Node.args.(1)
    | Opcode.Inc -> info.stores.(n.Node.sym) <- info.stores.(n.Node.sym) + 1
    | Opcode.Call | Opcode.Mixedop | Opcode.Throw_op ->
        Array.iter mark_escape n.Node.args
    | Opcode.Arrayop Opcode.Array_copy -> Array.iter mark_escape n.Node.args
    | _ -> ()
  in
  Meth.fold_nodes (fun () k -> visit k) () m;
  Array.iter
    (fun (b : Block.t) ->
      match b.Block.term with
      | Block.Return (Some v) ->
          Node.fold (fun () k -> mark_escape k) () v;
          mark_escape v
      | Block.Throw v -> mark_escape v
      | _ -> ())
    m.blocks;
  info

let stored_syms_of_tree root =
  Node.fold
    (fun acc (n : Node.t) ->
      match n.Node.op with
      | Opcode.Store when Array.length n.Node.args = 1 -> n.Node.sym :: acc
      | Opcode.Inc -> n.Node.sym :: acc
      | _ -> acc)
    [] root
  |> List.sort_uniq compare

let loaded_syms_of_tree root =
  Node.fold
    (fun acc (n : Node.t) ->
      match n.Node.op with
      | Opcode.Load when Array.length n.Node.args = 0 -> n.Node.sym :: acc
      | Opcode.Inc -> n.Node.sym :: acc
      | _ -> acc)
    [] root
  |> List.sort_uniq compare

let tree_reads_memory root =
  Node.exists
    (fun (n : Node.t) ->
      match n.Node.op with
      | Opcode.Load -> Array.length n.Node.args > 0
      | Opcode.Call | Opcode.Mixedop | Opcode.Arrayop _ -> true
      | _ -> false)
    root

let tree_writes_memory root =
  Node.exists
    (fun (n : Node.t) ->
      match n.Node.op with
      | Opcode.Store -> Array.length n.Node.args > 1
      | Opcode.Call | Opcode.New | Opcode.Newarray | Opcode.Newmultiarray
      | Opcode.Synchronization _ | Opcode.Throw_op ->
          true
      | Opcode.Arrayop Opcode.Array_copy -> true
      | _ -> false)
    root

let fresh_temp (m : Meth.t) name ty =
  let id = Array.length m.symbols in
  let symbols = Array.append m.symbols [| Symbol.temp name ty |] in
  (Meth.with_symbols m symbols, id)
