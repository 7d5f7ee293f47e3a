module Block = Tessera_il.Block
module Meth = Tessera_il.Meth

type loop = { header : int; body : int list; depth : int }

type t = { loops : loop list; depth_of : int array }

let analyze (m : Meth.t) =
  let n = Array.length m.blocks in
  let cfg = Cfg.build m in
  let idom = Cfg.dominators m in
  (* Back edges: b -> h where h dominates b (id-order irrelevant; layout
     passes renumber blocks freely), from reachable blocks only: an
     unreachable block has no dominator chain to walk.  Natural loop of
     (b, h): h plus all blocks that reach b without passing through h. *)
  let back_edges = ref [] in
  Array.iteri
    (fun b succs ->
      if cfg.Cfg.reachable.(b) then
        List.iter
          (fun h ->
            if Cfg.dominates idom h b then
              back_edges := (b, h) :: !back_edges)
          succs)
    cfg.Cfg.succs;
  let loop_of (b, h) =
    let in_loop = Array.make n false in
    in_loop.(h) <- true;
    let rec pull x =
      if not in_loop.(x) then begin
        in_loop.(x) <- true;
        List.iter pull cfg.Cfg.preds.(x)
      end
    in
    pull b;
    let body = ref [] in
    for i = n - 1 downto 0 do
      if in_loop.(i) then body := i :: !body
    done;
    (h, !body)
  in
  (* Merge loops sharing a header. *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let h, body = loop_of e in
      let prev = try Hashtbl.find tbl h with Not_found -> [] in
      Hashtbl.replace tbl h (List.sort_uniq compare (prev @ body)))
    !back_edges;
  let depth_of = Array.make n 0 in
  Hashtbl.iter
    (fun _ body -> List.iter (fun b -> depth_of.(b) <- depth_of.(b) + 1) body)
    tbl;
  let loops =
    Hashtbl.fold
      (fun header body acc -> { header; body; depth = depth_of.(header) } :: acc)
      tbl []
    |> List.sort (fun a b -> compare a.header b.header)
  in
  { loops; depth_of }

let loop_count t = List.length t.loops

let max_depth t = Array.fold_left max 0 t.depth_of

let annotate_frequencies (m : Meth.t) =
  let { depth_of; _ } = analyze m in
  let blocks =
    Array.mapi
      (fun i b -> Block.with_freq b (10.0 ** float_of_int depth_of.(i)))
      m.blocks
  in
  Meth.with_blocks m blocks

let is_self_loop (m : Meth.t) l =
  match l.body with
  | [ b ] -> b = l.header && List.mem b (Block.successors m.blocks.(b))
  | _ -> false
