module Block = Tessera_il.Block
module Meth = Tessera_il.Meth

type t = {
  preds : int list array;
  succs : int list array;
  reachable : bool array;
  rpo : int array;
}

let build (m : Meth.t) =
  let n = Array.length m.blocks in
  let succs = Array.map Block.successors m.blocks in
  let preds = Array.make n [] in
  Array.iteri
    (fun b ts -> List.iter (fun t -> preds.(t) <- b :: preds.(t)) ts)
    succs;
  Array.iteri (fun b l -> preds.(b) <- List.rev l) preds;
  let reachable = Array.make n false in
  let rec visit b =
    if not reachable.(b) then begin
      reachable.(b) <- true;
      List.iter visit succs.(b);
      match m.blocks.(b).Block.handler with Some h -> visit h | None -> ()
    end
  in
  if n > 0 then visit 0;
  (* Reverse post-order over normal edges. *)
  let seen = Array.make n false in
  let post = ref [] in
  let rec dfs b =
    if not seen.(b) then begin
      seen.(b) <- true;
      List.iter dfs succs.(b);
      post := b :: !post
    end
  in
  if n > 0 then dfs 0;
  { preds; succs; reachable; rpo = Array.of_list !post }

let single_pred t b = match t.preds.(b) with [ p ] -> Some p | _ -> None

(* Cooper, Harvey and Kennedy, "A Simple, Fast Dominance Algorithm":
   iterate [idom b = fold intersect (processed preds of b)] over reverse
   postorder until nothing changes.  [intersect] climbs the tree from
   whichever finger sits later in reverse postorder. *)
let dominators (m : Meth.t) =
  let blocks = m.Meth.blocks in
  let n = Array.length blocks in
  let idom = Array.make n (-1) in
  if n > 0 then begin
    (* depth-first over normal and handler edges: the predecessors of
       reachable blocks, and each block's position in reverse postorder
       ([order], -1 until visited; [rpo] filled from the back) *)
    let preds = Array.make n [] in
    let order = Array.make n (-1) in
    let rpo = Array.make n 0 in
    let next = ref n in
    let rec visit b =
      order.(b) <- 0;
      let edge s =
        preds.(s) <- b :: preds.(s);
        if order.(s) < 0 then visit s
      in
      Option.iter edge blocks.(b).Block.handler;
      List.iter edge (Block.successors blocks.(b));
      decr next;
      rpo.(!next) <- b;
      order.(b) <- !next
    in
    visit 0;
    let rec intersect a b =
      if a = b then a
      else if order.(a) > order.(b) then intersect idom.(a) b
      else intersect a idom.(b)
    in
    idom.(0) <- 0;
    let changed = ref true in
    while !changed do
      changed := false;
      for i = !next + 1 to n - 1 do
        let b = rpo.(i) in
        let d =
          List.fold_left
            (fun d p ->
              if idom.(p) < 0 then d else if d < 0 then p else intersect p d)
            (-1) preds.(b)
        in
        if idom.(b) <> d then begin
          idom.(b) <- d;
          changed := true
        end
      done
    done
  end;
  idom

let dominates idom x b =
  let rec up b = b = x || (b <> 0 && up idom.(b)) in
  idom.(b) < 0 || up b
