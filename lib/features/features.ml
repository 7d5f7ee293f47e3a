module Types = Tessera_il.Types
module Opcode = Tessera_il.Opcode
module Node = Tessera_il.Node
module Block = Tessera_il.Block
module Meth = Tessera_il.Meth

type t = int array

module Summary = Tessera_analysis.Summary

let scalar_count = 19

let analysis_count = Summary.count

let dim = scalar_count + Types.count + Opcode.group_count + analysis_count

let many_iteration_nest_threshold = 2

let many_iteration_trip_threshold = 64L

let short_trip_threshold = 16L

(* Loop-bound evidence from a loop header's exit test: [Some c] when the
   header compares an evolving value against the constant [c]. *)
let header_bound (m : Meth.t) header =
  match m.Meth.blocks.(header).Block.term with
  | Block.If { cond; _ } -> (
      match cond.Node.op with
      | Opcode.Compare _
        when Array.length cond.Node.args = 2
             && cond.Node.args.(1).Node.op = Opcode.Loadconst
             && Types.is_integral cond.Node.args.(1).Node.ty ->
          Some cond.Node.args.(1).Node.const
      | _ -> None)
  | _ -> None

type loop_attributes = {
  may_have_loops : bool;
  many_iteration_loops : bool;
  may_have_many_iteration_loops : bool;
}

let loop_attributes m =
  let la = Tessera_opt.Loops.analyze m in
  let may_have_loops = Meth.has_backward_branch m in
  let many = ref false and may_many = ref false in
  List.iter
    (fun (l : Tessera_opt.Loops.loop) ->
      if l.Tessera_opt.Loops.depth >= many_iteration_nest_threshold then begin
        many := true;
        may_many := true
      end;
      match header_bound m l.Tessera_opt.Loops.header with
      | Some c ->
          if Int64.compare c many_iteration_trip_threshold >= 0 then begin
            many := true;
            may_many := true
          end
          else if Int64.compare c short_trip_threshold >= 0 then
            may_many := true
      | None -> may_many := true (* unknown bound: assume it may iterate *))
    la.Tessera_opt.Loops.loops;
  {
    may_have_loops;
    many_iteration_loops = !many;
    may_have_many_iteration_loops = !may_many && may_have_loops;
  }

let sat limit v = if v > limit then limit else v

let extract ?program (m : Meth.t) : t =
  let f = Array.make dim 0 in
  let b v = if v then 1 else 0 in
  let a = m.Meth.attrs in
  let loops = loop_attributes m in
  f.(0) <- Meth.exception_handler_count m;
  f.(1) <- Meth.arg_count m;
  f.(2) <- Meth.temp_count m;
  f.(3) <- Meth.tree_count m;
  f.(4) <- b a.Meth.constructor;
  f.(5) <- b a.Meth.final;
  f.(6) <- b a.Meth.protected_;
  f.(7) <- b a.Meth.public;
  f.(8) <- b a.Meth.static;
  f.(9) <- b a.Meth.synchronized;
  f.(10) <- b loops.many_iteration_loops;
  f.(11) <- b loops.may_have_loops;
  f.(12) <- b loops.may_have_many_iteration_loops;
  f.(14) <- b a.Meth.uses_unsafe;
  f.(15) <- b a.Meth.uses_bigdecimal;
  f.(16) <- b a.Meth.virtual_overridden;
  f.(17) <- b a.Meth.strictfp;
  (* distributions: one pass over the trees *)
  let uses_fp = ref false and allocates = ref false in
  Meth.fold_nodes
    (fun () (n : Node.t) ->
      let ti = scalar_count + Types.index n.Node.ty in
      f.(ti) <- sat 65535 (f.(ti) + 1);
      let oi = scalar_count + Types.count + Opcode.group n.Node.op in
      f.(oi) <- sat 255 (f.(oi) + 1);
      if Types.is_floating n.Node.ty then uses_fp := true;
      match n.Node.op with
      | Opcode.New | Opcode.Newarray | Opcode.Newmultiarray -> allocates := true
      | _ -> ())
    () m;
  f.(13) <- b !allocates;
  f.(18) <- b !uses_fp;
  let analysis = Summary.to_array (Summary.of_meth ?program m) in
  Array.blit analysis 0 f (scalar_count + Types.count + Opcode.group_count)
    analysis_count;
  f

let get (f : t) i = f.(i)

let to_array (f : t) = Array.copy f

let of_array arr =
  if Array.length arr <> dim then invalid_arg "Features.of_array: wrong length";
  Array.copy arr

let scalar_names =
  [|
    "exceptionHandlers"; "arguments"; "temporaries"; "treeNodes";
    "constructor"; "final"; "protected"; "public"; "static"; "synchronized";
    "manyIterationLoops"; "mayHaveLoops"; "mayHaveManyIterationLoops";
    "allocatesDynamicMemory"; "unsafeSymbols"; "usesBigDecimal";
    "virtualMethodOverridden"; "strictFloatingPoint"; "usesFloatingPoint";
  |]

let component_name i =
  if i < 0 || i >= dim then invalid_arg "Features.component_name"
  else if i < scalar_count then scalar_names.(i)
  else if i < scalar_count + Types.count then
    "type:" ^ Types.name (Types.of_index (i - scalar_count))
  else if i < scalar_count + Types.count + Opcode.group_count then
    "op:" ^ Opcode.group_name (i - scalar_count - Types.count)
  else
    "dataflow:"
    ^ Summary.names.(i - scalar_count - Types.count - Opcode.group_count)

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) = Stdlib.compare a b

let hash (f : t) = Hashtbl.hash f

let pp fmt (f : t) =
  Format.fprintf fmt "[";
  Array.iteri
    (fun i v -> if v <> 0 then Format.fprintf fmt " %s=%d" (component_name i) v)
    f;
  Format.fprintf fmt " ]"

(* Layout self-check, replacing the former [assert (dim = 71)] magic
   number: the named components must tile the whole vector with no
   gaps or collisions, whatever the section sizes are. *)
let () =
  let seen = Hashtbl.create dim in
  for i = 0 to dim - 1 do
    let name = component_name i in
    if String.length name = 0 then
      invalid_arg (Printf.sprintf "Features: component %d has an empty name" i);
    match Hashtbl.find_opt seen name with
    | Some j ->
        invalid_arg
          (Printf.sprintf "Features: components %d and %d share the name %S" j
             i name)
    | None -> Hashtbl.add seen name i
  done
