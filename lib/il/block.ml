type terminator =
  | Goto of int
  | If of { cond : Node.t; if_true : int; if_false : int }
  | Return of Node.t option
  | Throw of Node.t

type t = {
  id : int;
  stmts : Node.t list;
  term : terminator;
  handler : int option;
  freq : float;
}

let make ?(handler = None) ?(freq = 1.0) id stmts term =
  { id; stmts; term; handler; freq }

(* The [with_*] constructors hand back [b] itself when the new field
   equals the old one, so a pass that changes nothing returns its input. *)
let rec same_nodes a b =
  a == b
  ||
  match (a, b) with
  | x :: a', y :: b' -> x == y && same_nodes a' b'
  | _ -> false

let same_term a b =
  a == b
  ||
  match (a, b) with
  | Goto x, Goto y -> x = y
  | If x, If y ->
      x.cond == y.cond && x.if_true = y.if_true && x.if_false = y.if_false
  | Return (Some x), Return (Some y) | Throw x, Throw y -> x == y
  | Return None, Return None -> true
  | _ -> false

let with_stmts b stmts = if same_nodes b.stmts stmts then b else { b with stmts }
let with_term b term = if same_term b.term term then b else { b with term }

let with_freq b freq =
  if Int64.bits_of_float b.freq = Int64.bits_of_float freq then b
  else { b with freq }

let successors b =
  match b.term with
  | Goto t -> [ t ]
  | If { if_true; if_false; _ } ->
      if if_true = if_false then [ if_true ] else [ if_true; if_false ]
  | Return _ | Throw _ -> []

let terminator_nodes = function
  | Goto _ -> []
  | If { cond; _ } -> [ cond ]
  | Return (Some n) -> [ n ]
  | Return None -> []
  | Throw n -> [ n ]

let map_terminator_nodes f term =
  match term with
  | Goto _ | Return None -> term
  | If ({ cond; _ } as r) ->
      let cond' = f cond in
      if cond' == cond then term else If { r with cond = cond' }
  | Return (Some n) ->
      let n' = f n in
      if n' == n then term else Return (Some n')
  | Throw n ->
      let n' = f n in
      if n' == n then term else Throw n'

(* [List.map] that returns [l] itself when [f] changes no element;
   elements are visited first to last *)
let rec map_nodes_shared f l =
  match l with
  | [] -> l
  | x :: rest ->
      let x' = f x in
      let rest' = map_nodes_shared f rest in
      if x' == x && rest' == rest then l else x' :: rest'

let map_stmts f b =
  let stmts = map_nodes_shared f b.stmts in
  if stmts == b.stmts then b else { b with stmts }

let map_nodes f b =
  let stmts = map_nodes_shared f b.stmts in
  let term = map_terminator_nodes f b.term in
  if stmts == b.stmts && term == b.term then b else { b with stmts; term }

let tree_count b =
  let stmt_nodes = List.fold_left (fun acc n -> acc + Node.size n) 0 b.stmts in
  match b.term with
  | Goto _ | Return None -> stmt_nodes
  | If { cond = n; _ } | Return (Some n) | Throw n -> stmt_nodes + Node.size n

let pp_term fmt = function
  | Goto t -> Format.fprintf fmt "goto L%d" t
  | If { cond; if_true; if_false } ->
      Format.fprintf fmt "if %a then L%d else L%d" Node.pp cond if_true
        if_false
  | Return None -> Format.fprintf fmt "return"
  | Return (Some n) -> Format.fprintf fmt "return %a" Node.pp n
  | Throw n -> Format.fprintf fmt "throw %a" Node.pp n

let pp fmt b =
  Format.fprintf fmt "@[<v 2>L%d%s:" b.id
    (match b.handler with
    | None -> ""
    | Some h -> Printf.sprintf " [handler L%d]" h);
  List.iter (fun s -> Format.fprintf fmt "@,%a" Node.pp s) b.stmts;
  Format.fprintf fmt "@,%a@]" pp_term b.term
