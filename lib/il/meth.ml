type attrs = {
  constructor : bool;
  final : bool;
  protected_ : bool;
  public : bool;
  static : bool;
  synchronized : bool;
  strictfp : bool;
  virtual_overridden : bool;
  uses_unsafe : bool;
  uses_bigdecimal : bool;
}

let default_attrs =
  {
    constructor = false;
    final = false;
    protected_ = false;
    public = true;
    static = true;
    synchronized = false;
    strictfp = false;
    virtual_overridden = false;
    uses_unsafe = false;
    uses_bigdecimal = false;
  }

type t = {
  name : string;
  attrs : attrs;
  params : Types.t array;
  ret : Types.t;
  symbols : Symbol.t array;
  blocks : Block.t array;
  (* fingerprint memo; every constructor below resets it, so a derived
     method can never inherit a stale hash.  Concurrent writers race
     benignly: both compute the same value. *)
  mutable fp_memo : int64 option;
}

let make ?(attrs = default_attrs) ~name ~params ~ret ~symbols blocks =
  { name; attrs; params; ret; symbols; blocks; fp_memo = None }

let same_blocks a b =
  a == b || (Array.length a = Array.length b && Array.for_all2 ( == ) a b)

let with_blocks m blocks =
  if same_blocks m.blocks blocks then m else { m with blocks; fp_memo = None }

(* [blocks] is copied only once [f] changes a block *)
let map_blocks f m =
  let blocks = m.blocks in
  let out = ref blocks in
  for i = 0 to Array.length blocks - 1 do
    let b = Array.unsafe_get blocks i in
    let b' = f b in
    if b' != b then begin
      if !out == blocks then out := Array.copy blocks;
      Array.unsafe_set !out i b'
    end
  done;
  if !out == blocks then m else { m with blocks = !out; fp_memo = None }

let with_symbols m symbols = { m with symbols; fp_memo = None }

let arg_count m =
  Array.fold_left
    (fun acc (s : Symbol.t) -> if s.kind = Symbol.Arg then acc + 1 else acc)
    0 m.symbols

let temp_count m = Array.length m.symbols - arg_count m

let block m id =
  if id < 0 || id >= Array.length m.blocks then
    invalid_arg (Printf.sprintf "Meth.block: no block %d in %s" id m.name);
  m.blocks.(id)

let tree_count m =
  Array.fold_left (fun acc b -> acc + Block.tree_count b) 0 m.blocks

let iter_trees f m =
  Array.iter
    (fun (b : Block.t) ->
      List.iter f b.stmts;
      match b.term with
      | Block.Goto _ | Block.Return None -> ()
      | Block.If { cond = n; _ } | Block.Return (Some n) | Block.Throw n -> f n)
    m.blocks

let fold_nodes f acc m =
  let acc = ref acc in
  iter_trees (fun root -> acc := Node.fold f !acc root) m;
  !acc

let map_trees f m = map_blocks (Block.map_nodes f) m

let exception_handler_count m =
  let handlers = Hashtbl.create 4 in
  Array.iter
    (fun (b : Block.t) ->
      match b.handler with
      | Some h -> Hashtbl.replace handlers h ()
      | None -> ())
    m.blocks;
  Hashtbl.length handlers

let has_backward_branch m =
  Array.exists
    (fun (b : Block.t) ->
      match b.term with
      | Block.Goto t -> t <= b.id
      | Block.If { if_true; if_false; _ } -> if_true <= b.id || if_false <= b.id
      | Block.Return _ | Block.Throw _ -> false)
    m.blocks

module H = Tessera_util.Hash64

let hash_node acc root =
  Node.fold
    (fun acc (n : Node.t) ->
      let acc = H.string acc (Opcode.name n.op) in
      let acc = H.int acc (Types.index n.ty) in
      let acc = H.int acc n.sym in
      let acc = H.int64 acc n.const in
      let acc = H.int acc n.flags in
      H.int acc (Array.length n.args))
    acc root

let hash_term acc = function
  | Block.Goto x -> H.int (H.byte acc 1) x
  | Block.If { cond; if_true; if_false } ->
      H.int (H.int (hash_node (H.byte acc 2) cond) if_true) if_false
  | Block.Return None -> H.byte acc 3
  | Block.Return (Some n) -> hash_node (H.byte acc 4) n
  | Block.Throw n -> hash_node (H.byte acc 5) n

let fingerprint_uncached m =
  let acc = H.string H.init m.name in
  let acc =
    List.fold_left H.bool acc
      [
        m.attrs.constructor; m.attrs.final; m.attrs.protected_;
        m.attrs.public; m.attrs.static; m.attrs.synchronized;
        m.attrs.strictfp; m.attrs.virtual_overridden;
        m.attrs.uses_unsafe; m.attrs.uses_bigdecimal;
      ]
  in
  let acc =
    Array.fold_left (fun acc ty -> H.int acc (Types.index ty)) acc m.params
  in
  let acc = H.int acc (Types.index m.ret) in
  let acc =
    Array.fold_left
      (fun acc (s : Symbol.t) ->
        let acc = H.string acc s.name in
        let acc = H.int acc (Types.index s.ty) in
        H.byte acc (match s.kind with Symbol.Arg -> 0 | Symbol.Temp -> 1))
      acc m.symbols
  in
  Array.fold_left
    (fun acc (b : Block.t) ->
      let acc = H.int acc b.id in
      let acc = H.int acc (match b.handler with None -> -1 | Some h -> h) in
      let acc = H.int64 acc (Int64.bits_of_float b.freq) in
      let acc = List.fold_left hash_node acc b.stmts in
      hash_term acc b.term)
    acc m.blocks

let fingerprint m =
  match m.fp_memo with
  | Some fp -> fp
  | None ->
      let fp = fingerprint_uncached m in
      m.fp_memo <- Some fp;
      fp

let term_equal (a : Block.terminator) (b : Block.terminator) =
  match (a, b) with
  | Block.Goto x, Block.Goto y -> x = y
  | Block.If a', Block.If b' ->
      a'.if_true = b'.if_true && a'.if_false = b'.if_false
      && Node.structural_equal a'.cond b'.cond
  | Block.Return None, Block.Return None -> true
  | Block.Return (Some x), Block.Return (Some y) -> Node.structural_equal x y
  | Block.Throw x, Block.Throw y -> Node.structural_equal x y
  | _ -> false

let equal a b =
  String.equal a.name b.name && a.attrs = b.attrs && a.ret = b.ret
  && a.params = b.params
  && Array.length a.symbols = Array.length b.symbols
  && Array.for_all2 Symbol.equal a.symbols b.symbols
  && Array.length a.blocks = Array.length b.blocks
  && Array.for_all2
       (fun (x : Block.t) (y : Block.t) ->
         x.id = y.id && x.handler = y.handler
         && List.length x.stmts = List.length y.stmts
         && List.for_all2 Node.structural_equal x.stmts y.stmts
         && term_equal x.term y.term)
       a.blocks b.blocks

let pp fmt m =
  Format.fprintf fmt "@[<v 2>method %S {" m.name;
  Array.iteri
    (fun i s -> Format.fprintf fmt "@,$%d = %a" i Symbol.pp s)
    m.symbols;
  Array.iter (fun b -> Format.fprintf fmt "@,%a" Block.pp b) m.blocks;
  Format.fprintf fmt "@]@,}"
