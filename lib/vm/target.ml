module Opcode = Tessera_il.Opcode
module Types = Tessera_il.Types
module Node = Tessera_il.Node

type t = {
  name : string;
  mem_factor : float;
  branch_factor : float;
  fp_factor : float;
  decimal_factor : float;
  call_overhead : int;
  local_access : codegen_quality:Cost.codegen_quality -> int;
}

let zircon =
  {
    name = "zircon";
    mem_factor = 1.0;
    branch_factor = 1.0;
    fp_factor = 1.0;
    decimal_factor = 1.0;
    call_overhead = Cost.call_overhead;
    local_access = (fun ~codegen_quality -> Cost.local_access codegen_quality);
  }

let obsidian =
  {
    name = "obsidian";
    mem_factor = 1.8;
    branch_factor = 0.6;
    fp_factor = 0.8;
    decimal_factor = 3.0;
    call_overhead = 28;
    local_access =
      (fun ~codegen_quality ->
        (* bigger register file: register-allocated locals are free-ish,
           but spills to memory cost the full memory factor *)
        match codegen_quality with
        | Cost.Q_base -> 3
        | Cost.Q_regalloc | Cost.Q_full -> 1);
  }

let all = [ zircon; obsidian ]

let find name = List.find_opt (fun t -> String.equal t.name name) all

let[@inline] category_factor t (op : Opcode.t) ty =
  let decimal =
    match ty with
    | Types.Packed_decimal | Types.Zoned_decimal | Types.Long_double ->
        t.decimal_factor
    | _ -> 1.0
  in
  let shape =
    match op with
    | Opcode.Load | Opcode.Store | Opcode.New | Opcode.Newarray
    | Opcode.Newmultiarray | Opcode.Arrayop _ ->
        t.mem_factor
    | Opcode.Branch_op | Opcode.Call | Opcode.Throw_op -> t.branch_factor
    | _ -> if Types.is_floating ty then t.fp_factor else 1.0
  in
  shape *. decimal

let op_cost t op ty =
  int_of_float (ceil (float_of_int (Cost.op_base op ty) *. category_factor t op ty))

(* the flag discount is scaled by the same factor and never exceeds the
   cost; the factor is taken once *)
let node_cost t (n : Node.t) =
  let f = category_factor t n.Node.op n.Node.ty in
  let cost = int_of_float (ceil (float_of_int (Cost.op_base n.Node.op n.Node.ty) *. f)) in
  cost - min (int_of_float (ceil (float_of_int (Cost.flag_discount n) *. f))) cost
