(* Non-recursive dispatch loop over the flat form: the engine's one
   loop, for interpreted methods and compiled code alike.

   Observable behaviour — returned value, raised trap, the cycle total
   at every point the clock can be read, and every fuel decrement, in
   order — is bit-identical to the tree walker [Vm.Interp.run] on the
   same method.  The win is purely host-side: no closure recursion, no
   per-node allocation, operands on a preallocated stack sized by the
   verifier, one clock update per straight-line run of charges (see
   [flush]).

   Fuel follows the check-then-decrement discipline of Vm.Interp (a
   caller granting n fuel executes exactly n fuel-charging steps).
   Superinstructions whose two halves both consume fuel take a merged
   fast path when fuel is plentiful and fall back to the exact unfused
   event sequence near exhaustion, so the out-of-fuel point and the
   cycles charged before it never differ from the tree walker. *)

module Values = Tessera_vm.Values
module Semantics = Tessera_vm.Semantics
module Cost = Tessera_vm.Cost
module Vm_interp = Tessera_vm.Interp
module Trace = Tessera_obs.Trace
module Profile = Tessera_obs.Profile
open Values

type context = Vm_interp.context

(* One activation's mutable state.  The actions below are top-level
   functions over it, so a call allocates no closure for them. *)
type frame = {
  env : Values.t array;
  stack : Values.t array;
  mutable sp : int;
  mutable pc : int;
  mutable cur : int;  (** the executing instruction, for traps and profiles *)
  mutable pending : int;  (** charged cycles not yet handed to [ctx.charge] *)
  mutable result : Values.t;
  mutable running : bool;
}

(* the verifier bounds every stack index by [max_stack], every pc by
   the terminator discipline: unchecked accesses are safe here *)
let[@inline] push fr v =
  Array.unsafe_set fr.stack fr.sp v;
  fr.sp <- fr.sp + 1

let[@inline] pop fr =
  let sp = fr.sp - 1 in
  fr.sp <- sp;
  Array.unsafe_get fr.stack sp

let[@inline] fuel_event fuel =
  if !fuel <= 0 then raise Vm_interp.Out_of_fuel;
  decr fuel

(* charges gather in [pending] and reach [ctx.charge] only where the
   clock can be read: before a call, at return, before an exception
   leaves the loop and before a trace instant.  The clock only adds, so
   every reading sees the same total. *)
let flush (ctx : context) fr =
  let c = fr.pending in
  if c <> 0 then begin
    fr.pending <- 0;
    ctx.Vm_interp.charge c
  end

let profile_charge (p : Prog.t) fr c =
  Profile.charge ~meth:p.method_name
    ~block:(Array.unsafe_get p.block_of_pc fr.cur)
    ~op:(Prog.kind_name (Prog.kind (Array.unsafe_get p.instrs fr.cur)))
    c

(* each action once, for its interpreted and its compiled opcode *)
let[@inline] inc fr s d ty = fr.env.(s) <- Semantics.inc ty fr.env.(s) d
let[@inline] store fr s ty = fr.env.(s) <- Semantics.store_coerce ty (pop fr)
let[@inline] field_load fr f = push fr (Semantics.field_load (pop fr) f)

let[@inline] field_store fr f =
  let v = pop fr in
  let o = pop fr in
  Semantics.field_store o f v

let[@inline] elem_load fr =
  let i = pop fr in
  let a = pop fr in
  push fr (Semantics.elem_load a i)

let[@inline] elem_store fr =
  let v = pop fr in
  let i = pop fr in
  let a = pop fr in
  Semantics.elem_store a i v

let[@inline] binop fr op ty =
  let b = pop fr in
  let a = pop fr in
  push fr (Semantics.binop op ty a b)

let[@inline] new_multi fr ty =
  let d2 = pop fr in
  let d1 = pop fr in
  push fr (Semantics.new_multiarray ~elem:ty d1 d2)

let[@inline] actuals fr argc =
  fr.sp <- fr.sp - argc;
  Array.sub fr.stack fr.sp argc

let call (ctx : context) fr callee argc =
  let args = actuals fr argc in
  flush ctx fr;
  ctx.Vm_interp.invoke callee args

let[@inline] bounds_chk fr =
  let i = pop fr in
  let a = pop fr in
  Semantics.bounds_check a i

(* [arr_copy] and [arr_cmp] return the elements they touched, for the
   caller to charge *)
let arr_copy fr =
  let l = pop fr in
  let d = pop fr in
  let s = pop fr in
  Semantics.array_copy s d l

let arr_cmp fr =
  let b = pop fr in
  let a = pop fr in
  let r, inspected = Semantics.array_cmp a b in
  push fr r;
  inspected

let[@inline] ret_val (p : Prog.t) fr =
  fr.result <- Semantics.store_coerce p.ret (pop fr);
  fr.running <- false

let run (ctx : context) (p : Prog.t) args =
  let nloc = Array.length p.local_types in
  let env = Array.make nloc Void_v in
  for i = 0 to nloc - 1 do
    if i < Array.length args && p.local_is_arg.(i) then
      env.(i) <- Semantics.store_coerce p.local_types.(i) args.(i)
    else env.(i) <- default p.local_types.(i)
  done;
  let fr =
    {
      env;
      stack = Array.make (if p.max_stack < 1 then 1 else p.max_stack) Void_v;
      sp = 0;
      pc = 0;
      cur = 0;
      pending = 0;
      result = Void_v;
      running = true;
    }
  in
  let fuel = ctx.Vm_interp.fuel in
  let instrs = p.instrs in
  let pool = p.pool in
  let classes = ctx.Vm_interp.classes in
  let steps = ref 0 in
  (* with the profiler on, every charge is also attributed at once to
     the instruction at [fr.cur] *)
  let profiling = !Profile.enabled in
  let[@inline] charge c =
    if profiling then profile_charge p fr c;
    fr.pending <- fr.pending + c
  in
  (* the fuel event and static charge every leaf, [Begin] and compiled
     opcode starts with *)
  let[@inline] step c =
    fuel_event fuel;
    charge c
  in
  if p.sync_charge > 0 then charge p.sync_charge;
  (* the trap handler lives outside the dispatch loop — zero cost per
     instruction — and re-enters it after redirecting to a handler
     block; [fr.cur] remembers the faulting instruction *)
  let rec dispatch () =
    try
      while fr.running do
        let this_pc = fr.pc in
        fr.cur <- this_pc;
        fr.pc <- this_pc + 1;
        if !Trace.enabled then begin
          incr steps;
          if !steps land 0xFFFF = 0 then begin
            flush ctx fr;
            Trace.instant ~cat:"flat"
              ~args:[ ("executed", Trace.Int (Int64.of_int !steps)) ]
              "dispatch"
          end
        end;
        match Array.unsafe_get instrs this_pc with
      | Prog.Enter -> fuel_event fuel
      | Prog.Begin c -> step c
      | Prog.Charge c -> charge c
      | Prog.Const (c, k) ->
          step c;
          push fr pool.(k)
      | Prog.Load_local (c, s) ->
          step c;
          push fr env.(s)
      | Prog.Inc_local (c, s, d, ty) ->
          step c;
          inc fr s d ty;
          push fr Void_v
      | Prog.New_obj (c, cls) ->
          step c;
          push fr (Semantics.new_obj ~classes cls)
      | Prog.Void_leaf c ->
          step c;
          push fr Void_v
      | Prog.Store_local (s, ty) ->
          store fr s ty;
          push fr Void_v
      | Prog.Field_load f -> field_load fr f
      | Prog.Field_store f ->
          field_store fr f;
          push fr Void_v
      | Prog.Elem_load -> elem_load fr
      | Prog.Elem_store ->
          elem_store fr;
          push fr Void_v
      | Prog.Binop (op, ty) -> binop fr op ty
      | Prog.Negate ty -> push fr (Semantics.neg ty (pop fr))
      | Prog.Cast_to (k, ty) -> push fr (Semantics.cast k ty (pop fr))
      | Prog.Checkcast cls ->
          push fr (Semantics.checkcast ~classes cls (pop fr))
      | Prog.New_arr ty -> push fr (Semantics.new_array ~elem:ty (pop fr))
      | Prog.New_multi ty -> new_multi fr ty
      | Prog.Instance_of cls ->
          push fr (Semantics.instanceof ~classes cls (pop fr))
      | Prog.Monitor ->
          Semantics.monitor (pop fr);
          push fr Void_v
      | Prog.Drop_void -> fr.stack.(fr.sp - 1) <- Void_v
      | Prog.Invoke (callee, argc) ->
          charge Cost.interp_call_overhead;
          push fr (call ctx fr callee argc)
      | Prog.Mixed (argc, ty) -> push fr (Semantics.mixed ty (actuals fr argc))
      | Prog.Bounds_chk ->
          bounds_chk fr;
          push fr Void_v
      | Prog.Arr_copy ->
          charge (arr_copy fr * Cost.per_element_copy);
          push fr Void_v
      | Prog.Arr_cmp -> charge (arr_cmp fr * Cost.per_element_copy)
      | Prog.Arr_len -> push fr (Semantics.array_length (pop fr))
      | Prog.Pop -> fr.sp <- fr.sp - 1
      | Prog.Jmp t -> fr.pc <- t
      | Prog.Cond_br (t, f) -> fr.pc <- (if is_truthy (pop fr) then t else f)
      | Prog.Ret_void -> fr.running <- false
      | Prog.Ret_val -> ret_val p fr
      | Prog.Raise_user -> raise (Trap User_exception)
      (* superinstructions: exact two-half sequences in one dispatch *)
      | Prog.F_enter_begin c ->
          fr.pc <- this_pc + 2;
          if !fuel > 1 then begin
            fuel := !fuel - 2;
            charge c
          end
          else begin
            fuel_event fuel;
            step c
          end
      | Prog.F_begin_begin (c1, c2) ->
          fr.pc <- this_pc + 2;
          if !fuel > 1 then begin
            fuel := !fuel - 2;
            charge (c1 + c2)
          end
          else begin
            step c1;
            step c2
          end
      | Prog.F_begin_load (c1, c2, s) ->
          fr.pc <- this_pc + 2;
          if !fuel > 1 then begin
            fuel := !fuel - 2;
            charge (c1 + c2)
          end
          else begin
            step c1;
            step c2
          end;
          push fr env.(s)
      | Prog.F_begin_const (c1, c2, k) ->
          fr.pc <- this_pc + 2;
          if !fuel > 1 then begin
            fuel := !fuel - 2;
            charge (c1 + c2)
          end
          else begin
            step c1;
            step c2
          end;
          push fr pool.(k)
      | Prog.F_load_load (c1, s1, c2, s2) ->
          fr.pc <- this_pc + 2;
          if !fuel > 1 then begin
            fuel := !fuel - 2;
            charge (c1 + c2);
            push fr env.(s1);
            push fr env.(s2)
          end
          else begin
            step c1;
            push fr env.(s1);
            step c2;
            push fr env.(s2)
          end
      | Prog.F_load_binop (c, s, op, ty) ->
          fr.pc <- this_pc + 2;
          step c;
          let a = pop fr in
          push fr (Semantics.binop op ty a env.(s))
      | Prog.F_const_binop (c, k, op, ty) ->
          fr.pc <- this_pc + 2;
          step c;
          let a = pop fr in
          push fr (Semantics.binop op ty a pool.(k))
      | Prog.F_load_store (c, src, dst, dty) ->
          fr.pc <- this_pc + 2;
          step c;
          env.(dst) <- Semantics.store_coerce dty env.(src);
          push fr Void_v
      | Prog.F_binop_store (op, ty, dst, dty) ->
          fr.pc <- this_pc + 2;
          let b = pop fr in
          let a = pop fr in
          env.(dst) <- Semantics.store_coerce dty (Semantics.binop op ty a b);
          push fr Void_v
      | Prog.F_store_pop (s, ty) ->
          fr.pc <- this_pc + 2;
          store fr s ty
      | Prog.F_inc_pop (c, s, d, ty) ->
          fr.pc <- this_pc + 2;
          step c;
          inc fr s d ty
      | Prog.F_pop_begin c ->
          fr.pc <- this_pc + 2;
          fr.sp <- fr.sp - 1;
          step c
      | Prog.F_load_const (c1, s, c2, k) ->
          fr.pc <- this_pc + 2;
          if !fuel > 1 then begin
            fuel := !fuel - 2;
            charge (c1 + c2);
            push fr env.(s);
            push fr pool.(k)
          end
          else begin
            step c1;
            push fr env.(s);
            step c2;
            push fr pool.(k)
          end
      | Prog.F_load_begin (c1, s, c2) ->
          fr.pc <- this_pc + 2;
          if !fuel > 1 then begin
            fuel := !fuel - 2;
            charge (c1 + c2);
            push fr env.(s)
          end
          else begin
            step c1;
            push fr env.(s);
            step c2
          end
      | Prog.F_binop_binop (op1, ty1, op2, ty2) ->
          fr.pc <- this_pc + 2;
          let b = pop fr in
          let a = pop fr in
          let r = Semantics.binop op1 ty1 a b in
          let a2 = pop fr in
          push fr (Semantics.binop op2 ty2 a2 r)
      (* compiled code: fuel, static cost, action *)
      | Prog.C_inc_local (c, s, d, ty) ->
          step c;
          inc fr s d ty
      | Prog.C_store_local (c, s, ty) ->
          step c;
          store fr s ty
      | Prog.C_field_load (c, f) ->
          step c;
          field_load fr f
      | Prog.C_field_store (c, f) ->
          step c;
          field_store fr f
      | Prog.C_elem_load c ->
          step c;
          elem_load fr
      | Prog.C_elem_store c ->
          step c;
          elem_store fr
      | Prog.C_binop (c, op, ty) ->
          step c;
          binop fr op ty
      | Prog.C_negate (c, ty) ->
          step c;
          push fr (Semantics.neg ty (pop fr))
      | Prog.C_cast_to (c, k, ty) ->
          step c;
          push fr (Semantics.cast k ty (pop fr))
      | Prog.C_checkcast (c, cls) ->
          step c;
          push fr (Semantics.checkcast ~classes cls (pop fr))
      | Prog.C_new_arr (c, ty) ->
          step c;
          push fr (Semantics.new_array ~elem:ty (pop fr))
      | Prog.C_new_multi (c, ty) ->
          step c;
          new_multi fr ty
      | Prog.C_instance_of (c, cls) ->
          step c;
          push fr (Semantics.instanceof ~classes cls (pop fr))
      | Prog.C_monitor c ->
          step c;
          Semantics.monitor (pop fr)
      | Prog.C_invoke (c, callee, argc, pushes) ->
          step c;
          let r = call ctx fr callee argc in
          if pushes then push fr r
      | Prog.C_mixed (c, argc, ty, pushes) ->
          step c;
          let r = Semantics.mixed ty (actuals fr argc) in
          if pushes then push fr r
      | Prog.C_bounds_chk c ->
          step c;
          bounds_chk fr
      | Prog.C_arr_copy c ->
          step c;
          charge (arr_copy fr * Cost.per_element_copy)
      | Prog.C_arr_cmp c ->
          step c;
          charge (arr_cmp fr * Cost.per_element_copy)
      | Prog.C_arr_len c ->
          step c;
          push fr (Semantics.array_length (pop fr))
      | Prog.C_pop c ->
          step c;
          fr.sp <- fr.sp - 1
      | Prog.C_jmp (c, t) ->
          step c;
          fr.pc <- t
      | Prog.C_br_false (c, t) ->
          step c;
          if not (is_truthy (pop fr)) then fr.pc <- t
      | Prog.C_ret_void c ->
          step c;
          fr.running <- false
      | Prog.C_ret_val c ->
          step c;
          ret_val p fr
      | Prog.C_raise c ->
          step c;
          raise (Trap User_exception)
      done
    with Trap k ->
      charge Cost.exception_unwind;
      let h = p.handler_of_block.(p.block_of_pc.(fr.cur)) in
      if h < 0 then raise (Trap k)
      else begin
        fr.sp <- 0;
        fr.pc <- p.block_entry.(h);
        dispatch ()
      end
  in
  (match dispatch () with
  | () -> flush ctx fr
  | exception e ->
      flush ctx fr;
      raise e);
  fr.result

(* A separate dispatch loop that additionally tallies executed
   (kind, next-kind) pairs — the census behind the static fusion table.
   Kept out of [run] so the hot loop carries no counting overhead; only
   `bench flat` uses this.  Accepts unfused interpreted programs only. *)
let run_counted ~pairs (ctx : context) (p : Prog.t) args =
  if p.fused_pairs > 0 then
    invalid_arg "Flat.Interp.run_counted: program already fused";
  if Array.exists Prog.is_compiled_op p.instrs then
    invalid_arg "Flat.Interp.run_counted: compiled code";
  if Array.length pairs <> Prog.kind_count * Prog.kind_count then
    invalid_arg "Flat.Interp.run_counted: bad pair matrix";
  let nloc = Array.length p.local_types in
  let env = Array.make nloc Void_v in
  for i = 0 to nloc - 1 do
    if i < Array.length args && p.local_is_arg.(i) then
      env.(i) <- Semantics.store_coerce p.local_types.(i) args.(i)
    else env.(i) <- default p.local_types.(i)
  done;
  let stack = Array.make (if p.max_stack < 1 then 1 else p.max_stack) Void_v in
  let sp = ref 0 in
  let push v =
    stack.(!sp) <- v;
    incr sp
  in
  let pop () =
    decr sp;
    stack.(!sp)
  in
  let fuel = ctx.Vm_interp.fuel in
  let charge = ctx.Vm_interp.charge in
  let fuel_event () =
    if !fuel <= 0 then raise Vm_interp.Out_of_fuel;
    decr fuel
  in
  if p.sync_charge > 0 then charge p.sync_charge;
  let instrs = p.instrs in
  let pool = p.pool in
  let classes = ctx.Vm_interp.classes in
  let pc = ref 0 in
  let prev = ref (-1) in
  let result = ref Void_v in
  let running = ref true in
  while !running do
    let this_pc = !pc in
    pc := this_pc + 1;
    let k = Prog.kind instrs.(this_pc) in
    if !prev >= 0 then begin
      let cell = (!prev * Prog.kind_count) + k in
      pairs.(cell) <- pairs.(cell) + 1
    end;
    prev := k;
    try
      match instrs.(this_pc) with
      | Prog.Enter -> fuel_event ()
      | Prog.Begin c ->
          fuel_event ();
          charge c
      | Prog.Charge c -> charge c
      | Prog.Const (c, kk) ->
          fuel_event ();
          charge c;
          push pool.(kk)
      | Prog.Load_local (c, s) ->
          fuel_event ();
          charge c;
          push env.(s)
      | Prog.Inc_local (c, s, d, ty) ->
          fuel_event ();
          charge c;
          env.(s) <- Semantics.inc ty env.(s) d;
          push Void_v
      | Prog.New_obj (c, cls) ->
          fuel_event ();
          charge c;
          push (Semantics.new_obj ~classes cls)
      | Prog.Void_leaf c ->
          fuel_event ();
          charge c;
          push Void_v
      | Prog.Store_local (s, ty) ->
          env.(s) <- Semantics.store_coerce ty (pop ());
          push Void_v
      | Prog.Field_load f -> push (Semantics.field_load (pop ()) f)
      | Prog.Field_store f ->
          let v = pop () in
          let o = pop () in
          Semantics.field_store o f v;
          push Void_v
      | Prog.Elem_load ->
          let i = pop () in
          let a = pop () in
          push (Semantics.elem_load a i)
      | Prog.Elem_store ->
          let v = pop () in
          let i = pop () in
          let a = pop () in
          Semantics.elem_store a i v;
          push Void_v
      | Prog.Binop (op, ty) ->
          let b = pop () in
          let a = pop () in
          push (Semantics.binop op ty a b)
      | Prog.Negate ty -> push (Semantics.neg ty (pop ()))
      | Prog.Cast_to (k, ty) -> push (Semantics.cast k ty (pop ()))
      | Prog.Checkcast cls -> push (Semantics.checkcast ~classes cls (pop ()))
      | Prog.New_arr ty -> push (Semantics.new_array ~elem:ty (pop ()))
      | Prog.New_multi ty ->
          let d2 = pop () in
          let d1 = pop () in
          push (Semantics.new_multiarray ~elem:ty d1 d2)
      | Prog.Instance_of cls ->
          push (Semantics.instanceof ~classes cls (pop ()))
      | Prog.Monitor ->
          Semantics.monitor stack.(!sp - 1);
          stack.(!sp - 1) <- Void_v
      | Prog.Drop_void -> stack.(!sp - 1) <- Void_v
      | Prog.Invoke (callee, argc) ->
          sp := !sp - argc;
          let actuals = Array.sub stack !sp argc in
          charge Cost.interp_call_overhead;
          push (ctx.Vm_interp.invoke callee actuals)
      | Prog.Mixed (argc, ty) ->
          sp := !sp - argc;
          let actuals = Array.sub stack !sp argc in
          push (Semantics.mixed ty actuals)
      | Prog.Bounds_chk ->
          let i = pop () in
          let a = pop () in
          Semantics.bounds_check a i;
          push Void_v
      | Prog.Arr_copy ->
          let l = pop () in
          let d = pop () in
          let s = pop () in
          let copied = Semantics.array_copy s d l in
          charge (copied * Cost.per_element_copy);
          push Void_v
      | Prog.Arr_cmp ->
          let b = pop () in
          let a = pop () in
          let r, inspected = Semantics.array_cmp a b in
          charge (inspected * Cost.per_element_copy);
          push r
      | Prog.Arr_len -> push (Semantics.array_length (pop ()))
      | Prog.Pop -> decr sp
      | Prog.Jmp t -> pc := t
      | Prog.Cond_br (t, f) -> pc := (if is_truthy (pop ()) then t else f)
      | Prog.Ret_void -> running := false
      | Prog.Ret_val ->
          result := Semantics.store_coerce p.ret (pop ());
          running := false
      | Prog.Raise_user -> raise (Trap User_exception)
      | Prog.F_enter_begin _ | Prog.F_begin_begin _ | Prog.F_begin_load _
      | Prog.F_begin_const _ | Prog.F_load_load _ | Prog.F_load_binop _
      | Prog.F_const_binop _ | Prog.F_load_store _ | Prog.F_binop_store _
      | Prog.F_store_pop _ | Prog.F_inc_pop _ | Prog.F_pop_begin _
      | Prog.F_load_const _ | Prog.F_load_begin _ | Prog.F_binop_binop _
      | Prog.C_inc_local _ | Prog.C_store_local _ | Prog.C_field_load _
      | Prog.C_field_store _ | Prog.C_elem_load _ | Prog.C_elem_store _
      | Prog.C_binop _ | Prog.C_negate _ | Prog.C_cast_to _
      | Prog.C_checkcast _ | Prog.C_new_arr _ | Prog.C_new_multi _
      | Prog.C_instance_of _ | Prog.C_monitor _ | Prog.C_invoke _
      | Prog.C_mixed _ | Prog.C_bounds_chk _ | Prog.C_arr_copy _
      | Prog.C_arr_cmp _ | Prog.C_arr_len _ | Prog.C_pop _ | Prog.C_jmp _
      | Prog.C_br_false _ | Prog.C_ret_void _ | Prog.C_ret_val _
      | Prog.C_raise _ ->
          (* rejected above; listed so a new opcode must be placed here *)
          invalid_arg "Flat.Interp.run_counted: fused or compiled opcode"
    with Trap k ->
      charge Cost.exception_unwind;
      let h = p.handler_of_block.(p.block_of_pc.(this_pc)) in
      if h < 0 then raise (Trap k)
      else begin
        sp := 0;
        pc := p.block_entry.(h)
      end
  done;
  !result
