(* Non-recursive dispatch loop over the flat form: the engine's one
   loop, for interpreted methods and compiled code alike.

   Observable behaviour — returned value, raised trap, every ctx.charge
   amount and every fuel decrement, in order — is bit-identical to the
   tree walker [Vm.Interp.run] on the same method.  The win is purely
   host-side: no closure recursion, no per-node allocation, operands on
   a preallocated stack sized by the verifier.

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

let run (ctx : context) (p : Prog.t) args =
  let nloc = Array.length p.local_types in
  let env = Array.make nloc Void_v in
  for i = 0 to nloc - 1 do
    if i < Array.length args && p.local_is_arg.(i) then
      env.(i) <- Semantics.store_coerce p.local_types.(i) args.(i)
    else env.(i) <- default p.local_types.(i)
  done;
  let stack = Array.make (if p.max_stack < 1 then 1 else p.max_stack) Void_v in
  let sp = ref 0 in
  (* the verifier bounds every stack index by [max_stack], every pc by
     the terminator discipline: unchecked accesses are safe here *)
  let[@inline] push v =
    Array.unsafe_set stack !sp v;
    incr sp
  in
  let[@inline] pop () =
    decr sp;
    Array.unsafe_get stack !sp
  in
  let fuel = ctx.Vm_interp.fuel in
  let[@inline] fuel_event () =
    if !fuel <= 0 then raise Vm_interp.Out_of_fuel;
    decr fuel
  in
  let instrs = p.instrs in
  let pool = p.pool in
  let classes = ctx.Vm_interp.classes in
  let pc = ref 0 in
  let cur = ref 0 in
  let steps = ref 0 in
  (* the charge closure is selected once per run: with the profiler off
     the hot loop pays exactly one branch here; with it on, every
     charged cycle is attributed to the instruction at [cur] *)
  let charge =
    if !Profile.enabled then (fun c ->
      Profile.charge ~meth:p.method_name
        ~block:(Array.unsafe_get p.block_of_pc !cur)
        ~op:(Prog.kind_name (Prog.kind (Array.unsafe_get instrs !cur)))
        c;
      ctx.Vm_interp.charge c)
    else ctx.Vm_interp.charge
  in
  if p.sync_charge > 0 then charge p.sync_charge;
  let result = ref Void_v in
  let running = ref true in
  (* the trap handler lives outside the dispatch loop — zero cost per
     instruction — and re-enters it after redirecting to a handler
     block; [cur] remembers the faulting instruction *)
  let rec dispatch () =
    try
      while !running do
        let this_pc = !pc in
        cur := this_pc;
        pc := this_pc + 1;
        if !Trace.enabled then begin
          incr steps;
          if !steps land 0xFFFF = 0 then
            Trace.instant ~cat:"flat"
              ~args:[ ("executed", Trace.Int (Int64.of_int !steps)) ]
              "dispatch"
        end;
        match Array.unsafe_get instrs this_pc with
      | Prog.Enter -> fuel_event ()
      | Prog.Begin c ->
          fuel_event ();
          charge c
      | Prog.Charge c -> charge c
      | Prog.Const (c, k) ->
          fuel_event ();
          charge c;
          push pool.(k)
      | Prog.Load_local (c, s) ->
          fuel_event ();
          charge c;
          push env.(s)
      | Prog.Inc_local (c, s, d, ty) ->
          fuel_event ();
          charge c;
          env.(s) <- Int_v (truncate ty (Int64.add (as_int env.(s)) d));
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
      | Prog.Invoke (callee, argc, c) ->
          sp := !sp - argc;
          let actuals = Array.sub stack !sp argc in
          if c > 0 then charge c;
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
      | Prog.Br_false t -> if not (is_truthy (pop ())) then pc := t
      | Prog.Ret_void -> running := false
      | Prog.Ret_val ->
          result := Semantics.store_coerce p.ret (pop ());
          running := false
      | Prog.Raise_user -> raise (Trap User_exception)
      (* superinstructions: exact two-half sequences in one dispatch *)
      | Prog.F_enter_begin c ->
          pc := this_pc + 2;
          if !fuel > 1 then begin
            fuel := !fuel - 2;
            charge c
          end
          else begin
            fuel_event ();
            fuel_event ();
            charge c
          end
      | Prog.F_begin_begin (c1, c2) ->
          pc := this_pc + 2;
          if !fuel > 1 then begin
            fuel := !fuel - 2;
            charge (c1 + c2)
          end
          else begin
            fuel_event ();
            charge c1;
            fuel_event ();
            charge c2
          end
      | Prog.F_begin_load (c1, c2, s) ->
          pc := this_pc + 2;
          if !fuel > 1 then begin
            fuel := !fuel - 2;
            charge (c1 + c2)
          end
          else begin
            fuel_event ();
            charge c1;
            fuel_event ();
            charge c2
          end;
          push env.(s)
      | Prog.F_begin_const (c1, c2, k) ->
          pc := this_pc + 2;
          if !fuel > 1 then begin
            fuel := !fuel - 2;
            charge (c1 + c2)
          end
          else begin
            fuel_event ();
            charge c1;
            fuel_event ();
            charge c2
          end;
          push pool.(k)
      | Prog.F_load_load (c1, s1, c2, s2) ->
          pc := this_pc + 2;
          if !fuel > 1 then begin
            fuel := !fuel - 2;
            charge (c1 + c2);
            push env.(s1);
            push env.(s2)
          end
          else begin
            fuel_event ();
            charge c1;
            push env.(s1);
            fuel_event ();
            charge c2;
            push env.(s2)
          end
      | Prog.F_load_binop (c, s, op, ty) ->
          pc := this_pc + 2;
          fuel_event ();
          charge c;
          let a = pop () in
          push (Semantics.binop op ty a env.(s))
      | Prog.F_const_binop (c, k, op, ty) ->
          pc := this_pc + 2;
          fuel_event ();
          charge c;
          let a = pop () in
          push (Semantics.binop op ty a pool.(k))
      | Prog.F_load_store (c, src, dst, dty) ->
          pc := this_pc + 2;
          fuel_event ();
          charge c;
          env.(dst) <- Semantics.store_coerce dty env.(src);
          push Void_v
      | Prog.F_binop_store (op, ty, dst, dty) ->
          pc := this_pc + 2;
          let b = pop () in
          let a = pop () in
          env.(dst) <- Semantics.store_coerce dty (Semantics.binop op ty a b);
          push Void_v
      | Prog.F_store_pop (s, ty) ->
          pc := this_pc + 2;
          env.(s) <- Semantics.store_coerce ty (pop ())
      | Prog.F_inc_pop (c, s, d, ty) ->
          pc := this_pc + 2;
          fuel_event ();
          charge c;
          env.(s) <- Int_v (truncate ty (Int64.add (as_int env.(s)) d))
      | Prog.F_pop_begin c ->
          pc := this_pc + 2;
          decr sp;
          fuel_event ();
          charge c
      | Prog.F_load_const (c1, s, c2, k) ->
          pc := this_pc + 2;
          if !fuel > 1 then begin
            fuel := !fuel - 2;
            charge (c1 + c2);
            push env.(s);
            push pool.(k)
          end
          else begin
            fuel_event ();
            charge c1;
            push env.(s);
            fuel_event ();
            charge c2;
            push pool.(k)
          end
      | Prog.F_load_begin (c1, s, c2) ->
          pc := this_pc + 2;
          if !fuel > 1 then begin
            fuel := !fuel - 2;
            charge (c1 + c2);
            push env.(s)
          end
          else begin
            fuel_event ();
            charge c1;
            push env.(s);
            fuel_event ();
            charge c2
          end
      | Prog.F_binop_binop (op1, ty1, op2, ty2) ->
          pc := this_pc + 2;
          let b = pop () in
          let a = pop () in
          let r = Semantics.binop op1 ty1 a b in
          let a2 = pop () in
          push (Semantics.binop op2 ty2 a2 r)
      done
    with Trap k ->
      charge Cost.exception_unwind;
      let h = p.handler_of_block.(p.block_of_pc.(!cur)) in
      if h < 0 then raise (Trap k)
      else begin
        sp := 0;
        pc := p.block_entry.(h);
        dispatch ()
      end
  in
  dispatch ();
  !result

(* A separate dispatch loop that additionally tallies executed
   (kind, next-kind) pairs — the census behind the static fusion table.
   Kept out of [run] so the hot loop carries no counting overhead; only
   `bench flat` uses this.  Accepts unfused programs only. *)
let run_counted ~pairs (ctx : context) (p : Prog.t) args =
  if p.fused_pairs > 0 then
    invalid_arg "Flat.Interp.run_counted: program already fused";
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
          env.(s) <- Int_v (truncate ty (Int64.add (as_int env.(s)) d));
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
      | Prog.Invoke (callee, argc, c) ->
          sp := !sp - argc;
          let actuals = Array.sub stack !sp argc in
          if c > 0 then charge c;
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
      | Prog.Br_false t -> if not (is_truthy (pop ())) then pc := t
      | Prog.Ret_void -> running := false
      | Prog.Ret_val ->
          result := Semantics.store_coerce p.ret (pop ());
          running := false
      | Prog.Raise_user -> raise (Trap User_exception)
      | Prog.F_enter_begin _ | Prog.F_begin_begin _ | Prog.F_begin_load _
      | Prog.F_begin_const _ | Prog.F_load_load _ | Prog.F_load_binop _
      | Prog.F_const_binop _ | Prog.F_load_store _ | Prog.F_binop_store _
      | Prog.F_store_pop _ | Prog.F_inc_pop _ | Prog.F_pop_begin _
      | Prog.F_load_const _ | Prog.F_load_begin _ | Prog.F_binop_binop _ ->
          assert false
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
