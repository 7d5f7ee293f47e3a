(* Non-recursive dispatch loop over the flat form: the engine's one
   loop, for interpreted methods and compiled code alike.

   Observable behaviour — returned value, raised trap, the cycle total
   at every point the clock can be read, and every fuel decrement, in
   order — is bit-identical to the tree walker [Vm.Interp.run] on the
   same method.  The win is purely host-side: no closure recursion, no
   per-node allocation, operands on a preallocated stack sized by the
   verifier, and a hot path that decides nothing it could have decided
   earlier:
   - a charge is one add to [pending], which reaches the clock only
     where the clock can be read (see [flush]);
   - the profiler, the trace's [dispatch] instant and the pair census
     are fed from one observation point at the dispatch head
     ([observe]), behind one test of an observer chosen once per run;
   - [dispatch], [charge] and [step] are top-level functions over the
     context, the program and the frame, so a call allocates no
     closure;
   - every binary operator arrives resolved to its [Semantics] kernel,
     and compiled code's compare-and-branch superinstructions test
     without building a boolean.

   Fuel follows the check-then-decrement discipline of Vm.Interp (a
   caller granting n fuel executes exactly n fuel-charging steps).  A
   superinstruction keeps its halves' fuel events, charges and trap
   points in order: where no trap can come between its fuel events it
   takes them at once when fuel is plentiful, and falls back to the
   exact unfused sequence near exhaustion, so the out-of-fuel point and
   the cycles charged before it never differ from the tree walker. *)

module Values = Tessera_vm.Values
module Semantics = Tessera_vm.Semantics
module Cost = Tessera_vm.Cost
module Vm_interp = Tessera_vm.Interp
module Trace = Tessera_obs.Trace
module Profile = Tessera_obs.Profile
open Values

type context = Vm_interp.context

(* What watches one activation, chosen when it starts.  A run nobody
   watches shares [unobserved] and allocates none. *)
type observer = {
  profiling : bool;
  tracing : bool;
  pairs : int array;  (** the census matrix, empty when none is taken *)
  mutable seen : int;  (** the part of [pending] the profiler has been given *)
  mutable prev : int;  (** the kind dispatched last, -1 before the first *)
  mutable steps : int;  (** dispatches, for the trace's instant *)
}

let unobserved =
  {
    profiling = false;
    tracing = false;
    pairs = [||];
    seen = 0;
    prev = -1;
    steps = 0;
  }

(* One activation's state.  The functions below take it as an
   argument, so a call allocates no closure for them. *)
type frame = {
  env : Values.t array;
  stack : Values.t array;
  fuel : int ref;  (** the context's budget, shared with callees *)
  mutable sp : int;
  mutable pc : int;
  mutable cur : int;  (** the executing instruction, for traps and profiles *)
  mutable pending : int;  (** charged cycles not yet handed to [ctx.charge] *)
  mutable result : Values.t;
  mutable running : bool;
  obs : observer;  (** [unobserved], unless someone watches *)
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

(* a charge is one add *)
let[@inline] charge fr c = fr.pending <- fr.pending + c

let[@inline] fuel_event fr =
  let f = fr.fuel in
  let n = !f in
  if n <= 0 then raise Vm_interp.Out_of_fuel;
  f := n - 1

(* the fuel event and static charge every leaf, [Begin] and compiled
   opcode starts with *)
let[@inline] step fr c =
  fuel_event fr;
  charge fr c

(* [n] fuel events at once, if the budget holds them all *)
let[@inline] take fr n =
  let f = fr.fuel in
  let m = !f in
  if m >= n then begin
    f := m - n;
    true
  end
  else false

(* The charges made since the profiler last read [pending], as one sum
   at the instruction that made them.  Two charges at one site move the
   sampler exactly as one charge of their sum does (its credit and each
   fire's weight add modulo the period), so every sample lands where
   charging one by one would put it. *)
let attribute (p : Prog.t) fr =
  let c = fr.pending - fr.obs.seen in
  if c <> 0 then begin
    fr.obs.seen <- fr.pending;
    Profile.charge ~meth:p.method_name
      ~block:(Array.unsafe_get p.block_of_pc fr.cur)
      ~op:(Prog.kind_name (Prog.kind (Array.unsafe_get p.instrs fr.cur)))
      c
  end

(* charges reach [ctx.charge] only where the clock can be read: before
   a call, at return, before an exception leaves the loop and before a
   trace instant.  The clock only adds, so every reading sees the same
   total. *)
let flush (ctx : context) p fr =
  if fr.obs.profiling then begin
    attribute p fr;
    fr.obs.seen <- 0
  end;
  let c = fr.pending in
  if c <> 0 then begin
    fr.pending <- 0;
    ctx.Vm_interp.charge c
  end

(* the census matrix every run starts with, set by [census] *)
let census_pairs = ref [||]

let census pairs f =
  if Array.length pairs <> Prog.kind_count * Prog.kind_count then
    invalid_arg "Flat.Interp.census: bad pair matrix";
  let outer = !census_pairs in
  census_pairs := pairs;
  Fun.protect ~finally:(fun () -> census_pairs := outer) f

(* The one observation point, at the dispatch head before [this_pc]
   runs: the profiler takes the previous instruction's charges, the
   census the pair [this_pc] completes, and the trace an instant every
   65,536 dispatches. *)
let observe (ctx : context) (p : Prog.t) fr this_pc =
  let o = fr.obs in
  if o.profiling then attribute p fr;
  let pairs = o.pairs in
  if Array.length pairs > 0 then begin
    let k = Prog.kind (Array.unsafe_get p.instrs this_pc) in
    if o.prev >= 0 then begin
      let cell = (o.prev * Prog.kind_count) + k in
      pairs.(cell) <- pairs.(cell) + 1
    end;
    o.prev <- k
  end;
  if o.tracing then begin
    o.steps <- o.steps + 1;
    if o.steps land 0xFFFF = 0 then begin
      flush ctx p fr;
      Trace.instant ~cat:"flat"
        ~args:[ ("executed", Trace.Int (Int64.of_int o.steps)) ]
        "dispatch"
    end
  end

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

let[@inline] binop fr k =
  let b = pop fr in
  let a = pop fr in
  push fr (Semantics.apply k a b)

let[@inline] new_multi fr ty =
  let d2 = pop fr in
  let d1 = pop fr in
  push fr (Semantics.new_multiarray ~elem:ty d1 d2)

let[@inline] actuals fr argc =
  fr.sp <- fr.sp - argc;
  Array.sub fr.stack fr.sp argc

let call (ctx : context) p fr callee argc =
  let args = actuals fr argc in
  flush ctx p fr;
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

(* The trap handler lives outside the loop — zero cost per instruction
   — and re-enters it after redirecting to a handler block; [fr.cur]
   remembers the faulting instruction. *)
let rec dispatch (ctx : context) (p : Prog.t) fr =
  let instrs = p.instrs in
  let pool = p.pool in
  let env = fr.env in
  let classes = ctx.Vm_interp.classes in
  try
    while fr.running do
      let this_pc = fr.pc in
      if fr.obs != unobserved then observe ctx p fr this_pc;
      fr.cur <- this_pc;
      fr.pc <- this_pc + 1;
      match Array.unsafe_get instrs this_pc with
      | Prog.Enter -> fuel_event fr
      | Prog.Begin c -> step fr c
      | Prog.Charge c -> charge fr c
      | Prog.Const (c, k) ->
          step fr c;
          push fr pool.(k)
      | Prog.Load_local (c, s) ->
          step fr c;
          push fr env.(s)
      | Prog.Inc_local (c, s, d, ty) ->
          step fr c;
          inc fr s d ty;
          push fr Void_v
      | Prog.New_obj (c, cls) ->
          step fr c;
          push fr (Semantics.new_obj ~classes cls)
      | Prog.Void_leaf c ->
          step fr c;
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
      | Prog.Binop k -> binop fr k
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
          charge fr Cost.interp_call_overhead;
          push fr (call ctx p fr callee argc)
      | Prog.Mixed (argc, ty) -> push fr (Semantics.mixed ty (actuals fr argc))
      | Prog.Bounds_chk ->
          bounds_chk fr;
          push fr Void_v
      | Prog.Arr_copy ->
          charge fr (arr_copy fr * Cost.per_element_copy);
          push fr Void_v
      | Prog.Arr_cmp -> charge fr (arr_cmp fr * Cost.per_element_copy)
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
          if take fr 2 then charge fr c
          else begin
            fuel_event fr;
            step fr c
          end
      | Prog.F_begin_begin (c1, c2) ->
          fr.pc <- this_pc + 2;
          if take fr 2 then charge fr (c1 + c2)
          else begin
            step fr c1;
            step fr c2
          end
      | Prog.F_begin_load (c1, c2, s) ->
          fr.pc <- this_pc + 2;
          if take fr 2 then charge fr (c1 + c2)
          else begin
            step fr c1;
            step fr c2
          end;
          push fr env.(s)
      | Prog.F_begin_const (c1, c2, k) ->
          fr.pc <- this_pc + 2;
          if take fr 2 then charge fr (c1 + c2)
          else begin
            step fr c1;
            step fr c2
          end;
          push fr pool.(k)
      | Prog.F_load_load (c1, s1, c2, s2) ->
          fr.pc <- this_pc + 2;
          if take fr 2 then begin
            charge fr (c1 + c2);
            push fr env.(s1);
            push fr env.(s2)
          end
          else begin
            step fr c1;
            push fr env.(s1);
            step fr c2;
            push fr env.(s2)
          end
      | Prog.F_load_binop (c, s, k) ->
          fr.pc <- this_pc + 2;
          step fr c;
          let a = pop fr in
          push fr (Semantics.apply k a env.(s))
      | Prog.F_const_binop (c, kk, k) ->
          fr.pc <- this_pc + 2;
          step fr c;
          let a = pop fr in
          push fr (Semantics.apply k a pool.(kk))
      | Prog.F_load_store (c, src, dst, dty) ->
          fr.pc <- this_pc + 2;
          step fr c;
          env.(dst) <- Semantics.store_coerce dty env.(src);
          push fr Void_v
      | Prog.F_binop_store (k, dst, dty) ->
          fr.pc <- this_pc + 2;
          let b = pop fr in
          let a = pop fr in
          env.(dst) <- Semantics.store_coerce dty (Semantics.apply k a b);
          push fr Void_v
      | Prog.F_store_pop (s, ty) ->
          fr.pc <- this_pc + 2;
          store fr s ty
      | Prog.F_inc_pop (c, s, d, ty) ->
          fr.pc <- this_pc + 2;
          step fr c;
          inc fr s d ty
      | Prog.F_pop_begin c ->
          fr.pc <- this_pc + 2;
          fr.sp <- fr.sp - 1;
          step fr c
      | Prog.F_load_const (c1, s, c2, k) ->
          fr.pc <- this_pc + 2;
          if take fr 2 then begin
            charge fr (c1 + c2);
            push fr env.(s);
            push fr pool.(k)
          end
          else begin
            step fr c1;
            push fr env.(s);
            step fr c2;
            push fr pool.(k)
          end
      | Prog.F_load_begin (c1, s, c2) ->
          fr.pc <- this_pc + 2;
          if take fr 2 then begin
            charge fr (c1 + c2);
            push fr env.(s)
          end
          else begin
            step fr c1;
            push fr env.(s);
            step fr c2
          end
      | Prog.F_binop_binop (k1, k2) ->
          fr.pc <- this_pc + 2;
          let b = pop fr in
          let a = pop fr in
          let r = Semantics.apply k1 a b in
          let a2 = pop fr in
          push fr (Semantics.apply k2 a2 r)
      (* compiled code: fuel, static cost, action *)
      | Prog.C_inc_local (c, s, d, ty) ->
          step fr c;
          inc fr s d ty
      | Prog.C_store_local (c, s, ty) ->
          step fr c;
          store fr s ty
      | Prog.C_field_load (c, f) ->
          step fr c;
          field_load fr f
      | Prog.C_field_store (c, f) ->
          step fr c;
          field_store fr f
      | Prog.C_elem_load c ->
          step fr c;
          elem_load fr
      | Prog.C_elem_store c ->
          step fr c;
          elem_store fr
      | Prog.C_binop (c, k) ->
          step fr c;
          binop fr k
      | Prog.C_negate (c, ty) ->
          step fr c;
          push fr (Semantics.neg ty (pop fr))
      | Prog.C_cast_to (c, k, ty) ->
          step fr c;
          push fr (Semantics.cast k ty (pop fr))
      | Prog.C_checkcast (c, cls) ->
          step fr c;
          push fr (Semantics.checkcast ~classes cls (pop fr))
      | Prog.C_new_arr (c, ty) ->
          step fr c;
          push fr (Semantics.new_array ~elem:ty (pop fr))
      | Prog.C_new_multi (c, ty) ->
          step fr c;
          new_multi fr ty
      | Prog.C_instance_of (c, cls) ->
          step fr c;
          push fr (Semantics.instanceof ~classes cls (pop fr))
      | Prog.C_monitor c ->
          step fr c;
          Semantics.monitor (pop fr)
      | Prog.C_invoke (c, callee, argc, pushes) ->
          step fr c;
          let r = call ctx p fr callee argc in
          if pushes then push fr r
      | Prog.C_mixed (c, argc, ty, pushes) ->
          step fr c;
          let r = Semantics.mixed ty (actuals fr argc) in
          if pushes then push fr r
      | Prog.C_bounds_chk c ->
          step fr c;
          bounds_chk fr
      | Prog.C_arr_copy c ->
          step fr c;
          charge fr (arr_copy fr * Cost.per_element_copy)
      | Prog.C_arr_cmp c ->
          step fr c;
          charge fr (arr_cmp fr * Cost.per_element_copy)
      | Prog.C_arr_len c ->
          step fr c;
          push fr (Semantics.array_length (pop fr))
      | Prog.C_pop c ->
          step fr c;
          fr.sp <- fr.sp - 1
      | Prog.C_jmp (c, t) ->
          step fr c;
          fr.pc <- t
      | Prog.C_br_false (c, t) ->
          step fr c;
          if not (is_truthy (pop fr)) then fr.pc <- t
      | Prog.C_ret_void c ->
          step fr c;
          fr.running <- false
      | Prog.C_ret_val c ->
          step fr c;
          ret_val p fr
      | Prog.C_raise c ->
          step fr c;
          raise (Trap User_exception)
      (* compiled code's superinstructions *)
      | Prog.K_cmp_br (c1, k, c2, f, c3, t) ->
          step fr c1;
          let b = pop fr in
          let a = pop fr in
          let truth = Semantics.test k a b in
          step fr c2;
          if truth then begin
            step fr c3;
            fr.pc <- t
          end
          else fr.pc <- f
      | Prog.K_load_const_binop (c1, s, c2, kk, c3, k) ->
          fr.pc <- this_pc + 3;
          if take fr 3 then charge fr (c1 + c2 + c3)
          else begin
            step fr c1;
            step fr c2;
            step fr c3
          end;
          push fr (Semantics.apply k env.(s) pool.(kk))
      | Prog.K_binop_binop (c1, k1, c2, k2) ->
          fr.pc <- this_pc + 2;
          step fr c1;
          let b = pop fr in
          let a = pop fr in
          let r = Semantics.apply k1 a b in
          step fr c2;
          push fr (Semantics.apply k2 (pop fr) r)
    done
  with Trap k ->
    charge fr Cost.exception_unwind;
    let h = p.handler_of_block.(p.block_of_pc.(fr.cur)) in
    if h < 0 then raise (Trap k)
    else begin
      fr.sp <- 0;
      fr.pc <- p.block_entry.(h);
      dispatch ctx p fr
    end

let run (ctx : context) (p : Prog.t) args =
  let nloc = Array.length p.local_types in
  let env = Array.make nloc Void_v in
  for i = 0 to nloc - 1 do
    if i < Array.length args && p.local_is_arg.(i) then
      env.(i) <- Semantics.store_coerce p.local_types.(i) args.(i)
    else env.(i) <- default p.local_types.(i)
  done;
  let profiling = !Profile.enabled in
  let tracing = !Trace.enabled in
  let pairs = !census_pairs in
  let obs =
    if profiling || tracing || Array.length pairs > 0 then
      { profiling; tracing; pairs; seen = 0; prev = -1; steps = 0 }
    else unobserved
  in
  let fr =
    {
      env;
      stack = Array.make (if p.max_stack < 1 then 1 else p.max_stack) Void_v;
      fuel = ctx.Vm_interp.fuel;
      sp = 0;
      pc = 0;
      cur = 0;
      (* the prologue's charge, at pc 0 *)
      pending = p.sync_charge;
      result = Void_v;
      running = true;
      obs;
    }
  in
  (match dispatch ctx p fr with
  | () -> flush ctx p fr
  | exception e ->
      flush ctx p fr;
      raise e);
  fr.result
