(* Slot-addressed interpreter for typed MiniC++ programs, with
   object-space instrumentation.

   Programs are first lowered by [Resolve] into a slot-addressed form:
   locals live in a flat [value array] frame, object members live in a
   per-object [value array] addressed through per-member slot tables,
   virtual calls go through precomputed dispatch tables, and call
   targets/globals/statics are integer indices. Execution then walks the
   resolved tree with no name lookups on the hot path. It runs the IR
   exactly as resolved: every slot is boxed, and the bytecode compiler's
   int-bank analysis ([Resolve.banks]) is never consulted, so the tree
   walker stays an independent reference for the compiled engine.

   Semantics are those of the original tree-walker: the C++ object
   lifecycle the paper's dynamic measurements depend on (virtual bases
   first at the most-derived level, then direct bases in declaration
   order, then member subobjects, then the body; reverse-order
   destruction), virtual dispatch on the dynamic class, heap allocation
   via [new]/[delete], stack objects destroyed at scope exit, and the
   same step-counting points, so [steps] totals are comparable across
   interpreter generations. Every complete-object creation/destruction
   is journalled in a [Profile.t]. *)

open Frontend
open Sema
open Sema.Typed_ast
open Value
open Resolve

exception Return_exc of value
exception Break_exc
exception Continue_exc

type env = {
  rp : rprogram;
  funcs : rfunc array;
  classes : class_info array;
  destroy : destroy_plan array;
  profile : Profile.t;
  globals : harray;
  statics : harray;
  output : Buffer.t;
  mutable obj_counter : int;
  mutable steps : int;
  step_limit : int;
  (* nearer of [step_limit] and the next deadline checkpoint: the hot
     tick is one compare against it, everything else is cold *)
  mutable next_stop : int;
  mutable call_depth : int;
  mutable max_call_depth : int;
  call_depth_limit : int;
  heap_object_limit : int;
}

let new_frame nslots this = mk_frame ~ints:0 nslots this

let fresh_obj_id env =
  let id = env.obj_counter in
  if id >= env.heap_object_limit then
    limit_exceeded "object limit exceeded (%d): possible runaway allocation"
      env.heap_object_limit;
  env.obj_counter <- id + 1;
  id

(* Reached every [deadline_check_interval] steps, or past the step
   limit — never on the per-step fast path. *)
let[@inline never] slow_tick env =
  if env.steps > env.step_limit then
    limit_exceeded "step limit exceeded (%d): possible non-termination"
      env.step_limit;
  check_deadline ();
  env.next_stop <- min env.step_limit (env.steps + deadline_check_interval)

let[@inline] tick env =
  env.steps <- env.steps + 1;
  if env.steps > env.next_stop then slow_tick env

(* -- objects ------------------------------------------------------------------- *)

(* Object construction and slot lookup are shared with the bytecode VM;
   see [Resolve.new_obj_of] / [Resolve.field_slot] /
   [Resolve.memptr_slot_of]. *)
let new_obj env cid cls id : obj = new_obj_of env.classes cid cls id
let memptr_slot env (o : obj) (m : Member.t) : int =
  memptr_slot_of env.classes o m

(* -- evaluation ----------------------------------------------------------------- *)

let rec eval env frame (e : rexpr) : value =
  match e with
  | RConst v -> v
  | RLocal i -> frame.locals.cells.(i)
  | RLocalRef i -> (
      (* reference locals and parameters transparently read their
         referent *)
      match frame.locals.cells.(i) with
      | VPtr (PArr (h, j)) -> h.cells.(j)
      | VPtr (PObj o) -> VObj o
      | v -> v)
  | RGlobal i -> env.globals.cells.(i)
  | RStatic i -> env.statics.cells.(i)
  | RThis -> VPtr (PObj (this_of frame))
  | RUnary (op, a) -> unary op (eval env frame a)
  | RBinary (op, a, b) -> eval_binary env frame op a b
  | RAssign (lhs, rhs, ty) ->
      let loc = eval_lval env frame lhs in
      let v = coerce ty (eval env frame rhs) in
      write_loc loc v;
      v
  | RCompound (op, lhs, rhs, ty) ->
      let loc = eval_lval env frame lhs in
      let rv = eval env frame rhs in
      let v = compound_op op (read_loc loc) rv ty in
      write_loc loc v;
      v
  | RIncDec (which, fix, a) ->
      let loc = eval_lval env frame a in
      let old = read_loc loc in
      let delta = match which with Ast.Incr -> 1 | Ast.Decr -> -1 in
      let nv =
        match old with
        | VInt n -> VInt (n + delta)
        | VFloat f -> VFloat (f +. float_of_int delta)
        | VPtr (PArr (h, i)) -> VPtr (PArr (h, i + delta))
        | _ -> runtime_error "cannot increment this value"
      in
      write_loc loc nv;
      (match fix with Ast.Prefix -> nv | Ast.Postfix -> old)
  | RCond (c, t, f) ->
      if truthy (eval env frame c) then eval env frame t else eval env frame f
  | RCastInt a -> VInt (as_int (eval env frame a))
  | RCastFloat a -> VFloat (as_float (eval env frame a))
  | RField (oe, slots, m) ->
      let o = as_obj (eval env frame oe) in
      o.fields.cells.(field_slot o slots m)
  | RCall c -> eval_call env frame c
  | RAddrOf lv -> (
      let loc = eval_lval env frame lv in
      (* taking the address of an embedded object yields an object
         pointer, not a cell pointer *)
      match read_loc loc with
      | VObj o -> VPtr (PObj o)
      | _ -> ptr_of_loc loc)
  | RDeref a -> (
      match eval env frame a with
      | VPtr (PObj o) -> VObj o
      | VPtr (PArr (h, i)) ->
          if i < 0 || i >= Array.length h.cells then
            runtime_error "pointer dereference out of bounds";
          h.cells.(i)
      | VNull -> runtime_error "null pointer dereference"
      | VStr s -> if String.length s > 0 then VInt (Char.code s.[0]) else VInt 0
      | _ -> runtime_error "dereference of a non-pointer")
  | RIndex (a, i) -> (
      let av = eval env frame a in
      let iv = as_int (eval env frame i) in
      match av with
      | VArr h | VPtr (PArr (h, 0)) ->
          if iv < 0 || iv >= Array.length h.cells then
            runtime_error "array index %d out of bounds (size %d)" iv
              (Array.length h.cells);
          h.cells.(iv)
      | VPtr (PArr (h, off)) ->
          let j = off + iv in
          if j < 0 || j >= Array.length h.cells then
            runtime_error "array index out of bounds";
          h.cells.(j)
      | VStr s ->
          if iv < 0 || iv >= String.length s then VInt 0
          else VInt (Char.code s.[iv])
      | VNull -> runtime_error "indexing a null pointer"
      | _ -> runtime_error "indexing a non-array value")
  | RMemPtrDeref (recv, pm) -> (
      let o = as_obj (eval env frame recv) in
      match eval env frame pm with
      | VMemPtr m -> o.fields.cells.(memptr_slot env o m)
      | VNull -> runtime_error "null member pointer dereference"
      | _ -> runtime_error ".*/->* with a non-member-pointer")
  | RNewObj { no_cid; no_cls; no_ctor; no_args } ->
      let argv = eval_args env frame no_args in
      let o = construct_journalled env no_cid no_cls no_ctor argv in
      VPtr (PObj o)
  | RNewScalar { ns_bytes; ns_ty } ->
      Profile.record_scalar_alloc env.profile ~bytes:ns_bytes;
      let h = { arr_id = -1; cells = [| default_value ns_ty |] } in
      VPtr (PArr (h, 0))
  | RNewArrObj { na_cid; na_cls; na_ctor; na_len } ->
      let n = as_int (eval env frame na_len) in
      if n < 0 then runtime_error "negative array size in new[]";
      let id = fresh_obj_id env in
      Profile.record_alloc env.profile ~id ~cls:na_cls ~count:n;
      let cells =
        guest_array n (fun _ -> VObj (construct_raw env na_cid na_cls na_ctor [||]))
      in
      VPtr (PArr ({ arr_id = id; cells }, 0))
  | RNewArrScalar { nas_ty; nas_elem_bytes; nas_len } ->
      let n = as_int (eval env frame nas_len) in
      if n < 0 then runtime_error "negative array size in new[]";
      Profile.record_scalar_alloc env.profile ~bytes:(n * nas_elem_bytes);
      let cells = guest_array n (fun _ -> default_value nas_ty) in
      VPtr (PArr ({ arr_id = -1; cells }, 0))
  | RInvalid msg -> runtime_error "%s" msg

and eval_binary env frame op a b =
  match op with
  | Ast.LAnd ->
      if truthy (eval env frame a) then
        VInt (if truthy (eval env frame b) then 1 else 0)
      else VInt 0
  | Ast.LOr ->
      if truthy (eval env frame a) then VInt 1
      else VInt (if truthy (eval env frame b) then 1 else 0)
  | _ -> (
      let va = eval env frame a in
      let vb = eval env frame b in
      match op with
      | Ast.Eq -> VInt (if value_eq va vb then 1 else 0)
      | Ast.Ne -> VInt (if value_eq va vb then 0 else 1)
      | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge -> compare_values op va vb
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.BAnd | Ast.BOr
      | Ast.BXor | Ast.Shl | Ast.Shr ->
          arith op va vb
      | Ast.LAnd | Ast.LOr -> assert false)

and eval_lval env frame (lv : rlval) : location =
  match lv with
  | LvLocal i -> LSlot (frame.locals, i)
  | LvLocalRef i -> (
      (* a reference local aliases its referent *)
      match frame.locals.cells.(i) with
      | VPtr (PArr (h, j)) -> LSlot (h, j)
      | _ -> LSlot (frame.locals, i))
  | LvGlobal i -> LSlot (env.globals, i)
  | LvStatic i -> LSlot (env.statics, i)
  | LvField (oe, slots, m) ->
      let o = as_obj (eval env frame oe) in
      LSlot (o.fields, field_slot o slots m)
  | LvDeref a -> (
      match eval env frame a with
      | VPtr (PArr (h, i)) -> LSlot (h, i)
      | VPtr (PObj _) ->
          runtime_error "cannot assign whole objects through a pointer"
      | VNull -> runtime_error "null pointer dereference"
      | _ -> runtime_error "dereference of a non-pointer")
  | LvIndex (a, i) -> (
      let av = eval env frame a in
      let iv = as_int (eval env frame i) in
      match av with
      | VArr h -> LSlot (h, iv)
      | VPtr (PArr (h, off)) -> LSlot (h, off + iv)
      | _ -> runtime_error "indexing a non-array value")
  | LvMemPtrDeref (recv, pm) -> (
      let o = as_obj (eval env frame recv) in
      match eval env frame pm with
      | VMemPtr m -> LSlot (o.fields, memptr_slot env o m)
      | _ -> runtime_error ".*/->* with a non-member-pointer")
  | LvInvalid msg -> runtime_error "%s" msg

(* -- calls ---------------------------------------------------------------------- *)

(* Evaluate call arguments left to right, each by the mode the resolve
   pass derived from the callee's parameter types: scalar reference
   parameters receive the argument's location, object references the
   object, everything else its value. *)
and eval_args env frame (modes : arg_mode array) : value array =
  let n = Array.length modes in
  if n = 0 then [||]
  else begin
    let out = Array.make n VUnit in
    for i = 0 to n - 1 do
      out.(i) <-
        (match modes.(i) with
        | AVal e -> eval env frame e
        | ARefScalar lv -> ptr_of_loc (eval_lval env frame lv)
        | ARefObj e -> (
            match eval env frame e with VObj o -> VPtr (PObj o) | v -> v))
    done;
    out
  end

and eval_rexprs env frame (es : rexpr array) : value array =
  let n = Array.length es in
  if n = 0 then [||]
  else begin
    let out = Array.make n VUnit in
    for i = 0 to n - 1 do
      out.(i) <- eval env frame es.(i)
    done;
    out
  end

and eval_call env frame (c : rcall) : value =
  match c with
  | RBuiltin (b, args) -> eval_builtin env frame b args
  | RCallFunc { cf_func; cf_args } ->
      let argv = eval_args env frame cf_args in
      call_function env cf_func ~this:VUnit argv
  | RCallFunPtr { fp_fn; fp_args } -> (
      let fv = eval env frame fp_fn in
      let argv = eval_args env frame fp_args in
      match fv with
      | VFunPtr id -> (
          let this =
            match id with Func_id.FMethod _ -> frame.this | _ -> VUnit
          in
          match Hashtbl.find_opt env.rp.rp_func_idx id with
          | Some fi -> call_function env fi ~this argv
          | None ->
              runtime_error "call to unknown function %s" (Func_id.to_string id))
      | VNull -> runtime_error "call through a null function pointer"
      | _ -> runtime_error "call through a non-function value")
  | RCallMethod { cm_recv; cm_arrow; cm_func; cm_args } -> (
      let recv = eval env frame cm_recv in
      let argv = eval_args env frame cm_args in
      match recv with
      | VNull when cm_arrow -> runtime_error "method call on null pointer"
      | VObj _ | VPtr (PObj _) -> call_function env cm_func ~this:recv argv
      | _ ->
          (* static member function *)
          call_function env cm_func ~this:VUnit argv)
  | RCallVirtual { cv_recv; cv_name; cv_table; cv_args } -> (
      let recv = eval env frame cv_recv in
      let argv = eval_args env frame cv_args in
      match recv with
      | VObj o | VPtr (PObj o) ->
          let fi = if o.obj_cid >= 0 then cv_table.(o.obj_cid) else -1 in
          if fi >= 0 then call_function env fi ~this:recv argv
          else
            runtime_error "no virtual target for %s::%s" o.obj_class cv_name
      | VNull -> runtime_error "virtual call on null pointer"
      | _ -> runtime_error "virtual call on a non-object")

and eval_builtin env frame b args =
  let argv = eval_rexprs env frame args in
  match (b, argv) with
  | BPrintInt, [| v |] ->
      Buffer.add_string env.output (string_of_int (as_int v));
      VUnit
  | BPrintChar, [| v |] ->
      Buffer.add_char env.output (Char.chr (as_int v land 255));
      VUnit
  | BPrintFloat, [| v |] ->
      Buffer.add_string env.output (Printf.sprintf "%g" (as_float v));
      VUnit
  | BPrintStr, [| VStr s |] ->
      Buffer.add_string env.output s;
      VUnit
  | BPrintStr, [| VNull |] -> runtime_error "print_str(NULL)"
  | BPrintNl, [||] ->
      Buffer.add_char env.output '\n';
      VUnit
  | BFree, [| v |] ->
      (match v with
      | VPtr (PObj o) -> Profile.record_free env.profile o.obj_id
      | VPtr (PArr (h, _)) when h.arr_id >= 0 ->
          Profile.record_free env.profile h.arr_id
      | VNull | VPtr _ -> ()
      | _ -> runtime_error "free of a non-pointer");
      VUnit
  | BAbort, [||] -> raise Abort_called
  | _ -> runtime_error "bad builtin call"

and call_function env fi ~this argv : value =
  env.call_depth <- env.call_depth + 1;
  if env.call_depth > env.max_call_depth then
    env.max_call_depth <- env.call_depth;
  if env.call_depth > env.call_depth_limit then
    limit_exceeded "call depth limit exceeded (%d): possible runaway recursion"
      env.call_depth_limit;
  tick env;
  Fun.protect
    ~finally:(fun () -> env.call_depth <- env.call_depth - 1)
    (fun () ->
      let rf = env.funcs.(fi) in
      match rf.rf_code with
      | CBody body -> (
          let frame = new_frame rf.rf_nslots this in
          bind_params frame rf argv;
          try
            exec_stmt env frame body;
            VUnit
          with Return_exc v -> v)
      | CCtor plan -> (
          match this with
          | VObj o | VPtr (PObj o) ->
              run_ctor env o rf plan argv ~most_derived:false;
              VUnit
          | _ -> runtime_error "constructor called without an object")
      | CDtor -> (
          match this with
          | VObj o | VPtr (PObj o) ->
              destroy_complete env o;
              VUnit
          | _ -> runtime_error "destructor called without an object")
      | CMissingCtor -> (
          match this with
          | VObj _ | VPtr (PObj _) ->
              (* mirror the tree-walker: constructor dispatch ticked
                 before discovering the body was missing *)
              tick env;
              runtime_error "missing constructor %s" (Func_id.to_string rf.rf_id)
          | _ -> runtime_error "constructor called without an object")
      | CUnknown ->
          runtime_error "call to unknown function %s"
            (Func_id.to_string rf.rf_id)
      | CUndefined ->
          runtime_error "call to undefined (external) function %s"
            (Func_id.to_string rf.rf_id))

and bind_params frame (rf : rfunc) argv =
  let n = Array.length rf.rf_params in
  if n <> Array.length argv then
    runtime_error "arity mismatch calling %s" (Func_id.to_string rf.rf_id);
  for i = 0 to n - 1 do
    let p = rf.rf_params.(i) in
    frame.locals.cells.(p.rp_slot) <-
      (if p.rp_ref then argv.(i) (* references carry locations *)
       else coerce p.rp_coerce argv.(i))
  done

(* -- construction / destruction -------------------------------------------------- *)

(* A complete object without a journal entry (array elements, member
   subobjects): identifier, member store, constructor chain. *)
and construct_raw env cid cls ctor argv : obj =
  let id = fresh_obj_id env in
  let o = new_obj env cid cls id in
  run_ctor_idx env o ctor argv ~most_derived:true;
  o

and construct_journalled env cid cls ctor argv : obj =
  let id = fresh_obj_id env in
  let o = new_obj env cid cls id in
  Profile.record_alloc env.profile ~id ~cls ~count:1;
  run_ctor_idx env o ctor argv ~most_derived:true;
  o

and run_ctor_idx env (o : obj) fi argv ~most_derived =
  let rf = env.funcs.(fi) in
  match rf.rf_code with
  | CCtor plan -> run_ctor env o rf plan argv ~most_derived
  | CMissingCtor | _ ->
      tick env;
      runtime_error "missing constructor %s" (Func_id.to_string rf.rf_id)

and run_ctor env (o : obj) (rf : rfunc) (plan : ctor_plan) argv ~most_derived =
  tick env;
  let frame = new_frame rf.rf_nslots (VObj o) in
  bind_params frame rf argv;
  (* 1. virtual bases are constructed by the most-derived object only,
     using this constructor's initializer when it names them *)
  if most_derived then
    Array.iter
      (fun bp ->
        let args = eval_args env frame bp.bp_args in
        run_ctor_idx env o bp.bp_ctor args ~most_derived:false)
      plan.cp_vbases;
  (* 2. direct non-virtual bases, in declaration order *)
  Array.iter
    (fun bp ->
      let args = eval_args env frame bp.bp_args in
      run_ctor_idx env o bp.bp_ctor args ~most_derived:false)
    plan.cp_bases;
  (* 3. member subobjects and explicitly initialized scalars, in
     declaration order *)
  Array.iter
    (fun fp ->
      match fp with
      | FPClass { fc_slots; fc_member; fc_cid; fc_cls; fc_ctor; fc_args } ->
          let args = eval_args env frame fc_args in
          let sub = construct_raw env fc_cid fc_cls fc_ctor args in
          o.fields.cells.(field_slot o fc_slots fc_member) <- VObj sub
      | FPClassArr { fa_slots; fa_member; fa_cid; fa_cls; fa_ctor; fa_len } ->
          let cells =
            guest_array fa_len (fun _ ->
                VObj (construct_raw env fa_cid fa_cls fa_ctor [||]))
          in
          o.fields.cells.(field_slot o fa_slots fa_member) <-
            VArr { arr_id = -1; cells }
      | FPScalar { fs_slots; fs_member; fs_coerce; fs_init } ->
          o.fields.cells.(field_slot o fs_slots fs_member) <-
            coerce fs_coerce (eval env frame fs_init)
      | FPBadInit -> runtime_error "bad scalar member initializer")
    plan.cp_fields;
  (* 4. the constructor body *)
  match plan.cp_body with
  | None -> ()
  | Some body -> ( try exec_stmt env frame body with Return_exc _ -> ())

(* Destruction: destructor bodies run from the dynamic class downwards;
   member subobjects are destroyed after their class's destructor body, in
   reverse declaration order; then non-virtual bases in reverse order; the
   most-derived level finally destroys virtual bases. *)
and destroy_complete env (o : obj) =
  destroy_from env o o.obj_cid ~most_derived:true

and destroy_from env (o : obj) cid ~most_derived =
  tick env;
  if cid >= 0 then begin
    let dp = env.destroy.(cid) in
    (match dp.dp_dtor with
    | Some (nslots, body) -> (
        let frame = new_frame nslots (VObj o) in
        try exec_stmt env frame body with Return_exc _ -> ())
    | None -> ());
    (* member subobjects, reverse declaration order *)
    Array.iter
      (fun df ->
        match df with
        | DFClass (slots, _) -> (
            let s = if o.obj_cid >= 0 then slots.(o.obj_cid) else -1 in
            if s >= 0 then
              match o.fields.cells.(s) with
              | VObj sub -> destroy_complete env sub
              | _ -> ())
        | DFClassArr (slots, _) -> (
            let s = if o.obj_cid >= 0 then slots.(o.obj_cid) else -1 in
            if s >= 0 then
              match o.fields.cells.(s) with
              | VArr h ->
                  Array.iter
                    (function VObj sub -> destroy_complete env sub | _ -> ())
                    h.cells
              | _ -> ()))
      dp.dp_fields;
    (* non-virtual direct bases, reverse order *)
    Array.iter
      (fun bcid -> destroy_from env o bcid ~most_derived:false)
      dp.dp_nv_bases;
    if most_derived then
      Array.iter
        (fun vcid -> destroy_from env o vcid ~most_derived:false)
        env.classes.(cid).ci_vbases_rev
  end

(* -- statements ------------------------------------------------------------------- *)

and exec_stmt env frame (s : rstmt) : unit =
  tick env;
  match s with
  | RSExpr e -> ignore (eval env frame e)
  | RSDecl ds -> List.iter (exec_decl env frame) ds
  | RSBlock (body, destroy) ->
      if Array.length destroy = 0 then
        Array.iter (exec_stmt env frame) body
      else
        Fun.protect
          ~finally:(fun () -> destroy_slots env frame destroy)
          (fun () -> Array.iter (exec_stmt env frame) body)
  | RSIf (c, t, e) ->
      if truthy (eval env frame c) then exec_stmt env frame t
      else Option.iter (exec_stmt env frame) e
  | RSWhile (c, b) -> (
      try
        while truthy (eval env frame c) do
          try exec_stmt env frame b with Continue_exc -> ()
        done
      with Break_exc -> ())
  | RSDoWhile (b, c) -> (
      try
        let continue_ = ref true in
        while !continue_ do
          (try exec_stmt env frame b with Continue_exc -> ());
          continue_ := truthy (eval env frame c)
        done
      with Break_exc -> ())
  | RSFor { rf_init; rf_cond; rf_step; rf_body; rf_destroy } ->
      if Array.length rf_destroy = 0 then
        exec_for env frame rf_init rf_cond rf_step rf_body
      else
        Fun.protect
          ~finally:(fun () -> destroy_slots env frame rf_destroy)
          (fun () -> exec_for env frame rf_init rf_cond rf_step rf_body)
  | RSReturn None -> raise (Return_exc VUnit)
  | RSReturn (Some e) -> raise (Return_exc (eval env frame e))
  | RSBreak -> raise Break_exc
  | RSContinue -> raise Continue_exc
  | RSDelete e -> exec_delete env frame e
  | RSEmpty -> ()

and exec_for env frame init cond step b =
  Option.iter (exec_stmt env frame) init;
  try
    while
      match cond with Some c -> truthy (eval env frame c) | None -> true
    do
      (try exec_stmt env frame b with Continue_exc -> ());
      match step with
      | Some e -> ignore (eval env frame e)
      | None -> ()
    done
  with Break_exc -> ()

and exec_decl env frame (d : rdecl) =
  match d with
  | DScalar { d_slot; d_ty } ->
      frame.locals.cells.(d_slot) <- default_value d_ty
  | DStackArrObj { d_slot; d_cid; d_cls; d_ctor; d_len } ->
      (* a stack array of class objects: default-construct every
         element; journalled as one allocation *)
      let id = fresh_obj_id env in
      Profile.record_alloc env.profile ~id ~cls:d_cls ~count:d_len;
      let cells =
        guest_array d_len (fun _ ->
            VObj (construct_raw env d_cid d_cls d_ctor [||]))
      in
      frame.locals.cells.(d_slot) <- VArr { arr_id = id; cells }
  | DExpr { d_slot; d_coerce; d_init } ->
      frame.locals.cells.(d_slot) <- coerce d_coerce (eval env frame d_init)
  | DRefExpr { d_slot; d_init; d_lv } ->
      (* bind the reference to the initializer's location; the
         initializer is evaluated for its value first, as before *)
      ignore (eval env frame d_init);
      frame.locals.cells.(d_slot) <- ptr_of_loc (eval_lval env frame d_lv)
  | DCtor { d_slot; d_cid; d_cls; d_ctor; d_args } ->
      let argv = eval_args env frame d_args in
      let o = construct_journalled env d_cid d_cls d_ctor argv in
      frame.locals.cells.(d_slot) <- VObj o
  | DFail msg -> runtime_error "%s" msg

(* Class objects (and object arrays) held by a scope's slots are
   destroyed on every exit path; the slot is then cleared so a loop
   iteration that skips the declaration cannot re-destroy a stale
   value. *)
and destroy_slots env frame (slots : int array) =
  Array.iter
    (fun s ->
      match frame.locals.cells.(s) with
      | VObj o ->
          destroy_complete env o;
          Profile.record_free env.profile o.obj_id;
          frame.locals.cells.(s) <- VUnit
      | VArr h when h.arr_id >= 0 ->
          Array.iter
            (function VObj o -> destroy_complete env o | _ -> ())
            h.cells;
          Profile.record_free env.profile h.arr_id;
          frame.locals.cells.(s) <- VUnit
      | _ -> ())
    slots

and exec_delete env frame e =
  let v = eval env frame e in
  match v with
  | VNull -> ()
  | VPtr (PObj o) ->
      destroy_complete env o;
      Profile.record_free env.profile o.obj_id
  | VPtr (PArr (h, _)) ->
      Array.iter
        (function VObj o -> destroy_complete env o | _ -> ())
        h.cells;
      if h.arr_id >= 0 then Profile.record_free env.profile h.arr_id
  | _ -> runtime_error "delete of a non-pointer value"

(* -- entry point ------------------------------------------------------------------ *)

type outcome = {
  return_value : int;
  output : string;
  snapshot : Profile.snapshot;
  steps : int;
}

type engine = Tree | Bytecode

let default_step_limit = 200_000_000
let default_call_depth_limit = 10_000
let default_heap_object_limit = 10_000_000

(* -- lowering -----------------------------------------------------------------

   Resolution and bytecode compilation are pure functions of the typed
   program. A caller that runs one program many times (the serve
   daemon's front cache) lowers it once with [lower] and passes the
   result to every [run]; otherwise [run] lowers the program itself. *)

type lowered = { lo_rp : rprogram; lo_bc : Bytecode.cprogram }

let lower (p : program) : lowered =
  let rp = Resolve.program p in
  { lo_rp = rp; lo_bc = Bytecode.compile rp }

(* telemetry instruments (no-ops unless collection is enabled); the
   per-step hot path is untouched — totals are recorded once per run.
   The guard-proximity gauges say how close the run came to each
   resource guard, in percent of the limit consumed. *)
let steps_counter = Telemetry.Counter.make "interp.steps"
let allocs_counter = Telemetry.Counter.make "interp.allocations"
let runs_counter = Telemetry.Counter.make "interp.runs"
let step_pct_gauge = Telemetry.Gauge.make "interp.guard.steps_used_pct"
let depth_pct_gauge = Telemetry.Gauge.make "interp.guard.call_depth_used_pct"
let objects_pct_gauge = Telemetry.Gauge.make "interp.guard.objects_used_pct"

let pct_of used limit = if limit <= 0 then 0 else used * 100 / limit

let run_tree ~dead ~step_limit ~call_depth_limit ~heap_object_limit ?lowered
    (p : program) : outcome =
  Telemetry.Span.with_ "interp" @@ fun () ->
  let rp = match lowered with Some lo -> lo.lo_rp | None -> Resolve.program p in
  let env =
    {
      rp;
      funcs = rp.rp_funcs;
      classes = rp.rp_classes;
      destroy = rp.rp_destroy;
      profile = Profile.create ~dead p.table;
      globals =
        { arr_id = -1; cells = Array.make (Array.length rp.rp_globals) VUnit };
      statics =
        { arr_id = -1; cells = Array.map default_value rp.rp_static_tys };
      output = Buffer.create 256;
      obj_counter = 0;
      steps = 0;
      step_limit = max 1 step_limit;
      next_stop = min (max 1 step_limit) deadline_check_interval;
      call_depth = 0;
      max_call_depth = 0;
      call_depth_limit = max 1 call_depth_limit;
      heap_object_limit = max 1 heap_object_limit;
    }
  in
  let record_telemetry () =
    Telemetry.Counter.incr runs_counter;
    Telemetry.Counter.add steps_counter env.steps;
    Telemetry.Counter.add allocs_counter env.obj_counter;
    Telemetry.Gauge.set step_pct_gauge (pct_of env.steps env.step_limit);
    Telemetry.Gauge.set depth_pct_gauge
      (pct_of env.max_call_depth env.call_depth_limit);
    Telemetry.Gauge.set objects_pct_gauge
      (pct_of env.obj_counter env.heap_object_limit)
  in
  (* totals and guard proximity are recorded even when a limit aborts
     the run — that is exactly when guard proximity matters *)
  Fun.protect ~finally:record_telemetry @@ fun () ->
  let init_frame = new_frame 0 VUnit in
  let ret =
    (* [abort()], wherever the guest calls it, ends the run with
       status 134; native resource exhaustion (a Stack_overflow the
       depth guard did not preempt, or the allocator running dry)
       becomes a structured limit error, never an uncaught native
       exception *)
    try
      (* globals, in declaration order *)
      Array.iteri
        (fun i (g : rglobal) ->
          env.globals.cells.(i) <-
            (match g.rg_init with
            | Some e -> coerce g.rg_coerce (eval env init_frame e)
            | None -> default_value g.rg_default))
        rp.rp_globals;
      call_function env rp.rp_main ~this:VUnit [||]
    with
    | e when is_abort e -> VInt 134
    | Stack_overflow ->
        limit_exceeded "interpreter stack exhausted (call depth limit %d)"
          env.call_depth_limit
    | Out_of_memory ->
        limit_exceeded "interpreter heap exhausted (object limit %d)"
          env.heap_object_limit
  in
  let limits =
    {
      Profile.l_step_limit = env.step_limit;
      l_call_depth_limit = env.call_depth_limit;
      l_heap_object_limit = env.heap_object_limit;
    }
  in
  {
    return_value = (match ret with VInt n -> n | _ -> 0);
    output = Buffer.contents env.output;
    snapshot = Profile.snapshot ~limits env.profile;
    steps = env.steps;
  }

(* The bytecode engine: same observable contract, run through the flat
   VM. Telemetry totals and guard proximity are recorded even when a
   limit aborts the run, exactly as in the tree engine. *)
let run_bytecode ~dead ~step_limit ~call_depth_limit ~heap_object_limit
    ?lowered ?profiler (p : program) : outcome =
  Telemetry.Span.with_ "interp" @@ fun () ->
  let cp = (match lowered with Some lo -> lo | None -> lower p).lo_bc in
  let step_limit = max 1 step_limit in
  let call_depth_limit = max 1 call_depth_limit in
  let heap_object_limit = max 1 heap_object_limit in
  let vm =
    Bytecode.make_vm ~dead ?profiler ~step_limit ~call_depth_limit
      ~heap_object_limit cp
  in
  let record_telemetry () =
    Telemetry.Counter.incr runs_counter;
    Telemetry.Counter.add steps_counter (Bytecode.steps vm);
    Telemetry.Counter.add allocs_counter (Bytecode.allocations vm);
    Telemetry.Gauge.set step_pct_gauge (pct_of (Bytecode.steps vm) step_limit);
    Telemetry.Gauge.set depth_pct_gauge
      (pct_of (Bytecode.max_call_depth vm) call_depth_limit);
    Telemetry.Gauge.set objects_pct_gauge
      (pct_of (Bytecode.allocations vm) heap_object_limit)
  in
  Fun.protect ~finally:record_telemetry @@ fun () ->
  let ret = Bytecode.execute vm in
  let limits =
    {
      Profile.l_step_limit = step_limit;
      l_call_depth_limit = call_depth_limit;
      l_heap_object_limit = heap_object_limit;
    }
  in
  {
    return_value = (match ret with VInt n -> n | _ -> 0);
    output = Bytecode.output vm;
    snapshot = Profile.snapshot ~limits (Bytecode.profile vm);
    steps = Bytecode.steps vm;
  }

let run ?(engine = Bytecode) ?(dead = Member.Set.empty)
    ?(step_limit = default_step_limit)
    ?(call_depth_limit = default_call_depth_limit)
    ?(heap_object_limit = default_heap_object_limit) ?lowered (p : program) :
    outcome =
  match engine with
  | Tree ->
      run_tree ~dead ~step_limit ~call_depth_limit ~heap_object_limit
        ?lowered p
  | Bytecode ->
      run_bytecode ~dead ~step_limit ~call_depth_limit ~heap_object_limit
        ?lowered p

(* Profiled run: always the bytecode engine (the profiler counts its
   dispatches). The program is lowered here, once, because the compiled
   program is needed up front to size the profiler's counter rows. *)
let run_profiled ?(dead = Member.Set.empty) ?(step_limit = default_step_limit)
    ?(call_depth_limit = default_call_depth_limit)
    ?(heap_object_limit = default_heap_object_limit) (p : program) :
    outcome * Vm_profile.report =
  let lo = lower p in
  let profiler = Bytecode.make_profiler lo.lo_bc in
  let outcome =
    run_bytecode ~dead ~step_limit ~call_depth_limit ~heap_object_limit
      ~lowered:lo ~profiler p
  in
  (outcome, Bytecode.profile_report lo.lo_bc profiler ~steps:outcome.steps)
