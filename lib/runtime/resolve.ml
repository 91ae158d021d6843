(* Resolution pass: lowers a typed program into a slot-addressed form the
   interpreter executes directly, moving every name-based lookup the old
   tree-walker performed at runtime to program-load time.

   - Locals and parameters become integer indices into a flat [value
     array] frame (one array per call, no per-scope hashtables).
   - Object data members become slots in a per-object [value array]. A
     member's identity is the paper's (defining class, name) pair; its
     slot number depends on the receiver's *dynamic* class, so every
     access site carries a small [int array] mapping interned class id ->
     slot, built once per distinct member.
   - Virtual calls go through per-name dispatch tables (class id ->
     function index), precomputed from [Member_lookup.dispatch] for every
     class in the table and shared by all call sites of that name.
   - Free/method/constructor call targets, globals, and static data
     members are interned to integer indices; unresolved targets become
     stub entries that raise the same runtime errors the tree-walker
     produced, but only if actually reached.

   The pass is purely a change of addressing: evaluation order, tick
   (step-counting) points, construction/destruction order and error
   messages are preserved, so [interp.steps] and all observable behavior
   match the pre-slotting interpreter.

   Every slot of the IR lives in one boxed bank, and the tree walker runs
   the IR exactly as resolved. Which slots the bytecode compiler keeps
   unboxed is a separate analysis at the end of this file ([banks]): it
   returns maps and never rewrites the IR, so one [rprogram] serves both
   engines. *)

open Frontend
open Sema
open Sema.Typed_ast
open Value

(* class id -> slot of a fixed member in that class's object layout, or
   -1 when objects of that class have no such member. *)
type slots_by_class = int array

(* Which representation bank a local slot or data member lives in. The
   resolved IR has only the boxed [value array] bank; the bytecode
   compiler also keeps integral slots (int/long/char/bool) whose address
   never escapes in an unboxed [int array] (see [banks]). Everything
   else — floats, objects, arrays, pointers, references, address-taken
   scalars, member-pointer-reachable members — stays boxed. *)
type bank = BBox | BInt

(* -- resolved IR -------------------------------------------------------- *)

type rexpr =
  | RConst of value
  | RLocal of int
  | RLocalRef of int  (* reference-typed local: reads its referent *)
  | RGlobal of int
  | RStatic of int
  | RThis
  | RUnary of Ast.unop * rexpr
  | RBinary of Ast.binop * rexpr * rexpr
  | RAssign of rlval * rexpr * Ast.type_expr  (* decayed lhs type, for coerce *)
  | RCompound of Ast.assign_op * rlval * rexpr * Ast.type_expr
  | RIncDec of Ast.incdec * Ast.fixity * rlval
  | RCond of rexpr * rexpr * rexpr
  | RCastInt of rexpr
  | RCastFloat of rexpr
  | RField of rexpr * slots_by_class * Member.t
  | RCall of rcall
  | RAddrOf of rlval
  | RDeref of rexpr
  | RIndex of rexpr * rexpr
  | RMemPtrDeref of rexpr * rexpr
  | RNewObj of {
      no_cid : int;
      no_cls : string;
      no_ctor : int;
      no_args : arg_mode array;
    }
  | RNewScalar of { ns_bytes : int; ns_ty : Ast.type_expr }
  | RNewArrObj of { na_cid : int; na_cls : string; na_ctor : int; na_len : rexpr }
  | RNewArrScalar of { nas_ty : Ast.type_expr; nas_elem_bytes : int; nas_len : rexpr }
  | RInvalid of string  (* raises the given runtime error when evaluated *)

and rlval =
  | LvLocal of int
  | LvLocalRef of int  (* reference-typed local: location of its referent *)
  | LvGlobal of int
  | LvStatic of int
  | LvField of rexpr * slots_by_class * Member.t
  | LvDeref of rexpr
  | LvIndex of rexpr * rexpr
  | LvMemPtrDeref of rexpr * rexpr
  | LvInvalid of string

(* How a call site evaluates one argument, decided from the callee's
   parameter types at resolve time (the old interpreter re-derived this
   from [tf_params] on every call). *)
and arg_mode =
  | AVal of rexpr        (* by value *)
  | ARefScalar of rlval  (* scalar reference parameter: pass the location *)
  | ARefObj of rexpr     (* object reference parameter: pass the object *)

and rcall =
  | RBuiltin of builtin * rexpr array
  | RCallFunc of { cf_func : int; cf_args : arg_mode array }
  | RCallMethod of {
      cm_recv : rexpr;
      cm_arrow : bool;
      cm_func : int;
      cm_args : arg_mode array;
    }
  | RCallVirtual of {
      cv_recv : rexpr;
      cv_name : string;
      cv_table : int array;  (* class id -> function index, -1 = no target *)
      cv_args : arg_mode array;
    }
  | RCallFunPtr of { fp_fn : rexpr; fp_args : arg_mode array }

type rdecl =
  | DScalar of { d_slot : int; d_ty : Ast.type_expr }
  | DStackArrObj of {
      d_slot : int;
      d_cid : int;
      d_cls : string;
      d_ctor : int;
      d_len : int;
    }
  | DExpr of { d_slot : int; d_coerce : Ast.type_expr; d_init : rexpr }
  (* reference decl: the old interpreter evaluated the initializer for
     its value first, then again as an lvalue — both are kept *)
  | DRefExpr of { d_slot : int; d_init : rexpr; d_lv : rlval }
  | DCtor of {
      d_slot : int;
      d_cid : int;
      d_cls : string;
      d_ctor : int;
      d_args : arg_mode array;
    }
  | DFail of string

type rstmt =
  | RSExpr of rexpr
  | RSDecl of rdecl list
  (* destroy lists: frame slots declared in the scope, in reverse
     declaration order, scanned for objects on every exit *)
  | RSBlock of rstmt array * int array
  | RSIf of rexpr * rstmt * rstmt option
  | RSWhile of rexpr * rstmt
  | RSDoWhile of rstmt * rexpr
  | RSFor of {
      rf_init : rstmt option;
      rf_cond : rexpr option;
      rf_step : rexpr option;
      rf_body : rstmt;
      rf_destroy : int array;
    }
  | RSReturn of rexpr option
  | RSBreak
  | RSContinue
  | RSDelete of rexpr
  | RSEmpty

type rparam = { rp_slot : int; rp_ref : bool; rp_coerce : Ast.type_expr }

(* Constructor execution plan: everything [run_ctor] needs, precomputed.
   Member slots still go through [slots_by_class] because the same
   constructor runs inside objects of every derived dynamic class. *)
type ctor_plan = {
  cp_vbases : base_plan array;  (* virtual bases, most-derived level only *)
  cp_bases : base_plan array;   (* direct non-virtual bases, decl order *)
  cp_fields : field_plan array; (* declaration order *)
  cp_body : rstmt option;
}

and base_plan = { bp_cls : string; bp_ctor : int; bp_args : arg_mode array }

and field_plan =
  | FPClass of {
      fc_slots : slots_by_class;
      fc_member : Member.t;
      fc_cid : int;
      fc_cls : string;
      fc_ctor : int;
      fc_args : arg_mode array;
    }
  | FPClassArr of {
      fa_slots : slots_by_class;
      fa_member : Member.t;
      fa_cid : int;
      fa_cls : string;
      fa_ctor : int;
      fa_len : int;
    }
  | FPScalar of {
      fs_slots : slots_by_class;
      fs_member : Member.t;
      fs_coerce : Ast.type_expr;
      fs_init : rexpr;
    }
  | FPBadInit

type rcode =
  | CBody of rstmt     (* free function / method with a body *)
  | CCtor of ctor_plan
  | CDtor              (* destroys the receiver from its dynamic class *)
  | CUnknown           (* no such function: raises when called *)
  | CUndefined         (* declared but has no body: raises when called *)
  | CMissingCtor       (* constructor reference with no definition *)

type rfunc = {
  rf_id : Func_id.t;
  rf_nslots : int;  (* frame size: params + every local declaration *)
  rf_params : rparam array;
  rf_code : rcode;
}

(* Per-class destruction plan for one static level of the hierarchy (the
   old [destroy_from] re-derived all of this from the class table on
   every destruction). *)
type destroy_plan = {
  dp_dtor : (int * rstmt) option;  (* dtor body: frame size, body *)
  dp_fields : dfield array;        (* reverse declaration order *)
  dp_nv_bases : int array;         (* direct non-virtual base cids, reversed *)
}

and dfield =
  | DFClass of slots_by_class * Member.t
  | DFClassArr of slots_by_class * Member.t

(* One class's object layout. The IR's layout has every member in the
   boxed bank; the bytecode compiler's ([banks]) numbers each bank
   separately. *)
type class_info = {
  ci_name : string;
  ci_id : int;
  (* bank and index within that bank of every instance member. A member
     a member pointer names is always boxed (the analysis demotes it),
     so member-pointer dereference reads only boxed entries. *)
  ci_slot : (Member.t, bank * int) Hashtbl.t;
  (* default member values of the boxed bank, copied per object. Slots
     whose default is mutable (arrays) hold VUnit in the template and are
     rebuilt fresh per object from [ci_fresh]. The unboxed bank needs no
     template: integral members always default to 0. *)
  ci_template : value array;
  ci_nints : int;  (* unboxed integral bank size *)
  ci_fresh : (int * Ast.type_expr) array;
  ci_vbases_rev : int array;  (* virtual base cids, reversed, for destruction *)
}

type rglobal = {
  rg_name : string;
  rg_coerce : Ast.type_expr;
  rg_default : Ast.type_expr;
  rg_init : rexpr option;
}

type rprogram = {
  rp_table : Class_table.t;
  rp_classes : class_info array;
  rp_class_id : (string, int) Hashtbl.t;
  rp_destroy : destroy_plan array;  (* by class id *)
  rp_funcs : rfunc array;
  rp_func_idx : (Func_id.t, int) Hashtbl.t;  (* for function-pointer calls *)
  rp_globals : rglobal array;
  rp_static_tys : Ast.type_expr array;  (* static member cells, by index *)
  rp_main : int;
}

(* -- telemetry (no-ops unless collection is enabled) -------------------------- *)

let classes_counter = Telemetry.Counter.make "resolve.classes"
let funcs_counter = Telemetry.Counter.make "resolve.functions"
let member_tables_counter = Telemetry.Counter.make "resolve.member_tables"
let vtables_counter = Telemetry.Counter.make "resolve.vtables"

(* -- resolver state ----------------------------------------------------------- *)

type ctx = {
  prog : program;
  table : Class_table.t;
  nclasses : int;
  class_id : (string, int) Hashtbl.t;
  classes : class_info array;
  (* function interning: real functions first, stubs appended on demand *)
  func_idx : (Func_id.t, int) Hashtbl.t;
  mutable next_fidx : int;
  mutable stubs : (int * Func_id.t * rcode) list;
  (* memoized per-member slot tables and per-name dispatch tables *)
  member_slots_memo : (Member.t, slots_by_class) Hashtbl.t;
  vtable_memo : (string, int array) Hashtbl.t;
  global_idx : (string, int) Hashtbl.t;
  static_idx : (Member.t, int) Hashtbl.t;
  mutable static_tys : Ast.type_expr list;  (* reversed *)
  mutable nstatics : int;
}

(* Per-function local-slot allocation. Scopes mirror the runtime scope
   chain the old interpreter kept as a hashtable list; every declaration
   gets a distinct slot, so shadowing works without frames ever being
   cleared between scope entries. *)
type scope = {
  names : (string, int) Hashtbl.t;
  mutable decls : int list;  (* slots of the scope, reverse decl order *)
}

type fctx = { mutable nslots : int; mutable scopes : scope list }

let new_fctx () = { nslots = 0; scopes = [] }

let push_scope f =
  f.scopes <- { names = Hashtbl.create 8; decls = [] } :: f.scopes

let pop_scope f =
  match f.scopes with
  | s :: rest ->
      f.scopes <- rest;
      Array.of_list s.decls
  | [] -> assert false

let alloc_local f name =
  let slot = f.nslots in
  f.nslots <- slot + 1;
  (match f.scopes with
  | s :: _ ->
      Hashtbl.replace s.names name slot;
      s.decls <- slot :: s.decls
  | [] -> assert false);
  slot

let find_local f name =
  let rec go = function
    | [] -> None
    | s :: rest -> (
        match Hashtbl.find_opt s.names name with
        | Some i -> Some i
        | None -> go rest)
  in
  go f.scopes

(* -- interning ---------------------------------------------------------------- *)

let cid ctx cls =
  match Hashtbl.find_opt ctx.class_id cls with Some i -> i | None -> -1

(* Function index for [id]; unresolved ids get a stub entry that raises
   the historical error message if the program ever reaches it. *)
let fidx ctx (id : Func_id.t) : int =
  match Hashtbl.find_opt ctx.func_idx id with
  | Some i -> i
  | None ->
      let i = ctx.next_fidx in
      ctx.next_fidx <- i + 1;
      Hashtbl.replace ctx.func_idx id i;
      let code =
        match id with
        | Func_id.FCtor _ -> CMissingCtor
        (* destructor dispatch never needed a definition: it destroys the
           receiver from its dynamic class *)
        | Func_id.FDtor _ -> CDtor
        | Func_id.FFree _ | Func_id.FMethod _ -> CUnknown
      in
      ctx.stubs <- (i, id, code) :: ctx.stubs;
      i

let static_of ctx (m : Member.t) : int =
  match Hashtbl.find_opt ctx.static_idx m with
  | Some i -> i
  | None ->
      let cls, name = m in
      let ty =
        match Class_table.find ctx.table cls with
        | Some c -> (
            match Class_table.own_field c name with
            | Some f -> f.f_type
            | None -> Ast.TInt)
        | None -> Ast.TInt
      in
      let i = ctx.nstatics in
      ctx.nstatics <- i + 1;
      Hashtbl.replace ctx.static_idx m i;
      ctx.static_tys <- ty :: ctx.static_tys;
      i

(* [m]'s slot in each class of [classes], within its bank *)
let slots_of (classes : class_info array) (m : Member.t) : slots_by_class =
  Array.map
    (fun ci ->
      match Hashtbl.find_opt ci.ci_slot m with Some (_, s) -> s | None -> -1)
    classes

let member_slots ctx (m : Member.t) : slots_by_class =
  match Hashtbl.find_opt ctx.member_slots_memo m with
  | Some a -> a
  | None ->
      let a = slots_of ctx.classes m in
      Hashtbl.replace ctx.member_slots_memo m a;
      Telemetry.Counter.incr member_tables_counter;
      a

(* Dispatch table for virtual method [name]: most-derived override per
   possible dynamic class, built once and shared by every call site. *)
let vtable ctx name : int array =
  match Hashtbl.find_opt ctx.vtable_memo name with
  | Some t -> t
  | None ->
      let t =
        Array.init ctx.nclasses (fun c ->
            match
              Member_lookup.dispatch ctx.table ~dyn:ctx.classes.(c).ci_name
                ~name
            with
            | Some (def, _) -> fidx ctx (Func_id.FMethod (def, name))
            | None -> -1)
      in
      Hashtbl.replace ctx.vtable_memo name t;
      Telemetry.Counter.incr vtables_counter;
      t

(* -- expressions --------------------------------------------------------------- *)

let rec rexpr ctx f (e : texpr) : rexpr =
  match e.te with
  | TInt n -> RConst (VInt n)
  | TBool b -> RConst (VInt (if b then 1 else 0))
  | TChar c -> RConst (VInt (Char.code c))
  | TFloat x -> RConst (VFloat x)
  | TStr s -> RConst (VStr s)
  | TNull -> RConst VNull
  | TLocal name -> (
      match find_local f name with
      | Some i -> (
          match e.ty with Ast.TRef _ -> RLocalRef i | _ -> RLocal i)
      | None -> RInvalid (Fmt.str "unbound local '%s'" name))
  | TGlobalVar name -> (
      match Hashtbl.find_opt ctx.global_idx name with
      | Some i -> RGlobal i
      | None -> RInvalid (Fmt.str "unbound global '%s'" name))
  | TEnumConst (_, v) -> RConst (VInt v)
  | TThis _ -> RThis
  | TStaticField (cls, name) -> RStatic (static_of ctx (cls, name))
  | TUnary (op, a) -> RUnary (op, rexpr ctx f a)
  | TBinary (op, a, b) -> RBinary (op, rexpr ctx f a, rexpr ctx f b)
  | TAssign (Ast.Assign, lhs, rhs) ->
      RAssign (rlval ctx f lhs, rexpr ctx f rhs, Ctype.decay lhs.ty)
  | TAssign (op, lhs, rhs) ->
      RCompound (op, rlval ctx f lhs, rexpr ctx f rhs, Ctype.decay lhs.ty)
  | TIncDec (which, fix, a) -> RIncDec (which, fix, rlval ctx f a)
  | TCond (c, t, e) -> RCond (rexpr ctx f c, rexpr ctx f t, rexpr ctx f e)
  | TCast (_, ty, a, _) ->
      let d = Ctype.decay ty in
      if Ctype.is_integral d then RCastInt (rexpr ctx f a)
      else if Ctype.is_floating d then RCastFloat (rexpr ctx f a)
      else rexpr ctx f a (* pointer casts: dynamic identity preserved *)
  | TField fa ->
      let m = (fa.fa_def_class, fa.fa_field) in
      RField (rexpr ctx f fa.fa_obj, member_slots ctx m, m)
  | TCall c -> RCall (rcall ctx f c)
  | TAddrOf a -> RAddrOf (rlval ctx f a)
  | TFunAddr id ->
      (* intern so a later indirect call finds its target (or stub) *)
      ignore (fidx ctx id);
      RConst (VFunPtr id)
  | TMemPtr (cls, name) -> RConst (VMemPtr (cls, name))
  | TDeref a -> RDeref (rexpr ctx f a)
  | TIndex (a, i) -> RIndex (rexpr ctx f a, rexpr ctx f i)
  | TMemPtrDeref (recv, pm, _) -> RMemPtrDeref (rexpr ctx f recv, rexpr ctx f pm)
  | TNewObj { cls; ctor; args } ->
      RNewObj
        {
          no_cid = cid ctx cls;
          no_cls = cls;
          no_ctor = fidx ctx ctor;
          no_args = call_arg_modes ctx f ctor args;
        }
  | TNewScalar ty ->
      RNewScalar { ns_bytes = Layout.size_of_type ctx.table ty; ns_ty = ty }
  | TNewArr (ty, n) -> (
      match ty with
      | Ast.TNamed cls ->
          RNewArrObj
            {
              na_cid = cid ctx cls;
              na_cls = cls;
              na_ctor = fidx ctx (Func_id.FCtor (cls, 0));
              na_len = rexpr ctx f n;
            }
      | _ ->
          RNewArrScalar
            {
              nas_ty = ty;
              nas_elem_bytes = Layout.size_of_type ctx.table ty;
              nas_len = rexpr ctx f n;
            })
  | TSizeofType ty -> RConst (VInt (Layout.size_of_type ctx.table ty))
  | TSizeofExpr a ->
      RConst (VInt (Layout.size_of_type ctx.table (Ctype.decay a.ty)))

and rlval ctx f (e : texpr) : rlval =
  match e.te with
  | TLocal name -> (
      match find_local f name with
      | Some i -> (
          match e.ty with Ast.TRef _ -> LvLocalRef i | _ -> LvLocal i)
      | None -> LvInvalid (Fmt.str "unbound local '%s'" name))
  | TGlobalVar name -> (
      match Hashtbl.find_opt ctx.global_idx name with
      | Some i -> LvGlobal i
      | None -> LvInvalid (Fmt.str "unbound global '%s'" name))
  | TStaticField (cls, name) -> LvStatic (static_of ctx (cls, name))
  | TField fa ->
      let m = (fa.fa_def_class, fa.fa_field) in
      LvField (rexpr ctx f fa.fa_obj, member_slots ctx m, m)
  | TDeref a -> LvDeref (rexpr ctx f a)
  | TIndex (a, i) -> LvIndex (rexpr ctx f a, rexpr ctx f i)
  | TMemPtrDeref (recv, pm, _) ->
      LvMemPtrDeref (rexpr ctx f recv, rexpr ctx f pm)
  | TCast (_, _, inner, _) -> rlval ctx f inner
  | _ -> LvInvalid "expression is not an lvalue"

(* Argument modes against the callee's parameter types; mirrors the old
   [eval_args_tys] (plain by-value evaluation on arity mismatch — the
   call itself then fails the arity check, after evaluating). *)
and arg_modes ctx f (tys : Ast.type_expr list) (args : texpr list) :
    arg_mode array =
  if List.length tys <> List.length args then
    Array.of_list (List.map (fun a -> AVal (rexpr ctx f a)) args)
  else
    Array.of_list
      (List.map2
         (fun ty a ->
           match ty with
           | Ast.TRef (Ast.TNamed _) -> ARefObj (rexpr ctx f a)
           | Ast.TRef _ -> ARefScalar (rlval ctx f a)
           | _ -> AVal (rexpr ctx f a))
         tys args)

and call_arg_modes ctx f (id : Func_id.t) (args : texpr list) : arg_mode array =
  match find_func ctx.prog id with
  | Some fn -> arg_modes ctx f (List.map snd fn.tf_params) args
  | None -> Array.of_list (List.map (fun a -> AVal (rexpr ctx f a)) args)

and rcall ctx f (c : call) : rcall =
  match c with
  | CBuiltin (b, args) ->
      RBuiltin (b, Array.of_list (List.map (rexpr ctx f) args))
  | CFree (name, args) ->
      let id = Func_id.FFree name in
      RCallFunc { cf_func = fidx ctx id; cf_args = call_arg_modes ctx f id args }
  | CFunPtr (fn, args) ->
      let modes =
        match Ctype.decay fn.ty with
        | Ast.TFun (_, tys) | Ast.TPtr (Ast.TFun (_, tys)) ->
            arg_modes ctx f tys args
        | _ -> Array.of_list (List.map (fun a -> AVal (rexpr ctx f a)) args)
      in
      RCallFunPtr { fp_fn = rexpr ctx f fn; fp_args = modes }
  | CMethod mc -> (
      let id = Func_id.FMethod (mc.mc_class, mc.mc_name) in
      let args = call_arg_modes ctx f id mc.mc_args in
      match mc.mc_dispatch with
      | DStatic ->
          RCallMethod
            {
              cm_recv = rexpr ctx f mc.mc_recv;
              cm_arrow = mc.mc_arrow;
              cm_func = fidx ctx id;
              cm_args = args;
            }
      | DVirtual ->
          RCallVirtual
            {
              cv_recv = rexpr ctx f mc.mc_recv;
              cv_name = mc.mc_name;
              cv_table = vtable ctx mc.mc_name;
              cv_args = args;
            })

(* -- statements ----------------------------------------------------------------- *)

let rdecl ctx f (d : tvar_decl) : rdecl =
  (* initializers are resolved before the name is bound: [int x = x + 1]
     reads the outer [x], exactly as the scope-chain interpreter did *)
  let mk =
    match d.tv_init with
    | TInitNone -> (
        match d.tv_type with
        | Ast.TArr (Ast.TNamed cls, n) ->
            let c = cid ctx cls and fi = fidx ctx (Func_id.FCtor (cls, 0)) in
            fun slot ->
              DStackArrObj
                { d_slot = slot; d_cid = c; d_cls = cls; d_ctor = fi; d_len = n }
        | ty -> fun slot -> DScalar { d_slot = slot; d_ty = ty })
    | TInitExpr e -> (
        match d.tv_type with
        | Ast.TRef _ ->
            let init = rexpr ctx f e in
            let lv = rlval ctx f e in
            fun slot -> DRefExpr { d_slot = slot; d_init = init; d_lv = lv }
        | ty ->
            let init = rexpr ctx f e in
            let co = Ctype.decay ty in
            fun slot -> DExpr { d_slot = slot; d_coerce = co; d_init = init })
    | TInitCtor (ctor, args) -> (
        match d.tv_type with
        | Ast.TNamed cls ->
            let args = call_arg_modes ctx f ctor args in
            let c = cid ctx cls and fi = fidx ctx ctor in
            fun slot ->
              DCtor
                { d_slot = slot; d_cid = c; d_cls = cls; d_ctor = fi; d_args = args }
        | _ ->
            fun _ -> DFail "constructor initialization of a non-class variable")
  in
  mk (alloc_local f d.tv_name)

let rec rstmt ctx f (s : tstmt) : rstmt =
  match s.ts with
  | TSExpr e -> RSExpr (rexpr ctx f e)
  | TSDecl ds -> RSDecl (List.map (rdecl ctx f) ds)
  | TSBlock body ->
      push_scope f;
      let body = List.map (rstmt ctx f) body in
      let destroy = pop_scope f in
      RSBlock (Array.of_list body, destroy)
  | TSIf (c, t, e) ->
      RSIf (rexpr ctx f c, rstmt ctx f t, Option.map (rstmt ctx f) e)
  | TSWhile (c, b) -> RSWhile (rexpr ctx f c, rstmt ctx f b)
  | TSDoWhile (b, c) -> RSDoWhile (rstmt ctx f b, rexpr ctx f c)
  | TSFor (init, cond, step, b) ->
      push_scope f;
      let rf_init = Option.map (rstmt ctx f) init in
      let rf_cond = Option.map (rexpr ctx f) cond in
      let rf_step = Option.map (rexpr ctx f) step in
      let rf_body = rstmt ctx f b in
      let rf_destroy = pop_scope f in
      RSFor { rf_init; rf_cond; rf_step; rf_body; rf_destroy }
  | TSReturn e -> RSReturn (Option.map (rexpr ctx f) e)
  | TSBreak -> RSBreak
  | TSContinue -> RSContinue
  | TSDelete (_, e) -> RSDelete (rexpr ctx f e)
  | TSEmpty -> RSEmpty

(* -- functions ------------------------------------------------------------------- *)

let rparams f (params : (string * Ast.type_expr) list) : rparam array =
  Array.of_list
    (List.map
       (fun (name, ty) ->
         let slot = alloc_local f name in
         match ty with
         | Ast.TRef _ -> { rp_slot = slot; rp_ref = true; rp_coerce = ty }
         | _ -> { rp_slot = slot; rp_ref = false; rp_coerce = Ctype.decay ty })
       params)

let ctor_plan ctx f (fn : tfunc) cls : ctor_plan =
  let base_ctor (bi : base_init) =
    let id = Func_id.FCtor (bi.bi_class, List.length bi.bi_args) in
    {
      bp_cls = bi.bi_class;
      bp_ctor = fidx ctx id;
      bp_args = call_arg_modes ctx f id bi.bi_args;
    }
  in
  (* virtual bases are constructed by the most-derived object only, using
     this constructor's initializer when it names them *)
  let cp_vbases =
    Array.of_list
      (List.map
         (fun vb ->
           match
             List.find_opt (fun bi -> bi.bi_class = vb) fn.tf_base_inits
           with
           | Some bi -> base_ctor bi
           | None ->
               {
                 bp_cls = vb;
                 bp_ctor = fidx ctx (Func_id.FCtor (vb, 0));
                 bp_args = [||];
               })
         (Class_table.virtual_base_names ctx.table cls))
  in
  let cp_bases =
    Array.of_list
      (List.filter_map
         (fun bi -> if bi.bi_virtual then None else Some (base_ctor bi))
         fn.tf_base_inits)
  in
  let cp_fields =
    match Class_table.find ctx.table cls with
    | None -> [||]
    | Some ci ->
        Array.of_list
          (List.filter_map
             (fun (fld : Class_table.field) ->
               if fld.f_static then None
               else
                 let m = (fld.f_class, fld.f_name) in
                 let explicit =
                   List.find_opt
                     (fun fi -> fi.fi_field = fld.f_name)
                     fn.tf_field_inits
                 in
                 match fld.f_type with
                 | Ast.TNamed fcls ->
                     let arity =
                       match explicit with
                       | Some fi -> List.length fi.fi_args
                       | None -> 0
                     in
                     let id = Func_id.FCtor (fcls, arity) in
                     let args =
                       match explicit with
                       | Some fi -> call_arg_modes ctx f id fi.fi_args
                       | None -> [||]
                     in
                     Some
                       (FPClass
                          {
                            fc_slots = member_slots ctx m;
                            fc_member = m;
                            fc_cid = cid ctx fcls;
                            fc_cls = fcls;
                            fc_ctor = fidx ctx id;
                            fc_args = args;
                          })
                 | Ast.TArr (Ast.TNamed fcls, n) ->
                     Some
                       (FPClassArr
                          {
                            fa_slots = member_slots ctx m;
                            fa_member = m;
                            fa_cid = cid ctx fcls;
                            fa_cls = fcls;
                            fa_ctor = fidx ctx (Func_id.FCtor (fcls, 0));
                            fa_len = n;
                          })
                 | ty -> (
                     match explicit with
                     | Some { fi_args = [ a ]; _ } ->
                         Some
                           (FPScalar
                              {
                                fs_slots = member_slots ctx m;
                                fs_member = m;
                                fs_coerce = Ctype.decay ty;
                                fs_init = rexpr ctx f a;
                              })
                     | Some { fi_args = []; _ } | None -> None
                     | Some _ -> Some FPBadInit))
             ci.c_fields)
  in
  { cp_vbases; cp_bases; cp_fields; cp_body = Option.map (rstmt ctx f) fn.tf_body }

let resolve_func ctx (fn : tfunc) : rfunc =
  let f = new_fctx () in
  push_scope f;
  let params = rparams f fn.tf_params in
  let code =
    match fn.tf_id with
    | Func_id.FCtor (cls, _) -> CCtor (ctor_plan ctx f fn cls)
    | Func_id.FDtor _ -> CDtor
    | Func_id.FFree _ | Func_id.FMethod _ -> (
        match fn.tf_body with
        | Some body -> CBody (rstmt ctx f body)
        | None -> CUndefined)
  in
  Telemetry.Counter.incr funcs_counter;
  {
    rf_id = fn.tf_id;
    rf_nslots = f.nslots;
    rf_params = params;
    rf_code = code;
  }

(* -- classes --------------------------------------------------------------------- *)

(* Slot assignment: one slot per instance data member of the class and of
   every transitive base, in [cls :: all_base_names] order (virtual bases
   deduplicated by the class table), each class's own members in
   declaration order — the same member set the old [populate_fields]
   materialized as a hashtable per object. The key is the paper's member
   identity (defining class, name), so a member reached through a shared
   virtual base contributes exactly one slot. [bank] says which bank
   each member goes in; each bank is numbered separately. *)
let build_class table class_id ~(bank : Member.t -> bank) (name : string)
    (id : int) : class_info =
  let chain = name :: Class_table.all_base_names table name in
  let slot_tbl = Hashtbl.create 16 in
  let defaults = ref [] (* reversed *) in
  let fresh = ref [] in
  let nbox = ref 0 and nint = ref 0 in
  List.iter
    (fun c ->
      match Class_table.find table c with
      | None -> ()
      | Some ci ->
          List.iter
            (fun (f : Class_table.field) ->
              if not f.f_static then begin
                let m = (f.f_class, f.f_name) in
                match bank m with
                | BInt ->
                    Hashtbl.replace slot_tbl m (BInt, !nint);
                    incr nint
                | BBox -> (
                    let slot = !nbox in
                    incr nbox;
                    Hashtbl.replace slot_tbl m (BBox, slot);
                    match f.f_type with
                    | Ast.TArr _ ->
                        (* mutable default: built fresh per object *)
                        defaults := VUnit :: !defaults;
                        fresh := (slot, f.f_type) :: !fresh
                    | ty -> defaults := default_value ty :: !defaults)
              end)
            ci.c_fields)
    chain;
  let vb_id n =
    match Hashtbl.find_opt class_id n with Some i -> i | None -> -1
  in
  let vbases = List.map vb_id (Class_table.virtual_base_names table name) in
  {
    ci_name = name;
    ci_id = id;
    ci_slot = slot_tbl;
    ci_template = Array.of_list (List.rev !defaults);
    ci_nints = !nint;
    ci_fresh = Array.of_list (List.rev !fresh);
    ci_vbases_rev = Array.of_list (List.rev vbases);
  }

let destroy_plan ctx (c : Class_table.cls) : destroy_plan =
  let dp_dtor =
    match find_func ctx.prog (Func_id.FDtor c.c_name) with
    | Some { tf_body = Some body; _ } ->
        let f = new_fctx () in
        push_scope f;
        let rbody = rstmt ctx f body in
        Some (f.nslots, rbody)
    | Some _ | None -> None
  in
  let dp_fields =
    Array.of_list
      (List.filter_map
         (fun (fld : Class_table.field) ->
           if fld.f_static then None
           else
             let m = (fld.f_class, fld.f_name) in
             match fld.f_type with
             | Ast.TNamed _ -> Some (DFClass (member_slots ctx m, m))
             | Ast.TArr (Ast.TNamed _, _) ->
                 Some (DFClassArr (member_slots ctx m, m))
             | _ -> None)
         (List.rev c.c_fields))
  in
  let dp_nv_bases =
    Array.of_list
      (List.filter_map
         (fun (b : Ast.base_spec) ->
           if b.b_virtual then None else Some (cid ctx b.b_name))
         (List.rev c.c_bases))
  in
  { dp_dtor; dp_fields; dp_nv_bases }

(* -- entry point ------------------------------------------------------------------ *)

let program (p : program) : rprogram =
  Telemetry.Span.with_ "resolve" @@ fun () ->
  let table = p.table in
  let class_names = Class_table.class_names table in
  let nclasses = List.length class_names in
  let class_id = Hashtbl.create 32 in
  List.iteri (fun i n -> Hashtbl.replace class_id n i) class_names;
  let classes =
    Array.of_list
      (List.mapi
         (fun i n -> build_class table class_id ~bank:(fun _ -> BBox) n i)
         class_names)
  in
  Telemetry.Counter.add classes_counter nclasses;
  (* real functions get the first indices, in deterministic map order *)
  let funcs = all_funcs p in
  let func_idx = Hashtbl.create 64 in
  List.iteri (fun i fn -> Hashtbl.replace func_idx fn.tf_id i) funcs;
  (* pre-size the memo tables from the class table so the resolver never
     rehashes, then build every slot table and dispatch table up front:
     first-touch cost moves from the first interpreted member access /
     virtual call into the resolve phase *)
  let all_cls = Class_table.all_classes table in
  let nmembers =
    List.fold_left (fun n (c : Class_table.cls) -> n + List.length c.c_fields)
      0 all_cls
  in
  let virt_names =
    List.fold_left
      (fun acc (c : Class_table.cls) ->
        List.fold_left
          (fun acc (m : Class_table.method_info) ->
            if m.m_virtual && not m.m_static then
              (if List.mem m.m_name acc then acc else m.m_name :: acc)
            else acc)
          acc c.c_methods)
      [] all_cls
  in
  let ctx =
    {
      prog = p;
      table;
      nclasses;
      class_id;
      classes;
      func_idx;
      next_fidx = List.length funcs;
      stubs = [];
      member_slots_memo = Hashtbl.create (max 64 nmembers);
      vtable_memo = Hashtbl.create (max 16 (List.length virt_names));
      global_idx = Hashtbl.create 16;
      static_idx = Hashtbl.create 16;
      static_tys = [];
      nstatics = 0;
    }
  in
  List.iter
    (fun (c : Class_table.cls) ->
      List.iter
        (fun (f : Class_table.field) ->
          if not f.f_static then
            ignore (member_slots ctx (Member.make ~cls:c.c_name ~name:f.f_name)))
        c.c_fields)
    all_cls;
  List.iter (fun name -> ignore (vtable ctx name)) virt_names;
  (* global initializers first, with visibility growing declaration by
     declaration: the old interpreter bound globals one at a time, so an
     initializer reading a later (or its own) global failed with
     "unbound global" *)
  let rp_globals =
    Array.of_list
      (List.mapi
         (fun i (g : global) ->
           let f = new_fctx () in
           push_scope f;
           let init = Option.map (rexpr ctx f) g.g_init in
           Hashtbl.replace ctx.global_idx g.g_name i;
           {
             rg_name = g.g_name;
             rg_coerce = Ctype.decay g.g_type;
             rg_default = g.g_type;
             rg_init = init;
           })
         p.globals)
  in
  let resolved = List.map (resolve_func ctx) funcs in
  (* destroy plans need the member tables and dtor bodies *)
  let rp_destroy =
    Array.make nclasses { dp_dtor = None; dp_fields = [||]; dp_nv_bases = [||] }
  in
  List.iter
    (fun (c : Class_table.cls) ->
      rp_destroy.(cid ctx c.c_name) <- destroy_plan ctx c)
    all_cls;
  let rp_main = fidx ctx main_id in
  (* assemble the function array: resolved bodies, then on-demand stubs *)
  let stub rf_id rf_code =
    { rf_id; rf_nslots = 0; rf_params = [||]; rf_code }
  in
  let rp_funcs = Array.make (max 1 ctx.next_fidx) (stub main_id CUnknown) in
  List.iteri (fun i rf -> rp_funcs.(i) <- rf) resolved;
  List.iter (fun (i, id, code) -> rp_funcs.(i) <- stub id code) ctx.stubs;
  {
    rp_table = table;
    rp_classes = classes;
    rp_class_id = class_id;
    rp_destroy;
    rp_funcs;
    rp_func_idx = ctx.func_idx;
    rp_globals;
    rp_static_tys = Array.of_list (List.rev ctx.static_tys);
    rp_main;
  }

(* -- int banks: the bytecode compiler's slot analysis ----------------------

   The bytecode compiler keeps integral slots whose location never
   escapes in an unboxed [int array]; [banks] decides which, and only
   [Bytecode.compile] reads its answer. It runs on the finished IR, when
   every escape site is visible, and scans every code unit once: each
   local slot's declared bank (from its declaration or parameter type)
   and each data member's bank (from its declared type), demoting to the
   boxed bank every slot whose location can escape — address-taken
   ([RAddrOf]), bound to a scalar reference parameter ([ARefScalar]) or
   a reference local ([DRefExpr]), or, for members, named in a
   member-pointer constant. It returns maps and changes nothing: the IR,
   its layouts and its slot tables stay as resolved, so the tree walker
   and the compiler can share one [rprogram]. *)

let bank_of_type (ty : Ast.type_expr) : bank =
  match ty with
  | Ast.TRef _ -> BBox
  | _ when Ctype.is_integral ty -> BInt
  | _ -> BBox

let unboxed_int_counter = Telemetry.Counter.make "runtime.slots.unboxed_int"
let boxed_fallback_counter = Telemetry.Counter.make "runtime.slots.boxed_fallback"

let count_bank = function
  | BInt -> Telemetry.Counter.incr unboxed_int_counter
  | BBox -> Telemetry.Counter.incr boxed_fallback_counter

(* Per-bank frame sizes of one code unit. *)
type fshape = { nbox : int; nint : int }

(* The verdicts for one code unit's frame, indexed by IR slot. *)
type unit_banks = {
  ub_bank : bank array;
  ub_index : int array;  (* the slot's index within its bank *)
  (* Slots a scope exit can actually destroy: only a by-value object or
     a constructed stack array ever puts a [VObj] / journalled [VArr]
     in a local slot — [coerce] turns pointers into [VPtr], references
     bind as [ptr_of_loc] results, and scalar-array defaults carry
     [arr_id = -1]. The compiler drops every other slot, and every
     unboxed one, from destroy lists: they are guaranteed no-ops for
     the scope-exit scan, so scopes with no owning slot compile away. *)
  ub_owns : bool array;
  ub_shape : fshape;
}

type banks = {
  bk_funcs : unit_banks array;  (* by function index *)
  bk_dtors : unit_banks option array;  (* by class id *)
  bk_globals : unit_banks;  (* global initializers: an empty frame *)
  bk_member : (Member.t, bank) Hashtbl.t;  (* every instance member *)
  bk_classes : class_info array;  (* layouts numbered per bank *)
  bk_slots : (Member.t, slots_by_class) Hashtbl.t;  (* over [bk_classes] *)
}

let member_bank (bk : banks) (m : Member.t) : bank =
  match Hashtbl.find_opt bk.bk_member m with Some b -> b | None -> BBox

(* [m]'s slot table over the banked layouts: one array per member,
   shared by every site that names it. *)
let banked_slots (bk : banks) (m : Member.t) : slots_by_class =
  match Hashtbl.find_opt bk.bk_slots m with
  | Some a -> a
  | None ->
      let a = slots_of bk.bk_classes m in
      Hashtbl.replace bk.bk_slots m a;
      a

(* A full structural walk of one code unit, firing [on_decl] at
   declaration sites and [on_escape_local] / [demote_member] wherever a
   slot's location is exposed. *)
type scanner = {
  sc_stmt : rstmt -> unit;
  sc_expr : rexpr -> unit;
  sc_args : arg_mode array -> unit;
}

let make_scanner ~(demote_member : Member.t -> unit) ~(on_decl : rdecl -> unit)
    ~(on_escape_local : int -> unit) : scanner =
  let demote_lv = function
    | LvLocal i -> on_escape_local i
    | LvField (_, _, m) -> demote_member m
    | _ -> ()
    (* LvLocalRef/LvDeref/LvIndex/LvGlobal/LvStatic/LvMemPtrDeref reach
       storage that is already boxed (referents are demoted where the
       reference is bound; member-pointer targets where the constant is
       formed) *)
  in
  let rec expr = function
    | RConst (VMemPtr m) -> demote_member m
    | RConst _ | RLocal _ | RLocalRef _ | RGlobal _ | RStatic _ | RThis
    | RInvalid _ | RNewScalar _ ->
        ()
    | RUnary (_, e) | RCastInt e | RCastFloat e | RDeref e | RField (e, _, _)
      ->
        expr e
    | RBinary (_, a, b) | RIndex (a, b) | RMemPtrDeref (a, b) ->
        expr a;
        expr b
    | RAssign (lv, e, _) | RCompound (_, lv, e, _) ->
        lval lv;
        expr e
    | RIncDec (_, _, lv) -> lval lv
    | RCond (a, b, c) ->
        expr a;
        expr b;
        expr c
    | RAddrOf lv ->
        demote_lv lv;
        lval lv
    | RCall c -> call c
    | RNewObj { no_args; _ } -> args no_args
    | RNewArrObj { na_len; _ } -> expr na_len
    | RNewArrScalar { nas_len; _ } -> expr nas_len
  and lval = function
    | LvLocal _ | LvLocalRef _ | LvGlobal _ | LvStatic _ | LvInvalid _ -> ()
    | LvField (e, _, _) | LvDeref e -> expr e
    | LvIndex (a, b) | LvMemPtrDeref (a, b) ->
        expr a;
        expr b
  and args a = Array.iter arg a
  and arg = function
    | AVal e -> expr e
    | ARefScalar lv ->
        demote_lv lv;
        lval lv
    | ARefObj e -> expr e
  and call = function
    | RBuiltin (_, es) -> Array.iter expr es
    | RCallFunc { cf_args; _ } -> args cf_args
    | RCallMethod { cm_recv; cm_args; _ } ->
        expr cm_recv;
        args cm_args
    | RCallVirtual { cv_recv; cv_args; _ } ->
        expr cv_recv;
        args cv_args
    | RCallFunPtr { fp_fn; fp_args } ->
        expr fp_fn;
        args fp_args
  and decl d =
    on_decl d;
    match d with
    | DScalar _ | DStackArrObj _ | DFail _ -> ()
    | DExpr { d_init; _ } -> expr d_init
    | DRefExpr { d_init; d_lv; _ } ->
        demote_lv d_lv;
        expr d_init;
        lval d_lv
    | DCtor { d_args; _ } -> args d_args
  and stmt = function
    | RSExpr e -> expr e
    | RSDecl ds -> List.iter decl ds
    | RSBlock (ss, _) -> Array.iter stmt ss
    | RSIf (c, t, f) ->
        expr c;
        stmt t;
        Option.iter stmt f
    | RSWhile (c, b) ->
        expr c;
        stmt b
    | RSDoWhile (b, c) ->
        stmt b;
        expr c
    | RSFor { rf_init; rf_cond; rf_step; rf_body; _ } ->
        Option.iter stmt rf_init;
        Option.iter expr rf_cond;
        Option.iter expr rf_step;
        stmt rf_body
    | RSReturn e -> Option.iter expr e
    | RSDelete e -> expr e
    | RSBreak | RSContinue | RSEmpty -> ()
  in
  { sc_stmt = stmt; sc_expr = expr; sc_args = args }

let banks (rp : rprogram) : banks =
  (* member banks, by declared type until an escape demotes them *)
  let bk_member : (Member.t, bank) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (c : Class_table.cls) ->
      List.iter
        (fun (f : Class_table.field) ->
          if not f.f_static then
            Hashtbl.replace bk_member (f.f_class, f.f_name)
              (bank_of_type f.f_type))
        c.c_fields)
    (Class_table.all_classes rp.rp_table);
  let demote_member m =
    if Hashtbl.mem bk_member m then Hashtbl.replace bk_member m BBox
  in
  (* one code unit: declared banks, escapes and owners, then each bank's
     survivors numbered in slot order *)
  let scan_unit nslots (params : rparam array) scan_body =
    let declared = Array.make nslots BBox in
    let escapes = Array.make nslots false in
    let owns = Array.make nslots false in
    Array.iter
      (fun p ->
        declared.(p.rp_slot) <-
          (if p.rp_ref then BBox else bank_of_type p.rp_coerce))
      params;
    let on_decl = function
      | DScalar { d_slot; d_ty } ->
          declared.(d_slot) <- bank_of_type d_ty;
          (match d_ty with
          | Ast.TNamed _ | Ast.TArr _ -> owns.(d_slot) <- true
          | _ -> ())
      | DExpr { d_slot; d_coerce; _ } ->
          declared.(d_slot) <- bank_of_type d_coerce;
          (match d_coerce with
          | Ast.TNamed _ | Ast.TArr _ -> owns.(d_slot) <- true
          | _ -> ())
      | DCtor { d_slot; _ } | DStackArrObj { d_slot; _ } ->
          owns.(d_slot) <- true
      | DRefExpr _ | DFail _ -> ()
    in
    scan_body
      (make_scanner ~demote_member ~on_decl ~on_escape_local:(fun s ->
           escapes.(s) <- true));
    let bank = declared in
    Array.iteri (fun s e -> if e then bank.(s) <- BBox) escapes;
    let index = Array.make nslots (-1) in
    let nbox = ref 0 and nint = ref 0 in
    Array.iteri
      (fun s b ->
        let next = match b with BBox -> nbox | BInt -> nint in
        index.(s) <- !next;
        incr next;
        count_bank b)
      bank;
    {
      ub_bank = bank;
      ub_index = index;
      ub_owns = owns;
      ub_shape = { nbox = !nbox; nint = !nint };
    }
  in
  let scan_ctor_plan sc (p : ctor_plan) =
    let base (bp : base_plan) = sc.sc_args bp.bp_args in
    Array.iter base p.cp_vbases;
    Array.iter base p.cp_bases;
    Array.iter
      (function
        | FPClass { fc_args; _ } -> sc.sc_args fc_args
        | FPScalar { fs_init; _ } -> sc.sc_expr fs_init
        | FPClassArr _ | FPBadInit -> ())
      p.cp_fields;
    Option.iter sc.sc_stmt p.cp_body
  in
  let bk_funcs =
    Array.map
      (fun rf ->
        let n = rf.rf_nslots in
        match rf.rf_code with
        | CBody b -> scan_unit n rf.rf_params (fun sc -> sc.sc_stmt b)
        | CCtor p -> scan_unit n rf.rf_params (fun sc -> scan_ctor_plan sc p)
        | CDtor | CUnknown | CUndefined | CMissingCtor ->
            (* never entered, so no frame is built: nothing to bank *)
            {
              ub_bank = Array.make n BBox;
              ub_index = Array.init n Fun.id;
              ub_owns = Array.make n false;
              ub_shape = { nbox = n; nint = 0 };
            })
      rp.rp_funcs
  in
  let bk_dtors =
    Array.map
      (fun dp ->
        Option.map
          (fun (nslots, body) ->
            scan_unit nslots [||] (fun sc -> sc.sc_stmt body))
          dp.dp_dtor)
      rp.rp_destroy
  in
  (* global initializers run in an empty frame but can still demote
     members (member-pointer constants, address-taken fields) *)
  let bk_globals =
    scan_unit 0 [||] (fun sc ->
        Array.iter (fun g -> Option.iter sc.sc_expr g.rg_init) rp.rp_globals)
  in
  Hashtbl.iter (fun _ b -> count_bank b) bk_member;
  let bank m =
    match Hashtbl.find_opt bk_member m with Some b -> b | None -> BBox
  in
  let bk_classes =
    Array.map
      (fun ci ->
        build_class rp.rp_table rp.rp_class_id ~bank ci.ci_name ci.ci_id)
      rp.rp_classes
  in
  let bk_slots = Hashtbl.create (Hashtbl.length bk_member) in
  Hashtbl.iter
    (fun m _ -> Hashtbl.replace bk_slots m (slots_of bk_classes m))
    bk_member;
  { bk_funcs; bk_dtors; bk_globals; bk_member; bk_classes; bk_slots }

(* -- runtime object helpers ----------------------------------------------------

   Shared by both execution engines (the tree-walker in [Interp] and the
   bytecode VM in [Bytecode]); they only need the resolved class array,
   not an engine's environment. *)

(* A fresh object of interned class [cid]: the member store is the
   class's default template, with array-typed slots rebuilt so every
   object owns its element cells. [cid] is negative only for classes
   absent from the table (their constructor then fails before the object
   escapes). *)
let new_obj_of (classes : class_info array) cid cls id : obj =
  if cid < 0 then
    {
      obj_id = id;
      obj_class = cls;
      obj_cid = cid;
      fields = { arr_id = -1; cells = [||] };
      ifields = no_ints;
    }
  else begin
    let ci = classes.(cid) in
    let cells = Array.copy ci.ci_template in
    Array.iter
      (fun (slot, ty) -> cells.(slot) <- default_value ty)
      ci.ci_fresh;
    {
      obj_id = id;
      obj_class = ci.ci_name;
      obj_cid = cid;
      fields = { arr_id = -1; cells };
      ifields = (if ci.ci_nints = 0 then no_ints else Array.make ci.ci_nints 0);
    }
  end

let[@inline never] no_member (o : obj) (m : Member.t) =
  runtime_error "object of class %s has no member %s" o.obj_class
    (Member.to_string m)

(* Slot of member [m] in [o], from the access site's per-class table.
   [-1] (or an object of an unknown class) means objects of this dynamic
   class have no such member. Inlined into both engines' field accesses;
   the error stays out of line. *)
let[@inline] field_slot (o : obj) (slots : slots_by_class) (m : Member.t) : int =
  let cid = o.obj_cid in
  let s =
    if cid >= 0 && cid < Array.length slots then Array.unsafe_get slots cid
    else -1
  in
  if s >= 0 then s else no_member o m

(* Member-pointer accesses carry the member only as a runtime value, so
   they go through the class's slot table instead of a per-site array. *)
let memptr_slot_of (classes : class_info array) (o : obj) (m : Member.t) : int =
  let s =
    if o.obj_cid < 0 then None
    else Hashtbl.find_opt classes.(o.obj_cid).ci_slot m
  in
  match s with
  | Some (BBox, s) -> s
  | Some (BInt, _) | None -> no_member o m
