(* A naive reference points-to solver, the oracle the production solver
   (pta.ml) is tested against. It computes that solver's context-
   insensitive analysis — field-based Andersen with on-the-fly
   reachability, RTA-cone fallback for unknown receivers and a global
   [havoc] flag — with none of its machinery: [Set.Make(Int)] sets in a
   table, one flat constraint list that [solve] re-applies until a pass
   changes nothing, and a function's constraints generated when it
   becomes reachable. Correctness is the priority; speed is not. *)

open Frontend
open Sema
open Sema.Typed_ast
module StringSet = Set.Make (String)
module IntSet = Set.Make (Int)

(* An abstract object: the dynamic class of a class-typed allocation or
   object identity, the function of an address-taken function, and the
   node holding the contents of a scalar memory cell (-1 when none). *)
type obj = { o_class : string option; o_fn : Func_id.t option; o_payload : int }

(* The constraints. Call and delete sites re-derive their targets from
   the current points-to set of their pointer node on every pass. *)
type constr =
  | Copy of int * int  (* [Copy (src, dst)]: pts(dst) ⊇ pts(src) *)
  | Load of int * int  (* [Load (p, dst)]: dst ⊇ *p *)
  | Store of int * int  (* [Store (p, src)]: *p ⊇ src *)
  | VCall of vcall
  | FCall of int * int * int  (* pointer node, arity, result node *)
  | VDelete of int * string  (* pointer node, static class *)

and vcall = {
  v_recv : int;  (* receiver node *)
  v_static : string;  (* static receiver class *)
  v_name : string;
  v_args : (int * int option) list;  (* value node, write-back sink *)
  v_ret : int;  (* result node *)
}

(* Named nodes and named objects, one each per key. *)
type node_name =
  | Var of Func_id.t * string | This of Func_id.t | Ret of Func_id.t
  | Global of string | Field of Member.t

type obj_name = Fn of Func_id.t | Cls of string | Cell of int

module ExprTbl = Hashtbl.Make (struct
  type t = texpr

  let equal = ( == )  (* expression occurrences are identified physically *)
  let hash (e : texpr) = e.tid
end)

type solution = {
  prog : program;
  table : Class_table.t;
  pts : (int, IntSet.t) Hashtbl.t;
  objs : (int, obj) Hashtbl.t;
  mutable n_nodes : int;
  mutable cons : constr list;  (* newest first *)
  copies : (int * int, unit) Hashtbl.t;  (* the [Copy] constraints in [cons] *)
  expr_node : int ExprTbl.t;
  nodes : (node_name, int) Hashtbl.t;
  named_objs : (obj_name, int) Hashtbl.t;
  gen_queue : Func_id.t Queue.t;
  mutable reached : FuncSet.t;
  mutable addr_taken : FuncSet.t;
  mutable inst : StringSet.t;  (* classes whose ctor is reachable *)
  mutable havoc : bool;
  mutable changed : bool;  (* the current pass grew some fact *)
}

(* -- facts ------------------------------------------------------------------- *)

let nonode = -1

let fresh_node st =
  st.n_nodes <- st.n_nodes + 1;
  st.n_nodes - 1

let pts st n = Option.value (Hashtbl.find_opt st.pts n) ~default:IntSet.empty
let obj st o = Hashtbl.find st.objs o

let add_objs st n s =
  let old = pts st n in
  if not (IntSet.subset s old) then begin
    Hashtbl.replace st.pts n (IntSet.union old s);
    st.changed <- true
  end

let add_obj st n o = add_objs st n (IntSet.singleton o)

(* ⊤ ("may point anywhere") is the pseudo-object -1: it flows like any
   object, and every rule checks for it before naming objects. *)
let top = -1
let is_top st n = IntSet.mem top (pts st n)
let set_top st n = if n >= 0 then add_obj st n top

let top_node st =
  let n = fresh_node st in
  set_top st n;
  n

let new_obj st o =
  let id = Hashtbl.length st.objs in
  Hashtbl.replace st.objs id o;
  id

let add st c =
  st.cons <- c :: st.cons;
  st.changed <- true

let copy st src dst =
  if src >= 0 && dst >= 0 && not (Hashtbl.mem st.copies (src, dst)) then begin
    Hashtbl.replace st.copies (src, dst) ();
    add st (Copy (src, dst))
  end

let do_havoc st =
  if not st.havoc then begin
    st.havoc <- true;
    st.changed <- true
  end

let memo tbl key mk =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = mk () in
      Hashtbl.add tbl key v;
      v

let named_obj st key =
  memo st.named_objs key (fun () ->
      new_obj st
        (match key with
        | Fn id -> { o_class = None; o_fn = Some id; o_payload = -1 }
        | Cls c -> { o_class = Some c; o_fn = None; o_payload = -1 }
        | Cell n -> { o_class = None; o_fn = None; o_payload = n }))

let class_obj st cls =
  new_obj st { o_class = Some cls; o_fn = None; o_payload = -1 }

let scalar_obj st =
  new_obj st { o_class = None; o_fn = None; o_payload = fresh_node st }

(* A class-typed member denotes the subobject itself: its node holds an
   object of the member's exact class. *)
let node st key =
  memo st.nodes key (fun () ->
      let n = fresh_node st in
      (match key with
      | Field m -> (
          let owner = Class_table.find st.table (Member.cls m) in
          let field ci = Class_table.own_field ci (Member.name m) in
          match Option.bind owner field with
          | Some { f_type = Ast.TNamed k | Ast.TArr (Ast.TNamed k, _); _ }
            when Class_table.mem st.table k ->
              add_obj st n (class_obj st k)
          | _ -> ())
      | _ -> ());
      n)

let pointer_to st o =
  let n = fresh_node st in
  add_obj st n o;
  n

(* Pointers, functions and class types (object identities) are tracked. *)
let rec tracked st (t : Ast.type_expr) =
  match t with
  | Ast.TPtr _ | Ast.TFun _ -> true
  | Ast.TNamed n -> Class_table.mem st.table n
  | Ast.TRef t | Ast.TArr (t, _) -> tracked st t
  | _ -> false

(* Reference-to-pointer parameters alias the caller's variable. *)
let ref_needs_writeback (t : Ast.type_expr) =
  match t with Ast.TRef (Ast.TPtr _ | Ast.TFun _) -> true | _ -> false

(* Arrays are collapsed to one node holding what the elements hold. *)
let rec is_array_ty (t : Ast.type_expr) =
  match t with Ast.TArr _ -> true | Ast.TRef t -> is_array_ty t | _ -> false

(* An array used as a pointer decays to a pointer to its node — except
   arrays of class objects, whose node holds the elements' identities. *)
let is_decaying_array (t : Ast.type_expr) =
  let rec elem = function Ast.TArr (t, _) | Ast.TRef t -> elem t | t -> t in
  is_array_ty t && match elem t with Ast.TNamed _ -> false | _ -> true

let rec dtor_is_virtual st cls =
  match Class_table.find st.table cls with
  | None -> false
  | Some ci ->
      (match Class_table.dtor ci with Some d -> d.m_virtual | None -> false)
      || List.exists
           (fun (b : Ast.base_spec) -> dtor_is_virtual st b.b_name)
           ci.c_bases

let inst_cone st cls =
  let cone = cls :: Class_table.subclasses st.table cls in
  List.filter (fun c -> StringSet.mem c st.inst) cone

(* -- reachability and calls -------------------------------------------------- *)

let reach st id =
  if not (FuncSet.mem id st.reached) then begin
    st.reached <- FuncSet.add id st.reached;
    Queue.add id st.gen_queue;
    st.changed <- true;
    match id with
    | Func_id.FCtor (cls, _) -> st.inst <- StringSet.add cls st.inst
    | _ -> ()
  end

(* Argument nodes flow into the target's formals (and back out of
   reference-to-pointer formals); its return flows into [ret]. An
   unknown external yields an unknown result. *)
let bind_args st target args ret =
  match find_func st.prog target with
  | Some f ->
      List.iteri
        (fun i (pname, pty) ->
          match List.nth_opt args i with
          | Some (av, sink) ->
              let pn = node st (Var (target, pname)) in
              copy st av pn;
              if ref_needs_writeback pty then (
                match sink with Some b -> copy st pn b | None -> do_havoc st)
          | None -> ())
        f.tf_params;
      copy st (node st (Ret target)) ret
  | None -> set_top st ret

(* Conservative roots: formals and receiver are unknown. *)
let make_root st id =
  reach st id;
  Option.iter
    (fun f ->
      List.iter
        (fun (x, ty) -> if tracked st ty then set_top st (node st (Var (id, x))))
        f.tf_params)
    (find_func st.prog id);
  if Func_id.class_of id <> None then set_top st (node st (This id))

let take_address st id =
  if not (FuncSet.mem id st.addr_taken) then begin
    st.addr_taken <- FuncSet.add id st.addr_taken;
    st.changed <- true;
    make_root st id
  end

(* Object [o] is constructed by [ctor]: it is the ctor's receiver. *)
let construct st ctor o =
  reach st ctor;
  add_obj st (node st (This ctor)) o

let dispatch st cls name =
  Member_lookup.dispatch st.table ~dyn:cls ~name
  |> Option.map (fun (def, _) -> Func_id.FMethod (def, name))

(* [recv = None]: the receiver is unknown, so [this] is too. *)
let call_virtual st v ~recv target =
  reach st target;
  (match recv with
  | Some r -> copy st r (node st (This target))
  | None -> set_top st (node st (This target)));
  bind_args st target v.v_args v.v_ret

let call_pointer st ~arity ~ret id =
  match find_func st.prog id with
  | Some f when List.length f.tf_params = arity ->
      reach st id;
      (* formals of address-taken functions are already ⊤ *)
      copy st (node st (Ret id)) ret
  | Some _ -> ()  (* arity mismatch: not a possible target *)
  | None ->
      reach st id;
      set_top st ret

(* What [name] gives every object node [p] points to: [None] when [p]
   is ⊤, the store havocked, or some object has no such name. *)
let names st p name =
  if st.havoc || is_top st p then None
  else
    let xs = List.map (fun o -> name (obj st o)) (IntSet.elements (pts st p)) in
    if List.mem None xs then None else Some (List.filter_map Fun.id xs)

(* [cell pl] for the payload node of every object [p] points to;
   [opaque ()] when [p] is ⊤ or points to an object without one. *)
let through st p ~cell ~opaque =
  if is_top st p then opaque ()
  else
    IntSet.iter
      (fun o ->
        let pl = (obj st o).o_payload in
        if pl >= 0 then cell pl else opaque ())
      (pts st p)

let apply st = function
  | Copy (src, dst) -> add_objs st dst (pts st src)
  | Load (p, dst) ->
      through st p
        ~cell:(fun pl -> copy st pl dst)
        ~opaque:(fun () -> set_top st dst)
  | Store (p, src) ->
      through st p
        ~cell:(fun pl -> copy st src pl)
        ~opaque:(fun () -> do_havoc st)
  | VCall v -> (
      let call ~recv c =
        Option.iter (call_virtual st v ~recv) (dispatch st c v.v_name)
      in
      match names st v.v_recv (fun o -> o.o_class) with
      | Some cs -> List.iter (call ~recv:(Some v.v_recv)) cs
      | None -> List.iter (call ~recv:None) (inst_cone st v.v_static))
  | FCall (p, arity, ret) -> (
      let call = call_pointer st ~arity ~ret in
      match names st p (fun o -> o.o_fn) with
      | Some fs -> List.iter call fs
      | None -> FuncSet.iter call st.addr_taken)
  | VDelete (p, static) -> (
      let dtor c = reach st (Func_id.FDtor c) in
      match names st p (fun o -> o.o_class) with
      | Some cs -> List.iter dtor cs
      | None -> List.iter dtor (inst_cone st static))

(* -- constraint generation --------------------------------------------------- *)

let field_of fa = Field (Member.make ~cls:fa.fa_def_class ~name:fa.fa_field)

(* Where a write to an lvalue lands: a node, the payloads of everything
   a node points to, somewhere unmodelable (writes of tracked values
   havoc), or nowhere tracked. *)
type lv = LNode of int | LIndirect of int | LTop | LNone

let rec gen_expr st fn (e : texpr) : int =
  match ExprTbl.find_opt st.expr_node e with
  | Some n -> n
  | None ->
      let n = gen_expr_raw st fn e in
      (* a tracked expression always gets a node: an unmodelled corner
         becomes ⊤, never a silent drop *)
      let n = if n < 0 && tracked st e.ty then top_node st else n in
      if n >= 0 then ExprTbl.replace st.expr_node e n;
      n

and eval st fn e = ignore (gen_expr st fn e)

and gen_expr_raw st fn (e : texpr) : int =
  let if_tracked n = if tracked st e.ty then n else nonode in
  match e.te with
  | TInt _ | TBool _ | TChar _ | TFloat _ | TEnumConst _ | TSizeofType _
  | TSizeofExpr _ | TMemPtr _ ->
      nonode
  | TNull | TStr _ -> if tracked st e.ty then fresh_node st else nonode
  | TLocal x -> if_tracked (node st (Var (fn, x)))
  | TGlobalVar g -> if_tracked (node st (Global g))
  | TThis _ -> node st (This fn)
  | TStaticField (cls, name) ->
      if_tracked (node st (Field (Member.make ~cls ~name)))
  | TField fa ->
      eval st fn fa.fa_obj;
      if_tracked (node st (field_of fa))
  | TUnary (_, a) ->
      eval st fn a;
      nonode
  | TBinary (_, a, b) ->
      (* pointer arithmetic preserves the pointed-to objects *)
      let ga = gen_rval st fn a and gb = gen_rval st fn b in
      if_tracked (if ga >= 0 then ga else gb)
  | TAssign (op, lhs, rhs) ->
      let gr = gen_rval st fn rhs in
      let lvs = gen_lval st fn lhs in
      if op = Ast.Assign && tracked st rhs.ty then assign st lvs gr;
      if_tracked gr
  | TIncDec (_, _, a) -> if_tracked (gen_expr st fn a)
  | TCond (c, t, f) ->
      eval st fn c;
      let gt = gen_rval st fn t and gf = gen_rval st fn f in
      if not (tracked st e.ty) then nonode
      else
        let n = fresh_node st in
        copy st gt n;
        copy st gf n;
        n
  | TCast (_, _, a, _) ->
      let ga = gen_rval st fn a in
      (* a scalar forged into a pointer has an unknown target *)
      if not (tracked st e.ty) then nonode
      else if ga >= 0 then ga
      else top_node st
  | TAddrOf a -> (
      match Ctype.class_name a.ty with
      | Some _ -> gen_expr st fn a  (* &object = the object's identity *)
      | None ->
          let n = fresh_node st in
          List.iter
            (function
              | LNode ln -> add_obj st n (named_obj st (Cell ln))
              | LIndirect p -> copy st p n  (* &( *p ) = p *)
              | LTop -> set_top st n
              | LNone -> ())
            (gen_lval st fn a);
          n)
  | TFunAddr id ->
      take_address st id;
      pointer_to st (named_obj st (Fn id))
  | TDeref a | TIndex (a, _) ->
      (match e.te with TIndex (_, i) -> eval st fn i | _ -> ());
      let ga = gen_expr st fn a in
      (* objects are second-class: denoting one denotes the pointer's
         targets; an array element is the array's node *)
      if Ctype.class_name e.ty <> None then ga
      else if is_array_ty a.ty then if_tracked ga
      else if tracked st e.ty then begin
        let n = fresh_node st in
        if ga >= 0 then add st (Load (ga, n)) else set_top st n;
        n
      end
      else nonode
  | TMemPtrDeref (recv, mp, _) ->
      eval st fn recv;
      eval st fn mp;
      if tracked st e.ty then top_node st else nonode
  | TNewObj { cls; ctor; args } ->
      let o = class_obj st cls in
      run_ctor st fn ctor args;
      construct st ctor o;
      pointer_to st o
  | TNewScalar _ -> pointer_to st (scalar_obj st)
  | TNewArr (ty, len) -> (
      eval st fn len;
      match ty with
      | Ast.TNamed cls when Class_table.mem st.table cls ->
          let o = class_obj st cls in
          construct st (Func_id.FCtor (cls, 0)) o;
          pointer_to st o
      | _ -> pointer_to st (scalar_obj st))
  | TCall c -> gen_call st fn e c

and assign st lvs rhs =
  List.iter
    (function
      | LNode n -> copy st rhs n
      | LIndirect p -> if rhs >= 0 then add st (Store (p, rhs))
      | LTop -> do_havoc st
      | LNone -> ())
    lvs

and gen_lval st fn (e : texpr) : lv list =
  let direct key = [ (if tracked st e.ty then LNode (node st key) else LNone) ] in
  match e.te with
  | TLocal x -> direct (Var (fn, x))
  | TGlobalVar g -> direct (Global g)
  | TStaticField (cls, name) -> direct (Field (Member.make ~cls ~name))
  | TField fa ->
      eval st fn fa.fa_obj;
      direct (field_of fa)
  | TDeref a | TIndex (a, _) ->
      (match e.te with TIndex (_, i) -> eval st fn i | _ -> ());
      let ga = gen_expr st fn a in
      if ga < 0 then [ LNone ]
      else if is_array_ty a.ty then [ LNode ga ]  (* collapsed array *)
      else [ LIndirect ga ]
  | TCond (c, t, f) ->
      eval st fn c;
      gen_lval st fn t @ gen_lval st fn f
  | TCast (_, _, a, _) -> gen_lval st fn a
  | _ ->
      eval st fn e;
      [ LTop ]

(* The write-back sink for an argument that may bind to a
   reference-to-pointer formal. *)
and arg_sink st fn (a : texpr) : int option =
  match (a.ty, a.te) with
  | ( (Ast.TPtr _ | Ast.TFun _),
      ( TLocal _ | TGlobalVar _ | TField _ | TStaticField _ | TDeref _
      | TIndex _ ) ) -> (
      match gen_lval st fn a with
      | [ LNode n ] -> Some n
      | [ LIndirect p ] ->
          let sink = fresh_node st in
          add st (Store (p, sink));
          Some sink
      | _ -> None)
  | _ -> None

and gen_rval st fn (e : texpr) : int =
  let n = gen_expr st fn e in
  if n >= 0 && is_decaying_array e.ty then pointer_to st (named_obj st (Cell n))
  else n

and run_ctor st fn ctor args =
  let gargs = gen_args st fn args in
  reach st ctor;
  bind_args st ctor gargs (fresh_node st)

and gen_args st fn args =
  List.map (fun a -> (gen_rval st fn a, arg_sink st fn a)) args

and gen_static_call st fn ~recv ~target ~args ret_ty =
  let gargs = gen_args st fn args in
  reach st target;
  if recv >= 0 then copy st recv (node st (This target));
  let rn = fresh_node st in
  bind_args st target gargs rn;
  if tracked st ret_ty then rn else nonode

and gen_call st fn (e : texpr) (c : call) : int =
  match c with
  | CBuiltin (_, args) ->
      List.iter (eval st fn) args;
      nonode
  | CFree (name, args) ->
      gen_static_call st fn ~recv:nonode ~target:(Func_id.FFree name) ~args e.ty
  | CMethod mc -> (
      let grecv = gen_expr st fn mc.mc_recv in
      let static =
        if mc.mc_arrow then Ctype.receiver_class_arrow mc.mc_recv.ty
        else Ctype.receiver_class_dot mc.mc_recv.ty
      in
      match (mc.mc_dispatch, static) with
      | DVirtual, Some scls ->
          let v_args = gen_args st fn mc.mc_args in
          let v_ret = fresh_node st in
          let v_recv = if grecv >= 0 then grecv else top_node st in
          let v_name = mc.mc_name in
          add st (VCall { v_recv; v_static = scls; v_name; v_args; v_ret });
          if tracked st e.ty then v_ret else nonode
      | _ ->
          gen_static_call st fn ~recv:grecv
            ~target:(Func_id.FMethod (mc.mc_class, mc.mc_name))
            ~args:mc.mc_args e.ty)
  | CFunPtr ({ te = TFunAddr id; _ }, args) ->
      (* a call through a literal address: no indirection *)
      gen_static_call st fn ~recv:nonode ~target:id ~args e.ty
  | CFunPtr (fnx, args) ->
      let gf = gen_expr st fn fnx in
      List.iter (eval st fn) args;
      let rn = fresh_node st and p = if gf >= 0 then gf else top_node st in
      add st (FCall (p, List.length args, rn));
      if tracked st e.ty then rn else nonode

(* -- statements and functions ------------------------------------------------ *)

(* A stack object of class [cls]: exact dynamic class, destroyed at
   scope exit. *)
and stack_object st fn (d : tvar_decl) cls =
  let o = class_obj st cls in
  add_obj st (node st (Var (fn, d.tv_name))) o;
  reach st (Func_id.FDtor cls);
  o

and gen_decl st fn (d : tvar_decl) =
  match d.tv_type with
  | Ast.TNamed cls when Class_table.mem st.table cls -> (
      let o = stack_object st fn d cls in
      match d.tv_init with
      | TInitCtor (ctor, args) ->
          run_ctor st fn ctor args;
          construct st ctor o
      | TInitNone -> construct st (Func_id.FCtor (cls, 0)) o
      | TInitExpr e -> eval st fn e)
  | Ast.TArr (Ast.TNamed cls, _) when Class_table.mem st.table cls -> (
      construct st (Func_id.FCtor (cls, 0)) (stack_object st fn d cls);
      match d.tv_init with TInitExpr e -> eval st fn e | _ -> ())
  | _ -> (
      match d.tv_init with
      | TInitExpr e ->
          let ge = gen_rval st fn e in
          if tracked st d.tv_type then begin
            let v = node st (Var (fn, d.tv_name)) in
            copy st ge v;
            (* a reference local aliases its initializer's location *)
            if ref_needs_writeback d.tv_type then assign st (gen_lval st fn e) v
          end
      | TInitCtor (_, [ a ]) when tracked st d.tv_type ->
          copy st (gen_rval st fn a) (node st (Var (fn, d.tv_name)))
      | TInitCtor (_, args) -> List.iter (eval st fn) args
      | TInitNone -> ())

and gen_stmt st fn (s : tstmt) =
  match s.ts with
  | TSExpr e -> eval st fn e
  | TSDecl ds -> List.iter (gen_decl st fn) ds
  | TSIf (c, _, _) | TSWhile (c, _) | TSDoWhile (_, c) -> eval st fn c
  | TSFor (_, cond, step, _) ->
      Option.iter (eval st fn) cond;
      Option.iter (eval st fn) step
  | TSReturn (Some e) ->
      let ge = gen_rval st fn e in
      if tracked st e.ty then copy st ge (node st (Ret fn))
  | TSDelete (_, e) -> (
      let ge = gen_expr st fn e in
      match Ctype.pointee e.ty with
      | Some (Ast.TNamed cls) when Class_table.mem st.table cls ->
          if dtor_is_virtual st cls then
            add st (VDelete ((if ge >= 0 then ge else top_node st), cls))
          else reach st (Func_id.FDtor cls)
      | _ -> ())
  | TSReturn None | TSBlock _ | TSBreak | TSContinue | TSEmpty -> ()

(* A constructor's base and member initializers, in declaration order. *)
let gen_ctor_inits st id cls (f : tfunc) =
  (* while a constructor runs, the dynamic type is the class itself *)
  add_obj st (node st (This id)) (named_obj st (Cls cls));
  List.iter
    (fun (bi : base_init) ->
      let bctor = Func_id.FCtor (bi.bi_class, List.length bi.bi_args) in
      run_ctor st id bctor bi.bi_args;
      (* [this] escaping from the base ctor is the derived object *)
      copy st (node st (This id)) (node st (This bctor)))
    f.tf_base_inits;
  List.iter
    (fun (fl : Class_table.field) ->
      let args =
        List.find_map
          (fun fi -> if fi.fi_field = fl.f_name then Some fi.fi_args else None)
          f.tf_field_inits
      in
      match (fl.f_type, args) with
      | _ when fl.f_static -> ()
      | Ast.TNamed fcls, _ when Class_table.mem st.table fcls ->
          let args = Option.value args ~default:[] in
          run_ctor st id (Func_id.FCtor (fcls, List.length args)) args
      | Ast.TArr (Ast.TNamed fcls, _), _ when Class_table.mem st.table fcls ->
          reach st (Func_id.FCtor (fcls, 0))
      | ty, Some [ a ] when tracked st ty ->
          copy st (gen_expr st id a)
            (node st (Field (Member.make ~cls ~name:fl.f_name)))
      | _, Some args -> List.iter (eval st id) args
      | _, None -> ())
    (Class_table.find_exn st.table cls).c_fields

(* A destructor runs its bases' and class-typed members' destructors. *)
let gen_dtor_chain st id cls =
  add_obj st (node st (This id)) (named_obj st (Cls cls));
  let c = Class_table.find_exn st.table cls in
  let dtor c = reach st (Func_id.FDtor c) in
  List.iter (fun (b : Ast.base_spec) -> dtor b.b_name) c.c_bases;
  List.iter dtor (Class_table.virtual_base_names st.table cls);
  List.iter
    (fun (fl : Class_table.field) ->
      match fl.f_type with
      | (Ast.TNamed fcls | Ast.TArr (Ast.TNamed fcls, _))
        when (not fl.f_static) && Class_table.mem st.table fcls ->
          dtor fcls
      | _ -> ())
    c.c_fields

let gen_func st id =
  Option.iter
    (fun f ->
      (match id with
      | Func_id.FCtor (cls, _) -> gen_ctor_inits st id cls f
      | Func_id.FDtor cls -> gen_dtor_chain st id cls
      | Func_id.FFree _ | Func_id.FMethod _ -> ());
      Option.iter (fold_stmts (fun () s -> gen_stmt st id s) ()) f.tf_body)
    (find_func st.prog id)

(* -- solving ----------------------------------------------------------------- *)

(* Generate every newly reached function, then apply every constraint,
   oldest first; repeat until a whole pass changes nothing. *)
let solve st =
  st.changed <- true;
  while st.changed do
    st.changed <- false;
    while not (Queue.is_empty st.gen_queue) do
      gen_func st (Queue.pop st.gen_queue)
    done;
    List.iter (apply st) (List.rev st.cons)
  done

let analyze (p : program) : solution =
  let st =
    {
      prog = p;
      table = p.table;
      pts = Hashtbl.create 1024;
      objs = Hashtbl.create 256;
      n_nodes = 0;
      cons = [];
      copies = Hashtbl.create 1024;
      expr_node = ExprTbl.create 1024;
      nodes = Hashtbl.create 256;
      named_objs = Hashtbl.create 64;
      gen_queue = Queue.create ();
      reached = FuncSet.empty;
      addr_taken = FuncSet.empty;
      inst = StringSet.empty;
      havoc = false;
      changed = false;
    }
  in
  List.iter
    (fun (g : global) ->
      match g.g_init with
      | Some e ->
          let n = gen_rval st main_id e in
          if tracked st g.g_type then copy st n (node st (Global g.g_name))
      | None -> ())
    p.globals;
  make_root st main_id;
  solve st;
  st

(* -- queries ----------------------------------------------------------------- *)

let reachable st = st.reached
let instantiated st = StringSet.elements st.inst
let address_taken st = st.addr_taken
let havoc st = st.havoc

let query st name e =
  Option.bind (ExprTbl.find_opt st.expr_node e) (fun n ->
      Option.map (List.sort_uniq compare) (names st n name))

let receiver_classes st e = query st (fun o -> o.o_class) e
let funptr_targets st e = query st (fun o -> o.o_fn) e
