(* Type checker and resolver: untyped [Frontend.Ast] → [Typed_ast].

   Responsibilities:
   - name resolution (locals, params, [this] members, globals, enums,
     functions) with C++ hiding rules;
   - member lookup for every [.], [->], qualified and pointer-to-member
     access, recording the *defining* class (the paper's [Lookup(X, m)]);
   - call resolution: free calls, method calls with static/virtual
     dispatch, builtin "system functions", function-pointer calls;
   - constructor resolution (by arity) for locals, [new], and constructor
     initializer lists, including synthesized default ctors/dtors;
   - cast-safety classification for the unsafe-cast rule of the analysis.

   MiniC++ restrictions enforced here (documented in README): class values
   are second-class — no pass/return/assign of whole objects; use pointers
   or references. *)

open Frontend
open Typed_ast
module StringMap = Map.Make (String)
module StringTbl = Hashtbl.Make (String)

type env = {
  table : Class_table.t;
  globals : Ast.type_expr StringMap.t;
  enums : int StringMap.t;
  free_sigs : (Ast.type_expr * Ast.param list) StringMap.t;
  (* mutable per-function state: every local in scope, its newest
     binding found first, with the depth of the scope that declared it;
     and the names each open scope declared, innermost scope first *)
  locals : (Ast.type_expr * int) StringTbl.t;
  mutable scopes : string list list;
  mutable depth : int;
  mutable this_class : string option;
  mutable ret_type : Ast.type_expr;
  defs_seen : bool;
      (* keep-going recovery dropped no out-of-line definition, so a
         bodiless method really has none: only then is "declared but
         never defined" reported *)
  mutable next_tid : int;  (* the next expression's [tid] *)
}

let err = Source.error

(* -- keep-going recovery --------------------------------------------------

   Strict mode (the default) raises [Compile_error] at the first error.
   Keep-going mode threads a [recovery] record through [check_program]:
   each declaration-sized unit of work runs under [guard], which converts
   an escaping [Compile_error] (or a [Stack_overflow] from adversarial
   nesting) into a recorded diagnostic plus an [unknown_region] naming
   everything the broken declaration mentions, then moves on. A unit
   that fails leaves none of its expressions in the program, so the
   [tid]s it handed out are handed out again ([env]): the ids stay
   dense. *)

type recovery = {
  rc_diags : Source.Diagnostics.t;
  mutable rc_regions : Source.unknown_region list;  (* newest first *)
  mutable rc_defs_dropped : bool;  (* an out-of-line definition was dropped *)
}

let record_region rc ~what ~loc ~refs =
  rc.rc_regions <-
    { Source.ur_at = loc; ur_what = what; ur_refs = refs () } :: rc.rc_regions

let guard ?env ?(fallback = fun () -> ()) recover ~what ~loc ~refs f =
  match recover with
  | None -> f ()
  | Some rc -> (
      let mark = match env with Some env -> env.next_tid | None -> 0 in
      let rewind () = Option.iter (fun env -> env.next_tid <- mark) env in
      try f () with
      | Source.Compile_error d ->
          rewind ();
          Source.Diagnostics.emit rc.rc_diags d;
          record_region rc ~what ~loc ~refs;
          (try fallback () with Source.Compile_error _ -> ())
      | Stack_overflow ->
          rewind ();
          Source.Diagnostics.error rc.rc_diags ~at:loc
            "%s is nested too deeply to check" what;
          record_region rc ~what ~loc ~refs;
          (try fallback () with Source.Compile_error _ -> ()))

(* -- scope handling -------------------------------------------------------

   One table holds every visible local, so declaring and finding one
   costs the same whatever the scope's size; leaving a scope removes
   the names it declared, which uncovers the bindings they shadowed. *)

let push_scope env =
  env.scopes <- [] :: env.scopes;
  env.depth <- env.depth + 1

let pop_scope env =
  match env.scopes with
  | names :: rest ->
      List.iter (StringTbl.remove env.locals) names;
      env.scopes <- rest;
      env.depth <- env.depth - 1
  | [] -> assert false

(* Start a function or a global initializer with no scope open. A
   keep-going [guard] may have abandoned the last one midway, leaving
   its names behind. *)
let reset_scopes env =
  if StringTbl.length env.locals > 0 then StringTbl.reset env.locals;
  env.scopes <- [];
  env.depth <- 0

let add_local env ~loc name ty =
  match env.scopes with
  | names :: rest ->
      (match StringTbl.find env.locals name with
      | _, depth when depth = env.depth ->
          err ~at:loc "redeclaration of '%s' in the same scope" name
      | _ | (exception Not_found) -> ());
      StringTbl.add env.locals name (ty, env.depth);
      env.scopes <- (name :: names) :: rest
  | [] -> assert false

let find_local env name =
  match StringTbl.find env.locals name with
  | ty, _ -> Some ty
  | exception Not_found -> None

(* -- type utilities -------------------------------------------------------- *)

let rec check_type_exists env ~loc (t : Ast.type_expr) =
  match t with
  | Ast.TNamed n ->
      if not (Class_table.mem env.table n) then err ~at:loc "unknown type '%s'" n
  | Ast.TPtr t | Ast.TRef t | Ast.TArr (t, _) -> check_type_exists env ~loc t
  | Ast.TMemPtrTy (c, t) ->
      if not (Class_table.mem env.table c) then err ~at:loc "unknown class '%s'" c;
      check_type_exists env ~loc t
  | Ast.TFun (r, ps) ->
      check_type_exists env ~loc r;
      List.iter (check_type_exists env ~loc) ps
  | Ast.TVoid | Ast.TBool | Ast.TChar | Ast.TInt | Ast.TLong | Ast.TFloat
  | Ast.TDouble ->
      ()

let is_class_type env t =
  match Ctype.class_name t with
  | Some n -> Class_table.mem env.table n
  | None -> false

(* Can a value of type [src] be used where [dst] is expected, without an
   explicit cast? *)
let rec assignable env ~dst ~src =
  let dst = Ctype.decay dst and src = Ctype.decay src in
  if Ast.type_equal dst src then true
  else
    match (dst, src) with
    | _, Ast.TRef s -> assignable env ~dst ~src:s
    | Ast.TRef d, _ -> assignable env ~dst:d ~src
    | d, s when Ctype.is_numeric d && Ctype.is_numeric s -> true
    | Ast.TPtr Ast.TVoid, Ast.TPtr _ -> true
    | Ast.TPtr _, Ast.TPtr Ast.TVoid -> true
    | Ast.TPtr (Ast.TNamed d), Ast.TPtr (Ast.TNamed s) ->
        Class_table.is_base_of env.table ~base:d ~derived:s
    | Ast.TPtr _, _ when Ctype.is_integral src -> false
    | Ast.TNamed d, Ast.TNamed s ->
        (* only through references; direct object assignment is rejected
           separately *)
        Class_table.is_base_of env.table ~base:d ~derived:s
    | Ast.TFun (r1, p1), Ast.TFun (r2, p2) ->
        Ast.type_equal (Ast.TFun (r1, p1)) (Ast.TFun (r2, p2))
    | Ast.TPtr (Ast.TFun _ as f), (Ast.TFun _ as g) -> Ast.type_equal f g
    | (Ast.TFun _ as f), Ast.TPtr (Ast.TFun _ as g) -> Ast.type_equal f g
    | _ -> false

(* NULL literals are typed [TPtr TVoid]; they are assignable anywhere a
   pointer or member-pointer goes. *)
let is_null (e : texpr) = match e.te with TNull -> true | _ -> false

let check_assignable env ~loc ~dst (e : texpr) =
  let ok =
    assignable env ~dst ~src:e.ty
    || (is_null e
        && match Ctype.decay dst with
           | Ast.TPtr _ | Ast.TMemPtrTy _ | Ast.TFun _ -> true
           | _ -> false)
  in
  if not ok then
    err ~at:loc "type mismatch: expected '%s' but found '%s'"
      (Ctype.to_string dst) (Ctype.to_string e.ty)

let is_lvalue (e : texpr) =
  match e.te with
  | TLocal _ | TGlobalVar _ | TField _ | TStaticField _ | TDeref _ | TIndex _
  | TMemPtrDeref _ ->
      true
  | TCast (_, _, inner, _) -> (
      match inner.te with TDeref _ | TField _ -> true | _ -> false)
  | _ -> false

(* -- cast classification ---------------------------------------------------

   Implements the paper's Section 3 definition: "a type cast from type S to
   type T is considered unsafe if T is a derived class of S and the object
   being cast cannot be guaranteed to be of type T at run-time"; casts from
   a class (pointer) to an unrelated class or to a scalar through which
   members could be read are also unsafe. Casts through [void*] carry no
   member reads by themselves and are classified safe (the paper's
   benchmarks' down-casts were all verified safe by the user; the
   [assume_downcasts_safe] analysis option models that verification). *)
let classify_cast env ~(dst : Ast.type_expr) ~(src : Ast.type_expr) :
    cast_safety =
  let src = Ctype.decay src and dst = Ctype.decay dst in
  let src_cls = Ast.named_root src and dst_cls = Ast.named_root dst in
  match (src_cls, dst_cls) with
  | None, _ -> CastSafe (* no members in S to misread *)
  | Some s, Some d ->
      if s = d || Class_table.is_base_of env.table ~base:d ~derived:s then
        CastSafe (* identity or upcast *)
      else if Class_table.is_base_of env.table ~base:s ~derived:d then
        CastUnsafeDowncast s
      else CastUnsafeOther (Some s)
  | Some s, None -> (
      (* class (pointer) to scalar *)
      match dst with
      | Ast.TPtr Ast.TVoid -> CastSafe
      | Ast.TVoid -> CastSafe (* discarding a value *)
      | _ -> CastUnsafeOther (Some s))

(* -- builtins ---------------------------------------------------------------

   The "system functions" of the paper's model: output (observable
   behaviour) and [free]. *)
let builtins : (string * builtin) list =
  [
    ("print_int", BPrintInt);
    ("print_char", BPrintChar);
    ("print_float", BPrintFloat);
    ("print_str", BPrintStr);
    ("print_nl", BPrintNl);
    ("free", BFree);
    ("abort", BAbort);
  ]

let builtin_of_name name = List.assoc_opt name builtins

(* -- constructor resolution ------------------------------------------------ *)

let resolve_ctor env ~loc cls nargs : Func_id.t =
  match Class_table.find env.table cls with
  | None -> err ~at:loc "unknown class '%s'" cls
  | Some c ->
      let ctors = Class_table.ctors c in
      if ctors = [] then
        if nargs = 0 then Func_id.FCtor (cls, 0) (* synthesized default *)
        else err ~at:loc "class '%s' has no constructor taking %d arguments" cls nargs
      else if
        List.exists
          (fun (m : Class_table.method_info) -> List.length m.m_params = nargs)
          ctors
      then Func_id.FCtor (cls, nargs)
      else
        err ~at:loc "class '%s' has no constructor taking %d arguments" cls nargs

let ctor_params env ~loc cls nargs : Ast.param list =
  match Class_table.find env.table cls with
  | None -> err ~at:loc "unknown class '%s'" cls
  | Some c -> (
      match
        List.find_opt
          (fun (m : Class_table.method_info) -> List.length m.m_params = nargs)
          (Class_table.ctors c)
      with
      | Some m -> m.m_params
      | None -> [])

(* -- expressions ------------------------------------------------------------ *)

let arith_result a b =
  if Ctype.is_floating a || Ctype.is_floating b then Ast.TDouble
  else
    match (Ctype.decay a, Ctype.decay b) with
    | Ast.TLong, _ | _, Ast.TLong -> Ast.TLong
    | _ -> Ast.TInt

(* A new expression node, with the next id. *)
let texpr env ~loc te ty =
  let tid = env.next_tid in
  env.next_tid <- tid + 1;
  { te; ty; tloc = loc; tid }

let rec check_expr env (e : Ast.expr) : texpr =
  let loc = e.eloc in
  match e.e with
  | Ast.IntLit n -> texpr env ~loc (TInt n) Ast.TInt
  | Ast.BoolLit b -> texpr env ~loc (TBool b) Ast.TBool
  | Ast.CharLit c -> texpr env ~loc (TChar c) Ast.TChar
  | Ast.FloatLit f -> texpr env ~loc (TFloat f) Ast.TDouble
  | Ast.StrLit s -> texpr env ~loc (TStr s) (Ast.TPtr Ast.TChar)
  | Ast.NullLit -> texpr env ~loc TNull (Ast.TPtr Ast.TVoid)
  | Ast.This -> (
      match env.this_class with
      | Some cls -> texpr env ~loc (TThis cls) (Ast.TPtr (Ast.TNamed cls))
      | None -> err ~at:loc "'this' used outside a member function")
  | Ast.Ident name -> check_ident env ~loc name
  | Ast.ScopedIdent (cls, name) -> check_scoped env ~loc cls name
  | Ast.Unary (op, a) ->
      let ta = check_expr env a in
      let ty =
        match op with
        | Ast.Not -> Ast.TBool
        | Ast.Neg | Ast.UPlus | Ast.BitNot ->
            if Ctype.is_numeric ta.ty then Ctype.decay ta.ty
            else err ~at:loc "operand of unary %s must be numeric"
                   (match op with Ast.Neg -> "-" | Ast.BitNot -> "~" | _ -> "+")
      in
      texpr env ~loc (TUnary (op, ta)) ty
  | Ast.Binary (op, a, b) ->
      let ta = check_expr env a and tb = check_expr env b in
      let ty =
        match op with
        | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge -> Ast.TBool
        | Ast.LAnd | Ast.LOr -> Ast.TBool
        | Ast.Add | Ast.Sub -> (
            match (Ctype.decay ta.ty, Ctype.decay tb.ty) with
            | Ast.TPtr _, t when Ctype.is_integral t -> Ctype.decay ta.ty
            | t, Ast.TPtr _ when Ctype.is_integral t && op = Ast.Add ->
                Ctype.decay tb.ty
            | Ast.TPtr _, Ast.TPtr _ when op = Ast.Sub -> Ast.TInt
            | ta', tb' when Ctype.is_numeric ta' && Ctype.is_numeric tb' ->
                arith_result ta' tb'
            | _ ->
                err ~at:loc "invalid operands to binary %s ('%s' and '%s')"
                  (Frontend.Ast_printer.binop_str op)
                  (Ctype.to_string ta.ty) (Ctype.to_string tb.ty))
        | Ast.Mul | Ast.Div ->
            if Ctype.is_numeric ta.ty && Ctype.is_numeric tb.ty then
              arith_result ta.ty tb.ty
            else
              err ~at:loc "invalid operands to binary %s"
                (Frontend.Ast_printer.binop_str op)
        | Ast.Mod | Ast.BAnd | Ast.BOr | Ast.BXor | Ast.Shl | Ast.Shr ->
            if Ctype.is_integral ta.ty && Ctype.is_integral tb.ty then
              arith_result ta.ty tb.ty
            else
              err ~at:loc "invalid operands to binary %s"
                (Frontend.Ast_printer.binop_str op)
      in
      texpr env ~loc (TBinary (op, ta, tb)) ty
  | Ast.AssignE (op, lhs, rhs) ->
      let tl = check_expr env lhs in
      let tr = check_expr env rhs in
      if not (is_lvalue tl) then err ~at:loc "left operand of assignment is not an lvalue";
      if is_class_type env (Ctype.decay tl.ty) then
        err ~at:loc
          "whole-object assignment is not supported in MiniC++ (assign members or use pointers)";
      (if op = Ast.Assign then check_assignable env ~loc ~dst:tl.ty tr
       else if not (Ctype.is_numeric tl.ty && Ctype.is_numeric tr.ty) then
         match (Ctype.decay tl.ty, Ctype.decay tr.ty, op) with
         | Ast.TPtr _, t, (Ast.AddAssign | Ast.SubAssign) when Ctype.is_integral t -> ()
         | _ -> err ~at:loc "invalid compound assignment");
      texpr env ~loc (TAssign (op, tl, tr)) (Ctype.decay tl.ty)
  | Ast.IncDec (which, fix, a) ->
      let ta = check_expr env a in
      if not (is_lvalue ta) then err ~at:loc "operand of ++/-- is not an lvalue";
      if not (Ctype.is_numeric ta.ty || Ctype.is_pointer (Ctype.decay ta.ty))
      then err ~at:loc "operand of ++/-- must be numeric or pointer";
      (* C++ has no [--] on bool, and no [++] since C++17. *)
      if Ctype.decay ta.ty = Ast.TBool then
        err ~at:loc "operand of %s must not be 'bool'"
          (match which with Ast.Incr -> "++" | Ast.Decr -> "--");
      texpr env ~loc (TIncDec (which, fix, ta)) (Ctype.decay ta.ty)
  | Ast.Cond (c, t, f) ->
      let tc = check_expr env c in
      let tt = check_expr env t and tf = check_expr env f in
      let ty =
        if Ast.type_equal (Ctype.decay tt.ty) (Ctype.decay tf.ty) then
          Ctype.decay tt.ty
        else if Ctype.is_numeric tt.ty && Ctype.is_numeric tf.ty then
          arith_result tt.ty tf.ty
        else if is_null tt then Ctype.decay tf.ty
        else if is_null tf then Ctype.decay tt.ty
        else if
          assignable env ~dst:tt.ty ~src:tf.ty
        then Ctype.decay tt.ty
        else if assignable env ~dst:tf.ty ~src:tt.ty then Ctype.decay tf.ty
        else err ~at:loc "incompatible branches of conditional expression"
      in
      texpr env ~loc (TCond (tc, tt, tf)) ty
  | Ast.Cast (kind, t, a) ->
      check_type_exists env ~loc t;
      let ta = check_expr env a in
      let safety =
        match kind with
        | Ast.DynamicCast | Ast.ConstCast -> CastSafe
        | Ast.CStyle | Ast.StaticCast | Ast.ReinterpretCast ->
            classify_cast env ~dst:t ~src:ta.ty
      in
      texpr env ~loc (TCast (kind, t, ta, safety)) t
  | Ast.Member (obj, name) -> check_member env ~loc obj name ~arrow:false
  | Ast.Arrow (obj, name) -> check_member env ~loc obj name ~arrow:true
  | Ast.QualMember (obj, cls, name) ->
      check_qual_member env ~loc obj cls name ~arrow:false
  | Ast.QualArrow (obj, cls, name) ->
      check_qual_member env ~loc obj cls name ~arrow:true
  | Ast.AddrOf a -> check_addrof env ~loc a
  | Ast.Deref a -> (
      let ta = check_expr env a in
      match Ctype.decay ta.ty with
      | Ast.TPtr t -> texpr env ~loc (TDeref ta) t
      | _ -> err ~at:loc "cannot dereference non-pointer type '%s'" (Ctype.to_string ta.ty))
  | Ast.Index (a, i) -> (
      let ta = check_expr env a and ti = check_expr env i in
      if not (Ctype.is_integral ti.ty) then
        err ~at:loc "array index must be integral";
      match Ctype.decay ta.ty with
      | Ast.TPtr t -> texpr env ~loc (TIndex (ta, ti)) t
      | _ -> err ~at:loc "cannot index non-array type '%s'" (Ctype.to_string ta.ty))
  | Ast.MemPtrDeref (recv, pm, arrow) -> (
      let tr = check_expr env recv in
      let tp = check_expr env pm in
      let recv_cls =
        if arrow then Ctype.receiver_class_arrow tr.ty
        else Ctype.receiver_class_dot tr.ty
      in
      match (recv_cls, Ctype.decay tp.ty) with
      | Some rc, Ast.TMemPtrTy (pc, t) ->
          if not (Class_table.is_base_of env.table ~base:pc ~derived:rc) then
            err ~at:loc "pointer-to-member of '%s' applied to object of class '%s'" pc rc;
          texpr env ~loc (TMemPtrDeref (tr, tp, arrow)) t
      | None, _ -> err ~at:loc "left operand of .*/->* must be a class object"
      | _, _ -> err ~at:loc "right operand of .*/->* must be a pointer to member")
  | Ast.Call (callee, args) -> check_call env ~loc callee args
  | Ast.New (t, args) -> (
      check_type_exists env ~loc t;
      match t with
      | Ast.TNamed cls ->
          let targs = List.map (check_expr env) args in
          let ctor = resolve_ctor env ~loc cls (List.length targs) in
          check_ctor_args env ~loc cls targs;
          texpr env ~loc (TNewObj { cls; ctor; args = targs }) (Ast.TPtr t)
      | _ ->
          if args <> [] then err ~at:loc "scalar 'new' cannot take constructor arguments";
          texpr env ~loc (TNewScalar t) (Ast.TPtr t))
  | Ast.NewArr (t, n) ->
      check_type_exists env ~loc t;
      let tn = check_expr env n in
      if not (Ctype.is_integral tn.ty) then
        err ~at:loc "array size in 'new[]' must be integral";
      (match t with
      | Ast.TNamed cls -> ignore (resolve_ctor env ~loc cls 0)
      | _ -> ());
      texpr env ~loc (TNewArr (t, tn)) (Ast.TPtr t)
  | Ast.SizeofType t ->
      check_type_exists env ~loc t;
      texpr env ~loc (TSizeofType t) Ast.TInt
  | Ast.SizeofExpr a ->
      let ta = check_expr env a in
      texpr env ~loc (TSizeofExpr ta) Ast.TInt

and check_ident env ~loc name : texpr =
  match find_local env name with
  | Some t -> texpr env ~loc (TLocal name) t
  | None -> (
      (* implicit [this->name] member access *)
      match env.this_class with
      | Some cls when
          (match Member_lookup.lookup_field env.table ~start:cls ~name with
          | Member_lookup.Found _ -> true
          | _ -> false) -> (
          match Member_lookup.lookup_field env.table ~start:cls ~name with
          | Member_lookup.Found (def_class, f) ->
              if f.f_static then
                texpr env ~loc (TStaticField (def_class, name)) f.f_type
              else
                let this =
                  texpr env ~loc (TThis cls)
                    (Ast.TPtr (Ast.TNamed cls))
                in
                texpr env ~loc
                  (TField
                     {
                       fa_obj = this;
                       fa_arrow = true;
                       fa_qualified = false;
                       fa_def_class = def_class;
                       fa_field = name;
                       fa_volatile = f.f_volatile;
                     })
                  f.f_type
          | _ -> assert false)
      | _ -> (
          match StringMap.find_opt name env.globals with
          | Some t -> texpr env ~loc (TGlobalVar name) t
          | None -> (
              match StringMap.find_opt name env.enums with
              | Some v -> texpr env ~loc (TEnumConst (name, v)) Ast.TInt
              | None -> (
                  match StringMap.find_opt name env.free_sigs with
                  | Some (ret, params) ->
                      (* a function name used as a value decays to a
                         function pointer — and makes the function a call
                         graph root (address taken) *)
                      texpr env ~loc
                        (TFunAddr (Func_id.FFree name))
                        (Ast.TFun (ret, List.map (fun p -> p.Ast.p_type) params))
                  | None -> err ~at:loc "unknown identifier '%s'" name))))

and check_scoped env ~loc cls name : texpr =
  if not (Class_table.mem env.table cls) then err ~at:loc "unknown class '%s'" cls;
  match Member_lookup.lookup_field env.table ~start:cls ~name with
  | Member_lookup.Found (def_class, f) ->
      if f.f_static then
        texpr env ~loc (TStaticField (def_class, name)) f.f_type
      else (
        (* [X::m] inside a member function of a class derived from X is a
           qualified access to this->X::m *)
        match env.this_class with
        | Some this_cls when Class_table.is_base_of env.table ~base:cls ~derived:this_cls ->
            let this =
              texpr env ~loc (TThis this_cls)
                (Ast.TPtr (Ast.TNamed this_cls))
            in
            texpr env ~loc
              (TField
                 {
                   fa_obj = this;
                   fa_arrow = true;
                   fa_qualified = true;
                   fa_def_class = def_class;
                   fa_field = name;
                   fa_volatile = f.f_volatile;
                 })
              f.f_type
        | _ ->
            err ~at:loc "'%s::%s' names an instance member; it can only be used via an object or &%s::%s"
              cls name cls name)
  | Member_lookup.NotFound ->
      err ~at:loc "class '%s' has no member '%s'" cls name
  | Member_lookup.Ambiguous ds ->
      err ~at:loc "member '%s' is ambiguous in '%s' (defined in %s)" name cls
        (String.concat ", " ds)

and check_member env ~loc obj name ~arrow : texpr =
  let mark = env.next_tid in
  member_access env ~loc ~mark (check_expr env obj) name ~arrow

(* A static member named through [tobj], whose ids start at [mark]: the
   object expression is dropped and its ids are handed out again. C++
   would evaluate it first, so one that calls, assigns, steps or
   allocates is an error. *)
and static_through env ~loc ~mark tobj def_class name (f : Class_table.field)
    : texpr =
  if
    fold_expr
      (fun acc (e : texpr) ->
        acc
        ||
        match e.te with
        | TCall _ | TAssign _ | TIncDec _ | TNewObj _ | TNewScalar _
        | TNewArr _ ->
            true
        | _ -> false)
      false tobj
  then
    err ~at:loc
      "static member '%s::%s' named through an expression with side effects; write '%s::%s'"
      def_class name def_class name;
  env.next_tid <- mark;
  texpr env ~loc (TStaticField (def_class, name)) f.f_type

(* [tobj.name] or [tobj->name], where [tobj]'s ids start at [mark]. *)
and member_access env ~loc ~mark tobj name ~arrow : texpr =
  let recv =
    if arrow then Ctype.receiver_class_arrow tobj.ty
    else Ctype.receiver_class_dot tobj.ty
  in
  match recv with
  | None ->
      err ~at:loc "member access '%s%s' on non-class type '%s'"
        (if arrow then "->" else ".")
        name (Ctype.to_string tobj.ty)
  | Some cls ->
      let def_class, f = Member_lookup.field_exn env.table ~start:cls ~name ~loc in
      if f.f_static then static_through env ~loc ~mark tobj def_class name f
      else
        texpr env ~loc
          (TField
             {
               fa_obj = tobj;
               fa_arrow = arrow;
               fa_qualified = false;
               fa_def_class = def_class;
               fa_field = name;
               fa_volatile = f.f_volatile;
             })
          f.f_type

and check_qual_member env ~loc obj cls name ~arrow : texpr =
  let mark = env.next_tid in
  qual_member_access env ~loc ~mark (check_expr env obj) cls name ~arrow

(* [tobj.cls::name] or [tobj->cls::name]. *)
and qual_member_access env ~loc ~mark tobj cls name ~arrow : texpr =
  let recv =
    if arrow then Ctype.receiver_class_arrow tobj.ty
    else Ctype.receiver_class_dot tobj.ty
  in
  match recv with
  | None -> err ~at:loc "qualified member access on non-class type"
  | Some obj_cls ->
      if not (Class_table.is_base_of env.table ~base:cls ~derived:obj_cls) then
        err ~at:loc "'%s' is not a base of '%s'" cls obj_cls;
      let def_class, f = Member_lookup.field_exn env.table ~start:cls ~name ~loc in
      if f.f_static then static_through env ~loc ~mark tobj def_class name f
      else
        texpr env ~loc
          (TField
             {
               fa_obj = tobj;
               fa_arrow = arrow;
               fa_qualified = true;
               fa_def_class = def_class;
               fa_field = name;
               fa_volatile = f.f_volatile;
             })
          f.f_type

and check_addrof env ~loc (a : Ast.expr) : texpr =
  match a.e with
  | Ast.ScopedIdent (cls, name) -> (
      if not (Class_table.mem env.table cls) then
        err ~at:loc "unknown class '%s'" cls;
      (* pointer-to-member [&Z::m], method address [&Z::f], or address of
         a static member *)
      match Member_lookup.lookup_field env.table ~start:cls ~name with
      | Member_lookup.Found (def_class, f) ->
          if f.f_static then
            texpr env ~loc
              (TAddrOf
                 (texpr env ~loc (TStaticField (def_class, name)) f.f_type))
              (Ast.TPtr f.f_type)
          else
            texpr env ~loc (TMemPtr (def_class, name))
              (Ast.TMemPtrTy (def_class, f.f_type))
      | Member_lookup.Ambiguous ds ->
          err ~at:loc "member '%s' is ambiguous in '%s' (defined in %s)" name cls
            (String.concat ", " ds)
      | Member_lookup.NotFound -> (
          match Member_lookup.lookup_method env.table ~start:cls ~name with
          | Member_lookup.Found (def_class, m) ->
              texpr env ~loc
                (TFunAddr (Func_id.FMethod (def_class, name)))
                (Ast.TFun (m.m_ret, List.map (fun p -> p.Ast.p_type) m.m_params))
          | _ -> err ~at:loc "class '%s' has no member '%s'" cls name))
  | Ast.Ident name when find_local env name = None
                        && env.this_class = None
                        && StringMap.mem name env.free_sigs ->
      let ret, params = StringMap.find name env.free_sigs in
      texpr env ~loc
        (TFunAddr (Func_id.FFree name))
        (Ast.TFun (ret, List.map (fun p -> p.Ast.p_type) params))
  | Ast.Ident name when
      find_local env name = None
      && (match env.this_class with
         | Some cls ->
             (match Member_lookup.lookup_field env.table ~start:cls ~name with
             | Member_lookup.Found _ -> false
             | _ -> true)
         | None -> true)
      && not (StringMap.mem name env.globals)
      && StringMap.mem name env.free_sigs ->
      let ret, params = StringMap.find name env.free_sigs in
      texpr env ~loc
        (TFunAddr (Func_id.FFree name))
        (Ast.TFun (ret, List.map (fun p -> p.Ast.p_type) params))
  | _ ->
      let ta = check_expr env a in
      if not (is_lvalue ta) then err ~at:loc "cannot take the address of an rvalue";
      texpr env ~loc (TAddrOf ta) (Ast.TPtr (Ctype.decay ta.ty))

and check_ctor_args env ~loc cls (targs : texpr list) =
  let params = ctor_params env ~loc cls (List.length targs) in
  if List.length params = List.length targs then
    List.iter2
      (fun (p : Ast.param) a -> check_assignable env ~loc ~dst:p.p_type a)
      params targs

and check_args env ~loc what (params : Ast.param list) (targs : texpr list) =
  if List.length params <> List.length targs then
    err ~at:loc "%s expects %d arguments but %d were provided" what
      (List.length params) (List.length targs);
  List.iter2
    (fun (p : Ast.param) a -> check_assignable env ~loc ~dst:p.p_type a)
    params targs

and check_call env ~loc (callee : Ast.expr) (args : Ast.expr list) : texpr =
  let targs () = List.map (check_expr env) args in
  match callee.e with
  | Ast.Ident name -> (
      (* local function pointer? *)
      match find_local env name with
      | Some t ->
          call_through env ~loc ~name (texpr env ~loc (TLocal name) t) args
      | None -> (
          (* method of the enclosing class? *)
          let as_method =
            match env.this_class with
            | Some cls -> (
                match Member_lookup.lookup_method env.table ~start:cls ~name with
                | Member_lookup.Found (def_class, m) -> Some (cls, def_class, m)
                | _ -> None)
            | None -> None
          in
          match as_method with
          | None
            when (match env.this_class with
                 | Some cls -> funptr_field env cls name
                 | None -> false) ->
              (* a function-pointer member of the enclosing class hides
                 free functions and builtins, as a method does *)
              call_through env ~loc ~name (check_expr env callee) args
          | Some (this_cls, def_class, m) ->
              let targs = targs () in
              check_args env ~loc (Printf.sprintf "method '%s'" name) m.m_params targs;
              let this =
                texpr env ~loc (TThis this_cls)
                  (Ast.TPtr (Ast.TNamed this_cls))
              in
              texpr env ~loc
                (TCall
                   (CMethod
                      {
                        mc_recv = this;
                        mc_arrow = true;
                        mc_dispatch = (if m.m_virtual then DVirtual else DStatic);
                        mc_class = def_class;
                        mc_name = name;
                        mc_args = targs;
                      }))
                m.m_ret
          | None -> (
              match builtin_of_name name with
              | Some b ->
                  let targs = targs () in
                  check_builtin_args env ~loc b targs;
                  texpr env ~loc (TCall (CBuiltin (b, targs)))
                    (match b with
                    | BPrintInt | BPrintChar | BPrintFloat | BPrintStr | BPrintNl
                    | BFree | BAbort ->
                        Ast.TVoid)
              | None -> (
                  match StringMap.find_opt name env.free_sigs with
                  | Some (ret, params) ->
                      let targs = targs () in
                      check_args env ~loc (Printf.sprintf "function '%s'" name)
                        params targs;
                      texpr env ~loc (TCall (CFree (name, targs))) ret
                  | None -> (
                      match StringMap.find_opt name env.globals with
                      | Some t ->
                          call_through env ~loc ~name
                            (texpr env ~loc (TGlobalVar name) t)
                            args
                      | None -> err ~at:loc "call to unknown function '%s'" name)))))
  | Ast.Member (obj, name) ->
      check_method_call env ~loc callee obj name args ~arrow:false ~qualified:None
  | Ast.Arrow (obj, name) ->
      check_method_call env ~loc callee obj name args ~arrow:true ~qualified:None
  | Ast.QualMember (obj, cls, name) ->
      check_method_call env ~loc callee obj name args ~arrow:false
        ~qualified:(Some cls)
  | Ast.QualArrow (obj, cls, name) ->
      check_method_call env ~loc callee obj name args ~arrow:true
        ~qualified:(Some cls)
  | Ast.ScopedIdent (cls, name) -> (
      if not (Class_table.mem env.table cls) then err ~at:loc "unknown class '%s'" cls;
      match Member_lookup.lookup_method env.table ~start:cls ~name with
      | Member_lookup.Found (def_class, m) ->
          let targs = targs () in
          check_args env ~loc (Printf.sprintf "method '%s::%s'" cls name)
            m.m_params targs;
          if m.m_static then
            (* static member function: no receiver *)
            texpr env ~loc
              (TCall
                 (CMethod
                    {
                      mc_recv = texpr env ~loc TNull (Ast.TPtr Ast.TVoid);
                      mc_arrow = false;
                      mc_dispatch = DStatic;
                      mc_class = def_class;
                      mc_name = name;
                      mc_args = targs;
                    }))
              m.m_ret
          else (
            match env.this_class with
            | Some this_cls
              when Class_table.is_base_of env.table ~base:cls ~derived:this_cls ->
                let this =
                  texpr env ~loc (TThis this_cls)
                    (Ast.TPtr (Ast.TNamed this_cls))
                in
                texpr env ~loc
                  (TCall
                     (CMethod
                        {
                          mc_recv = this;
                          mc_arrow = true;
                          mc_dispatch = DStatic;  (* qualified: no dispatch *)
                          mc_class = def_class;
                          mc_name = name;
                          mc_args = targs;
                        }))
                  m.m_ret
            | _ ->
                err ~at:loc "cannot call instance method '%s::%s' without an object"
                  cls name)
      | _ -> err ~at:loc "class '%s' has no method '%s'" cls name)
  | _ ->
      (* general function-pointer call through an expression *)
      call_through env ~loc (check_expr env callee) args

(* A call through the function-pointer value [tf]; [name] is the
   callee's name when the call spells one. *)
and call_through env ~loc ?name (tf : texpr) (args : Ast.expr list) : texpr =
  match Ctype.decay tf.ty with
  | Ast.TFun (ret, params) | Ast.TPtr (Ast.TFun (ret, params)) ->
      let targs = List.map (check_expr env) args in
      if List.length params <> List.length targs then (
        match name with
        | Some name -> err ~at:loc "function pointer '%s' arity mismatch" name
        | None -> err ~at:loc "function pointer arity mismatch");
      texpr env ~loc (TCall (CFunPtr (tf, targs))) ret
  | _ -> (
      match name with
      | Some name -> err ~at:loc "'%s' is not a function" name
      | None -> err ~at:loc "called expression is not a function")

(* Does [name] denote a data member of function-pointer type in class
   [start]? *)
and funptr_field env start name =
  match Member_lookup.lookup_field env.table ~start ~name with
  | Member_lookup.Found (_, f) -> (
      match Ctype.decay f.f_type with
      | Ast.TFun _ | Ast.TPtr (Ast.TFun _) -> true
      | _ -> false)
  | _ -> false

and check_method_call env ~loc callee obj name args ~arrow ~qualified : texpr =
  let mark = env.next_tid in
  let tobj = check_expr env obj in
  let recv_cls =
    if arrow then Ctype.receiver_class_arrow tobj.ty
    else Ctype.receiver_class_dot tobj.ty
  in
  match recv_cls with
  | None ->
      err ~at:loc "method call '%s' on non-class type '%s'" name
        (Ctype.to_string tobj.ty)
  | Some obj_cls -> (
      let start =
        match qualified with
        | Some q ->
            if not (Class_table.is_base_of env.table ~base:q ~derived:obj_cls)
            then err ~at:loc "'%s' is not a base of '%s'" q obj_cls;
            q
        | None -> obj_cls
      in
      match Member_lookup.lookup_method env.table ~start ~name with
      | Member_lookup.NotFound when funptr_field env start name ->
          (* a call through a function-pointer data member *)
          let loc' = callee.Ast.eloc in
          let tf =
            match qualified with
            | None -> member_access env ~loc:loc' ~mark tobj name ~arrow
            | Some q -> qual_member_access env ~loc:loc' ~mark tobj q name ~arrow
          in
          call_through env ~loc tf args
      | found ->
          let def_class, m =
            match found with
            | Member_lookup.Found (def_class, m) -> (def_class, m)
            | _ -> Member_lookup.method_exn env.table ~start ~name ~loc
          in
          let targs = List.map (check_expr env) args in
          check_args env ~loc (Printf.sprintf "method '%s::%s'" def_class name)
            m.m_params targs;
          let dispatch =
            if qualified = None && m.m_virtual then DVirtual else DStatic
          in
          texpr env ~loc
            (TCall
               (CMethod
                  {
                    mc_recv = tobj;
                    mc_arrow = arrow;
                    mc_dispatch = dispatch;
                    mc_class = def_class;
                    mc_name = name;
                    mc_args = targs;
                  }))
            m.m_ret)

and check_builtin_args _env ~loc b (targs : texpr list) =
  let expect_n n = if List.length targs <> n then
    err ~at:loc "builtin '%s' expects %d argument(s)" (builtin_name b) n
  in
  match b with
  | BPrintInt | BPrintChar ->
      expect_n 1;
      List.iter
        (fun (a : texpr) ->
          if not (Ctype.is_integral a.ty) then
            err ~at:loc "builtin '%s' expects an integral argument" (builtin_name b))
        targs
  | BPrintFloat ->
      expect_n 1;
      List.iter
        (fun (a : texpr) ->
          if not (Ctype.is_numeric a.ty) then
            err ~at:loc "print_float expects a numeric argument")
        targs
  | BPrintStr ->
      expect_n 1;
      List.iter
        (fun (a : texpr) ->
          match Ctype.decay a.ty with
          | Ast.TPtr Ast.TChar -> ()
          | _ -> err ~at:loc "print_str expects a char* argument")
        targs
  | BPrintNl | BAbort -> expect_n 0
  | BFree ->
      expect_n 1;
      List.iter
        (fun (a : texpr) ->
          if not (Ctype.is_pointer (Ctype.decay a.ty)) then
            err ~at:loc "free expects a pointer argument")
        targs

(* -- statements -------------------------------------------------------------- *)

let rec check_stmt env (s : Ast.stmt) : tstmt =
  let loc = s.sloc in
  let mk ts = { ts; tsloc = loc } in
  match s.s with
  | Ast.SExpr e -> mk (TSExpr (check_expr env e))
  | Ast.SDecl ds -> mk (TSDecl (List.map (check_var_decl env) ds))
  | Ast.SBlock body ->
      push_scope env;
      let body = List.map (check_stmt env) body in
      pop_scope env;
      mk (TSBlock body)
  | Ast.SIf (c, t, e) ->
      let tc = check_expr env c in
      mk (TSIf (tc, check_stmt env t, Option.map (check_stmt env) e))
  | Ast.SWhile (c, b) -> mk (TSWhile (check_expr env c, check_stmt env b))
  | Ast.SDoWhile (b, c) -> mk (TSDoWhile (check_stmt env b, check_expr env c))
  | Ast.SFor (init, cond, step, b) ->
      push_scope env;
      let tinit = Option.map (check_stmt env) init in
      let tcond = Option.map (check_expr env) cond in
      let tstep = Option.map (check_expr env) step in
      let tb = check_stmt env b in
      pop_scope env;
      mk (TSFor (tinit, tcond, tstep, tb))
  | Ast.SReturn None ->
      if not (Ast.type_equal env.ret_type Ast.TVoid) then
        err ~at:loc "non-void function must return a value";
      mk (TSReturn None)
  | Ast.SReturn (Some e) ->
      let te = check_expr env e in
      if Ast.type_equal env.ret_type Ast.TVoid then
        err ~at:loc "void function cannot return a value";
      check_assignable env ~loc ~dst:env.ret_type te;
      mk (TSReturn (Some te))
  | Ast.SBreak -> mk TSBreak
  | Ast.SContinue -> mk TSContinue
  | Ast.SDelete (arr, e) ->
      let te = check_expr env e in
      if not (Ctype.is_pointer (Ctype.decay te.ty)) then
        err ~at:loc "operand of delete must be a pointer";
      mk (TSDelete (arr, te))
  | Ast.SEmpty -> mk TSEmpty

and check_var_decl env (d : Ast.var_decl) : tvar_decl =
  let loc = d.v_loc in
  check_type_exists env ~loc d.v_type;
  if Ast.type_equal d.v_type Ast.TVoid then err ~at:loc "variable of type void";
  let init =
    match (d.v_init, d.v_type) with
    | None, Ast.TNamed cls ->
        (* default construction *)
        TInitCtor (resolve_ctor env ~loc cls 0, [])
    | None, _ -> TInitNone
    | Some (Ast.InitCtor args), Ast.TNamed cls ->
        let targs = List.map (check_expr env) args in
        let ctor = resolve_ctor env ~loc cls (List.length targs) in
        check_ctor_args env ~loc cls targs;
        TInitCtor (ctor, targs)
    | Some (Ast.InitCtor [ e ]), _ ->
        (* [int x(5)] — value initialization *)
        let te = check_expr env e in
        check_assignable env ~loc ~dst:d.v_type te;
        TInitExpr te
    | Some (Ast.InitCtor _), _ ->
        err ~at:loc "constructor-style initialization of a non-class variable"
    | Some (Ast.InitExpr _), Ast.TNamed cls ->
        ignore cls;
        err ~at:loc
          "copy-initialization of class objects is not supported in MiniC++ (use pointers or references)"
    | Some (Ast.InitExpr e), (Ast.TRef _ as rt) ->
        let te = check_expr env e in
        if not (is_lvalue te) then
          err ~at:loc "reference must be bound to an lvalue";
        check_assignable env ~loc ~dst:rt te;
        TInitExpr te
    | Some (Ast.InitExpr e), _ ->
        let te = check_expr env e in
        check_assignable env ~loc ~dst:d.v_type te;
        TInitExpr te
  in
  add_local env ~loc d.v_name d.v_type;
  { tv_name = d.v_name; tv_type = d.v_type; tv_init = init; tv_loc = loc }

(* -- functions ---------------------------------------------------------------- *)

(* telemetry instruments (no-ops unless collection is enabled) *)
let functions_counter = Telemetry.Counter.make "sema.functions_checked"

let check_function_common env ~loc ~this_class ~ret ~(params : Ast.param list)
    ~body ~base_inits ~field_inits : tstmt option * base_init list * field_init list =
  Telemetry.Counter.incr functions_counter;
  env.this_class <- this_class;
  env.ret_type <- ret;
  reset_scopes env;
  push_scope env;
  List.iter
    (fun (p : Ast.param) ->
      check_type_exists env ~loc:p.p_loc p.p_type;
      if is_class_type env p.p_type then
        err ~at:p.p_loc
          "passing class objects by value is not supported in MiniC++ (use a pointer or reference)";
      add_local env ~loc:p.p_loc p.p_name p.p_type)
    params;
  (* ctor initializers are checked in parameter scope *)
  let tbase_inits =
    List.map
      (fun (bi_class, args, bi_virtual) ->
        let targs = List.map (check_expr env) args in
        check_ctor_args env ~loc bi_class targs;
        ignore (resolve_ctor env ~loc bi_class (List.length targs));
        { bi_class; bi_args = targs; bi_virtual })
      base_inits
  in
  let tfield_inits =
    List.map
      (fun (fi_field, args, fty) ->
        let targs = List.map (check_expr env) args in
        (match (fty, targs) with
        | Ast.TNamed cls, _ ->
            ignore (resolve_ctor env ~loc cls (List.length targs));
            check_ctor_args env ~loc cls targs
        | t, [ a ] -> check_assignable env ~loc ~dst:t a
        | _, [] -> ()
        | _ -> err ~at:loc "too many initializers for scalar member '%s'" fi_field);
        { fi_field; fi_args = targs })
      field_inits
  in
  let tbody = Option.map (check_stmt env) body in
  pop_scope env;
  env.this_class <- None;
  (tbody, tbase_inits, tfield_inits)

(* Split a parsed ctor initializer list into base inits and field inits,
   and add implicit default-construction entries for unnamed bases. *)
let resolve_ctor_inits env ~loc (c : Class_table.cls)
    (inits : (string * Ast.expr list) list) :
    (string * Ast.expr list * bool) list * (string * Ast.expr list * Ast.type_expr) list =
  let direct = c.c_bases in
  let vbases = Class_table.virtual_base_names env.table c.c_name in
  let is_direct n = List.exists (fun (b : Ast.base_spec) -> b.b_name = n) direct in
  let is_vbase n = List.mem n vbases in
  let base_inits = ref [] and field_inits = ref [] in
  List.iter
    (fun (name, args) ->
      if is_direct name || is_vbase name then
        base_inits := (name, args) :: !base_inits
      else
        match Class_table.own_field c name with
        | Some f ->
            if f.f_static then
              err ~at:loc "cannot initialize static member '%s' in constructor" name;
            field_inits := (name, args, f.f_type) :: !field_inits
        | None ->
            err ~at:loc "'%s' is neither a base class nor a member of '%s'" name
              c.c_name)
    inits;
  let base_inits = List.rev !base_inits in
  (* implicit default construction for bases not in the init list *)
  let explicit = List.map fst base_inits in
  let all_bases =
    List.map (fun (b : Ast.base_spec) -> (b.b_name, b.b_virtual)) direct
    @ List.filter_map
        (fun v -> if is_direct v then None else Some (v, true))
        vbases
  in
  let resolved =
    List.map
      (fun (name, virt) ->
        let args =
          match List.assoc_opt name base_inits with Some a -> a | None -> []
        in
        (name, args, virt))
      all_bases
  in
  (* sanity: explicit names must all be known *)
  List.iter
    (fun n ->
      if not (List.exists (fun (m, _, _) -> m = n) resolved) then
        err ~at:loc "initializer for '%s' does not name a direct or virtual base" n)
    explicit;
  (resolved, List.rev !field_inits)

let check_program_gen recover (prog : Ast.program) : program =
  Telemetry.Span.with_ "typecheck" @@ fun () ->
  (* In keep-going mode a class-table error (duplicate class, unknown
     base, bad out-of-line definition, ...) drops the offending
     declaration and retries, so one bad class does not take down the
     whole translation unit. *)
  let rec build_table prog attempts =
    match Class_table.of_program prog with
    | table -> (table, prog)
    | exception Source.Compile_error d -> (
        match recover with
        | None -> raise (Source.Compile_error d)
        | Some rc ->
            Source.Diagnostics.emit rc.rc_diags d;
            let at = d.Source.at in
            let offender decl =
              let l = Ast.top_decl_loc decl in
              String.equal l.Source.file at.Source.file
              && l.Source.start_offset <= at.Source.start_offset
              && at.Source.start_offset <= l.Source.end_offset
            in
            let dropped, kept =
              if attempts > 0 && List.exists offender prog then
                List.partition offender prog
              else
                (* cannot locate the offender: drop every class-like
                   declaration and fall back to a class-free program *)
                List.partition
                  (function
                    | Ast.TClass _ | Ast.TMethodDef _ -> true
                    | Ast.TFunc _ | Ast.TGlobal _ | Ast.TEnum _ -> false)
                  prog
            in
            List.iter
              (fun decl ->
                (match decl with
                | Ast.TMethodDef _ -> rc.rc_defs_dropped <- true
                | _ -> ());
                record_region rc ~what:"declaration with class-table error"
                  ~loc:(Ast.top_decl_loc decl)
                  ~refs:(fun () -> Ast.decl_refs decl))
              dropped;
            if dropped = [] then (Class_table.of_program [], kept)
            else build_table kept (attempts - 1))
  in
  let table, prog = build_table prog (List.length prog) in
  (* collect globals, enums, free-function signatures *)
  let globals = ref StringMap.empty and global_order = ref [] in
  let enums = ref StringMap.empty in
  let free_sigs = ref StringMap.empty in
  (* per free function, the declaration it is checked at: its
     definition, or its first declaration if it has none *)
  let free_defs = ref StringMap.empty in
  let collect_decl = function
      | Ast.TGlobal d ->
          if StringMap.mem d.v_name !globals then
            err ~at:d.v_loc "duplicate global '%s'" d.v_name;
          globals := StringMap.add d.v_name d.v_type !globals;
          global_order := d :: !global_order
      | Ast.TEnum e ->
          List.iter
            (fun (n, v) ->
              if StringMap.mem n !enums then
                err ~at:e.en_loc "duplicate enumerator '%s'" n;
              enums := StringMap.add n v !enums)
            e.en_items
      | Ast.TFunc f ->
          (match StringMap.find_opt f.fn_name !free_defs with
          | Some _ when f.fn_body = None -> ()
          | Some (g : Ast.func_decl) when g.fn_body <> None ->
              err ~at:f.fn_loc "redefinition of function '%s'" f.fn_name
          | Some _ | None ->
              free_sigs := StringMap.add f.fn_name (f.fn_ret, f.fn_params) !free_sigs;
              free_defs := StringMap.add f.fn_name f !free_defs)
      | Ast.TClass _ | Ast.TMethodDef _ -> ()
  in
  List.iter
    (fun decl ->
      guard recover ~what:"declaration"
        ~loc:(Ast.top_decl_loc decl)
        ~refs:(fun () -> Ast.decl_refs decl)
        (fun () -> collect_decl decl))
    prog;
  let env =
    {
      table;
      globals = !globals;
      enums = !enums;
      free_sigs = !free_sigs;
      locals = StringTbl.create 64;
      scopes = [];
      depth = 0;
      this_class = None;
      ret_type = Ast.TVoid;
      defs_seen =
        (match recover with Some rc -> not rc.rc_defs_dropped | None -> true);
      next_tid = 0;
    }
  in
  let funcs = ref FuncMap.empty in
  let add_func id f =
    if FuncMap.mem id !funcs then
      err ~at:f.tf_loc "duplicate function '%s'" (Func_id.to_string id);
    funcs := FuncMap.add id f !funcs
  in
  let check_free (f : Ast.func_decl) =
    let name = f.fn_name and ret = f.fn_ret and params = f.fn_params in
    let loc, body =
      match f.fn_body with
      | Some _ -> (f.fn_loc, f.fn_body)
      | None -> (Source.dummy_span, None)
    in
    let mk_func tbody =
      {
        tf_id = Func_id.FFree name;
        tf_ret = ret;
        tf_params = List.map (fun (p : Ast.param) -> (p.p_name, p.p_type)) params;
        tf_this = None;
        tf_virtual = false;
        tf_base_inits = [];
        tf_field_inits = [];
        tf_body = tbody;
        tf_loc = loc;
      }
    in
    guard ~env recover
      ~what:(Fmt.str "function '%s'" name)
      ~loc
      ~refs:(fun () ->
        Ast.collect_refs (fun add ->
            Ast.add_type_refs add ret;
            List.iter
              (fun (p : Ast.param) -> Ast.add_type_refs add p.p_type)
              params;
            Option.iter (Ast.add_stmt_refs add) body))
      ~fallback:(fun () -> add_func (Func_id.FFree name) (mk_func None))
      (fun () ->
        check_type_exists env ~loc ret;
        if is_class_type env ret then
          err ~at:loc
            "returning class objects by value is not supported in MiniC++";
        let tbody, _, _ =
          check_function_common env ~loc ~this_class:None ~ret ~params ~body
            ~base_inits:[] ~field_inits:[]
        in
        add_func (Func_id.FFree name) (mk_func tbody))
  in
  let check_method (c : Class_table.cls) (m : Class_table.method_info) =
    let stub id ~params ~ret ~this ~virt =
      {
        tf_id = id;
        tf_ret = ret;
        tf_params =
          List.map (fun (p : Ast.param) -> (p.p_name, p.p_type)) params;
        tf_this = this;
        tf_virtual = virt;
        tf_base_inits = [];
        tf_field_inits = [];
        tf_body = None;
        tf_loc = m.m_loc;
      }
    in
    let fallback () =
      match m.m_kind with
      | Ast.MethNormal ->
          let id = Func_id.FMethod (c.c_name, m.m_name) in
          add_func id
            (stub id ~params:m.m_params ~ret:m.m_ret
               ~this:(if m.m_static then None else Some c.c_name)
               ~virt:m.m_virtual)
      | Ast.MethCtor ->
          let id = Func_id.FCtor (c.c_name, List.length m.m_params) in
          add_func id
            (stub id ~params:m.m_params ~ret:Ast.TVoid
               ~this:(Some c.c_name) ~virt:false)
      | Ast.MethDtor ->
          let id = Func_id.FDtor c.c_name in
          add_func id
            (stub id ~params:[] ~ret:Ast.TVoid ~this:(Some c.c_name)
               ~virt:m.m_virtual)
    in
    let refs () =
      Ast.collect_refs (fun add ->
          add c.c_name;
          Ast.add_type_refs add m.m_ret;
          List.iter
            (fun (p : Ast.param) -> Ast.add_type_refs add p.p_type)
            m.m_params;
          List.iter
            (fun (n, args) ->
              add n;
              List.iter (Ast.add_expr_refs add) args)
            m.m_inits;
          Option.iter (Ast.add_stmt_refs add) m.m_body)
    in
    guard ~env recover
      ~what:(Fmt.str "member function '%s::%s'" c.c_name m.m_name)
      ~loc:m.m_loc ~refs ~fallback
      (fun () ->
    check_type_exists env ~loc:m.m_loc m.m_ret;
    if is_class_type env m.m_ret then
      err ~at:m.m_loc "returning class objects by value is not supported in MiniC++";
    match m.m_kind with
    | Ast.MethNormal ->
        let tbody, _, _ =
          check_function_common env ~loc:m.m_loc
            ~this_class:(if m.m_static then None else Some c.c_name)
            ~ret:m.m_ret ~params:m.m_params ~body:m.m_body ~base_inits:[]
            ~field_inits:[]
        in
        if m.m_body = None && env.defs_seen && not m.m_pure then
          err ~at:m.m_loc "method '%s::%s' is declared but never defined"
            c.c_name m.m_name;
        add_func
          (Func_id.FMethod (c.c_name, m.m_name))
          {
            tf_id = Func_id.FMethod (c.c_name, m.m_name);
            tf_ret = m.m_ret;
            tf_params =
              List.map (fun (p : Ast.param) -> (p.p_name, p.p_type)) m.m_params;
            tf_this = (if m.m_static then None else Some c.c_name);
            tf_virtual = m.m_virtual;
            tf_base_inits = [];
            tf_field_inits = [];
            tf_body = tbody;
            tf_loc = m.m_loc;
          }
    | Ast.MethCtor ->
        if m.m_body = None && env.defs_seen then
          err ~at:m.m_loc "constructor of '%s' is declared but never defined"
            c.c_name;
        let base_inits, field_inits =
          resolve_ctor_inits env ~loc:m.m_loc c m.m_inits
        in
        let tbody, tbase, tfields =
          check_function_common env ~loc:m.m_loc ~this_class:(Some c.c_name)
            ~ret:Ast.TVoid ~params:m.m_params ~body:m.m_body
            ~base_inits ~field_inits
        in
        let arity = List.length m.m_params in
        add_func
          (Func_id.FCtor (c.c_name, arity))
          {
            tf_id = Func_id.FCtor (c.c_name, arity);
            tf_ret = Ast.TVoid;
            tf_params =
              List.map (fun (p : Ast.param) -> (p.p_name, p.p_type)) m.m_params;
            tf_this = Some c.c_name;
            tf_virtual = false;
            tf_base_inits = tbase;
            tf_field_inits = tfields;
            tf_body = tbody;
            tf_loc = m.m_loc;
          }
    | Ast.MethDtor ->
        if m.m_body = None && env.defs_seen then
          err ~at:m.m_loc "destructor of '%s' is declared but never defined"
            c.c_name;
        let tbody, _, _ =
          check_function_common env ~loc:m.m_loc ~this_class:(Some c.c_name)
            ~ret:Ast.TVoid ~params:[] ~body:m.m_body ~base_inits:[]
            ~field_inits:[]
        in
        add_func (Func_id.FDtor c.c_name)
          {
            tf_id = Func_id.FDtor c.c_name;
            tf_ret = Ast.TVoid;
            tf_params = [];
            tf_this = Some c.c_name;
            tf_virtual = m.m_virtual;
            tf_base_inits = [];
            tf_field_inits = [];
            tf_body = tbody;
            tf_loc = m.m_loc;
          })
  in
  (* Functions are checked in source order: a walk of the top-level
     declarations checks each one where its body is (where it is first
     declared, if it has none). So strict mode's one error is the first
     in the source, and keep-going's per-file cap keeps the first
     errors. A class's [c_methods] are its [members]' method
     declarations, in order. *)
  let rec check_class c members (methods : Class_table.method_info list) =
    match (members, methods) with
    | Ast.MField _ :: members, _ -> check_class c members methods
    | Ast.MMethod md :: members, m :: methods ->
        (* a body defined out of line is checked where it is *)
        if Option.is_some md.mt_body || m.m_body = None then check_method c m;
        check_class c members methods
    | _ -> ()
  in
  List.iter
    (function
      | Ast.TFunc f -> (
          match StringMap.find f.fn_name !free_defs with
          | g -> if g == f then check_free f
          | exception Not_found -> ())
      | Ast.TClass cd -> (
          match Class_table.find table cd.cd_name with
          | Some c -> check_class c cd.cd_members c.c_methods
          | None -> ())
      | Ast.TMethodDef (cls, md) -> (
          match (Class_table.find table cls, md.mt_body) with
          | Some c, Some _ ->
              List.iter
                (fun (m : Class_table.method_info) ->
                  if m.m_body == md.mt_body then check_method c m)
                c.c_methods
          | _, None | None, _ -> ())
      | Ast.TGlobal _ | Ast.TEnum _ -> ())
    prog;
  (* synthesized default constructors and destructors *)
  List.iter
    (fun (c : Class_table.cls) ->
      guard recover
        ~what:(Fmt.str "synthesized members of '%s'" c.c_name)
        ~loc:c.c_loc
        ~refs:(fun () ->
          c.c_name :: List.map (fun (b : Ast.base_spec) -> b.b_name) c.c_bases)
        (fun () ->
      let base_inits =
        let vbases = Class_table.virtual_base_names table c.c_name in
        List.map
          (fun (b : Ast.base_spec) ->
            { bi_class = b.b_name; bi_args = []; bi_virtual = b.b_virtual })
          c.c_bases
        @ List.filter_map
            (fun v ->
              if List.exists (fun (b : Ast.base_spec) -> b.b_name = v) c.c_bases
              then None
              else Some { bi_class = v; bi_args = []; bi_virtual = true })
            vbases
      in
      if Class_table.ctors c = [] then
        add_func (Func_id.FCtor (c.c_name, 0))
          {
            tf_id = Func_id.FCtor (c.c_name, 0);
            tf_ret = Ast.TVoid;
            tf_params = [];
            tf_this = Some c.c_name;
            tf_virtual = false;
            tf_base_inits = base_inits;
            tf_field_inits = [];
            tf_body = None;
            tf_loc = c.c_loc;
          };
      if Class_table.dtor c = None then
        add_func (Func_id.FDtor c.c_name)
          {
            tf_id = Func_id.FDtor c.c_name;
            tf_ret = Ast.TVoid;
            tf_params = [];
            tf_this = Some c.c_name;
            tf_virtual = false;
            tf_base_inits = [];
            tf_field_inits = [];
            tf_body = None;
            tf_loc = c.c_loc;
          }))
    (Class_table.all_classes table);
  (* explicit ctors also need their implicit base-init entries present even
     when written with partial init lists — handled in resolve_ctor_inits.
     Globals: check initializers in file scope. *)
  let tglobals = ref [] in
  List.iter
    (fun (d : Ast.var_decl) ->
      guard ~env recover
        ~what:(Fmt.str "global '%s'" d.v_name)
        ~loc:d.v_loc
        ~refs:(fun () ->
          Ast.collect_refs (fun add -> Ast.add_var_refs add d))
        (fun () ->
          check_type_exists env ~loc:d.v_loc d.v_type;
          reset_scopes env;
          push_scope env;
          let init =
            match d.v_init with
            | None -> None
            | Some (Ast.InitExpr e) ->
                let te = check_expr env e in
                check_assignable env ~loc:d.v_loc ~dst:d.v_type te;
                Some te
            | Some (Ast.InitCtor _) ->
                err ~at:d.v_loc
                  "global class objects are not supported in MiniC++ (allocate in main)"
          in
          (match d.v_type with
          | Ast.TNamed _ ->
              err ~at:d.v_loc
                "global class objects are not supported in MiniC++ (allocate in main)"
          | _ -> ());
          pop_scope env;
          tglobals :=
            { g_name = d.v_name; g_type = d.v_type; g_init = init }
            :: !tglobals))
    !global_order;
  let p =
    {
      table;
      funcs = !funcs;
      globals = !tglobals;
      enum_consts = StringMap.bindings !enums;
      n_exprs = env.next_tid;
    }
  in
  (* Under keep-going, an earlier error may have swallowed [main]: a
     missing [main] is only news in an otherwise clean program. *)
  if not (FuncMap.mem main_id p.funcs) then begin
    match recover with
    | None -> err "program has no 'main' function"
    | Some rc ->
        if not (Source.Diagnostics.has_errors rc.rc_diags) then
          Source.Diagnostics.error rc.rc_diags "program has no 'main' function"
  end;
  p

let check_program (prog : Ast.program) : program = check_program_gen None prog

(* Keep-going variant: every declaration-level error becomes a diagnostic
   in [diags]; declarations that fail to check come back as unknown
   regions, which the analysis treats like the paper treats unsafe casts
   (every member of every class they mention stays live). *)
let check_program_resilient ~diags (prog : Ast.program) :
    program * Source.unknown_region list =
  let rc = { rc_diags = diags; rc_regions = []; rc_defs_dropped = false } in
  let p = check_program_gen (Some rc) prog in
  (p, List.rev rc.rc_regions)

(* Convenience: parse and type check in one step. *)
let check_source ?(file = "<string>") src : program =
  check_program (Frontend.Parser.parse ~file src)

(* Parse and check with full recovery: syntax and type errors all land in
   [diags]; unknown regions from both phases are concatenated. *)
let check_source_resilient ?(file = "<string>") ~diags src :
    program * Source.unknown_region list =
  let ast, parse_regions = Frontend.Parser.parse_resilient ~diags ~file src in
  let p, check_regions = check_program_resilient ~diags ast in
  (p, parse_regions @ check_regions)
