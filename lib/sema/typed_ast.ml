(* Typed abstract syntax.

   Produced by [Type_check.check]; every member access carries the class
   that *defines* the accessed member (the result of the paper's
   [Lookup(X, m)]), every call site carries its resolved target and
   dispatch kind, and every cast carries a safety classification. This is
   exactly the information the dead-data-member analysis, the call-graph
   builders and the interpreter need. *)

open Frontend

(* Identity of a function-like entity: the nodes of the call graph. *)
module Func_id = struct
  type t =
    | FFree of string            (* free function *)
    | FMethod of string * string (* class, method *)
    | FCtor of string * int      (* class, arity — ctors overload by arity *)
    | FDtor of string            (* class *)

  (* [Stdlib.compare]'s order, without its polymorphic walk: constructor
     first, in declaration order, then the fields left to right. Every
     [FuncSet]/[FuncMap] iteration, and so everything printed from one,
     depends on this order. *)
  let compare a b =
    match (a, b) with
    | FFree x, FFree y -> String.compare x y
    | FFree _, _ -> -1
    | _, FFree _ -> 1
    | FMethod (c, m), FMethod (c', m') ->
        let r = String.compare c c' in
        if r <> 0 then r else String.compare m m'
    | FMethod _, _ -> -1
    | _, FMethod _ -> 1
    | FCtor (c, n), FCtor (c', n') ->
        let r = String.compare c c' in
        if r <> 0 then r else Int.compare n n'
    | FCtor _, _ -> -1
    | _, FCtor _ -> 1
    | FDtor c, FDtor c' -> String.compare c c'

  let equal a b = compare a b = 0

  let to_string = function
    | FFree f -> f
    | FMethod (c, m) -> c ^ "::" ^ m
    | FCtor (c, n) -> Printf.sprintf "%s::%s/%d" c c n
    | FDtor c -> Printf.sprintf "%s::~%s" c c

  let pp ppf t = Fmt.string ppf (to_string t)

  let class_of = function
    | FFree _ -> None
    | FMethod (c, _) | FCtor (c, _) | FDtor c -> Some c
end

module FuncMap = Map.Make (Func_id)
module FuncSet = Set.Make (Func_id)

(* Built-in "system functions". [BFree] is the paper's [free] special
   case; the print family is the observable-output channel. *)
type builtin =
  | BPrintInt
  | BPrintChar
  | BPrintFloat
  | BPrintStr
  | BPrintNl
  | BFree
  | BAbort

let builtin_name = function
  | BPrintInt -> "print_int"
  | BPrintChar -> "print_char"
  | BPrintFloat -> "print_float"
  | BPrintStr -> "print_str"
  | BPrintNl -> "print_nl"
  | BFree -> "free"
  | BAbort -> "abort"

(* Cast classification, per the paper's definition of unsafe casts
   (Section 3): [CastUnsafe (Some s)] means the cast is unsafe and [s] is
   the class whose contained members must be conservatively marked live
   ("let S be the type of e'; MarkAllContainedMembers(S)"). *)
type cast_safety =
  | CastSafe
  | CastUnsafeDowncast of string  (* source class; safe if user asserts so *)
  | CastUnsafeOther of string option  (* cross-cast / class-to-scalar *)

type dispatch = DStatic | DVirtual

(* [tid] numbers a program's expressions densely, 0 .. [n_exprs] - 1 in
   the order the checker built them: analyses key per-expression tables
   by it instead of hashing the expression. *)
type texpr = { te : texpr_desc; ty : Ast.type_expr; tloc : Ast.loc; tid : int }

and texpr_desc =
  | TInt of int
  | TBool of bool
  | TChar of char
  | TFloat of float
  | TStr of string
  | TNull
  | TLocal of string
  | TGlobalVar of string
  | TEnumConst of string * int
  | TThis of string  (* enclosing class *)
  | TUnary of Ast.unop * texpr
  | TBinary of Ast.binop * texpr * texpr
  | TAssign of Ast.assign_op * texpr * texpr
  | TIncDec of Ast.incdec * Ast.fixity * texpr
  | TCond of texpr * texpr * texpr
  | TCast of Ast.cast_kind * Ast.type_expr * texpr * cast_safety
  | TField of field_access
  | TStaticField of string * string  (* defining class, field *)
  | TCall of call
  | TAddrOf of texpr
  | TFunAddr of Func_id.t
  | TMemPtr of string * string  (* &Z::m — defining class, member *)
  | TDeref of texpr
  | TIndex of texpr * texpr
  | TMemPtrDeref of texpr * texpr * bool  (* receiver, member ptr; true = ->* *)
  | TNewObj of { cls : string; ctor : Func_id.t; args : texpr list }
  | TNewScalar of Ast.type_expr
  | TNewArr of Ast.type_expr * texpr
  | TSizeofType of Ast.type_expr
  | TSizeofExpr of texpr

and field_access = {
  fa_obj : texpr;
  fa_arrow : bool;      (* [->] rather than [.] *)
  fa_qualified : bool;  (* [e.X::m] form *)
  fa_def_class : string;  (* class defining the member: Lookup result *)
  fa_field : string;
  fa_volatile : bool;
}

and call =
  | CFree of string * texpr list
  | CBuiltin of builtin * texpr list
  | CMethod of method_call
  | CFunPtr of texpr * texpr list

and method_call = {
  mc_recv : texpr;
  mc_arrow : bool;
  mc_dispatch : dispatch;
  mc_class : string;   (* class defining the statically-resolved target *)
  mc_name : string;
  mc_args : texpr list;
}

type tvar_init =
  | TInitNone  (* default-initialized; class types run the default ctor *)
  | TInitExpr of texpr
  | TInitCtor of Func_id.t * texpr list

type tvar_decl = {
  tv_name : string;
  tv_type : Ast.type_expr;
  tv_init : tvar_init;
  tv_loc : Ast.loc;
}

type tstmt = { ts : tstmt_desc; tsloc : Ast.loc }

and tstmt_desc =
  | TSExpr of texpr
  | TSDecl of tvar_decl list
  | TSBlock of tstmt list
  | TSIf of texpr * tstmt * tstmt option
  | TSWhile of texpr * tstmt
  | TSDoWhile of tstmt * texpr
  | TSFor of tstmt option * texpr option * texpr option * tstmt
  | TSReturn of texpr option
  | TSBreak
  | TSContinue
  | TSDelete of bool * texpr
  | TSEmpty

(* Resolved constructor initializers. *)
type base_init = { bi_class : string; bi_args : texpr list; bi_virtual : bool }
type field_init = { fi_field : string; fi_args : texpr list }

type tfunc = {
  tf_id : Func_id.t;
  tf_ret : Ast.type_expr;
  tf_params : (string * Ast.type_expr) list;
  tf_this : string option;  (* enclosing class for methods/ctors/dtors *)
  tf_virtual : bool;
  tf_base_inits : base_init list;   (* ctors: all direct + virtual bases *)
  tf_field_inits : field_init list; (* ctors: explicit field initializers *)
  tf_body : tstmt option;  (* None for synthesized default ctors/dtors *)
  tf_loc : Ast.loc;
}

type global = { g_name : string; g_type : Ast.type_expr; g_init : texpr option }

type program = {
  table : Class_table.t;
  funcs : tfunc FuncMap.t;
  globals : global list;  (* declaration order *)
  enum_consts : (string * int) list;
  n_exprs : int;  (* every [tid] is below it *)
}

let find_func p id = FuncMap.find_opt id p.funcs

let find_func_exn p id =
  match find_func p id with
  | Some f -> f
  | None -> Source.error "unknown function '%s'" (Func_id.to_string id)

let main_id = Func_id.FFree "main"

(* All functions, in map order (deterministic). *)
let all_funcs p = List.map snd (FuncMap.bindings p.funcs)

(* -- traversal helpers ----------------------------------------------------

   The liveness analysis and the call-graph builders both need "every
   expression that occurs in a function, including constructor
   initializers"; these folds centralize the walk. *)

let rec fold_expr f acc (e : texpr) =
  let acc = f acc e in
  match e.te with
  | TInt _ | TBool _ | TChar _ | TFloat _ | TStr _ | TNull | TLocal _
  | TGlobalVar _ | TEnumConst _ | TThis _ | TFunAddr _ | TMemPtr _
  | TSizeofType _ | TNewScalar _ ->
      acc
  | TUnary (_, a) | TIncDec (_, _, a) | TCast (_, _, a, _) | TAddrOf a
  | TDeref a | TSizeofExpr a ->
      fold_expr f acc a
  | TBinary (_, a, b) | TAssign (_, a, b) | TIndex (a, b)
  | TMemPtrDeref (a, b, _) ->
      fold_expr f (fold_expr f acc a) b
  | TCond (a, b, c) -> fold_expr f (fold_expr f (fold_expr f acc a) b) c
  | TField fa -> fold_expr f acc fa.fa_obj
  | TStaticField _ -> acc
  | TNewObj { args; _ } -> List.fold_left (fold_expr f) acc args
  | TNewArr (_, n) -> fold_expr f acc n
  | TCall (CFree (_, args)) | TCall (CBuiltin (_, args)) ->
      List.fold_left (fold_expr f) acc args
  | TCall (CMethod mc) ->
      List.fold_left (fold_expr f) (fold_expr f acc mc.mc_recv) mc.mc_args
  | TCall (CFunPtr (fn, args)) ->
      List.fold_left (fold_expr f) (fold_expr f acc fn) args

let rec fold_stmt f acc (s : tstmt) =
  match s.ts with
  | TSExpr e -> fold_expr f acc e
  | TSDecl ds ->
      List.fold_left
        (fun acc d ->
          match d.tv_init with
          | TInitNone -> acc
          | TInitExpr e -> fold_expr f acc e
          | TInitCtor (_, args) -> List.fold_left (fold_expr f) acc args)
        acc ds
  | TSBlock body -> List.fold_left (fold_stmt f) acc body
  | TSIf (c, t, e) ->
      let acc = fold_expr f acc c in
      let acc = fold_stmt f acc t in
      (match e with Some e -> fold_stmt f acc e | None -> acc)
  | TSWhile (c, b) -> fold_stmt f (fold_expr f acc c) b
  | TSDoWhile (b, c) -> fold_expr f (fold_stmt f acc b) c
  | TSFor (init, cond, step, b) ->
      let acc = match init with Some s -> fold_stmt f acc s | None -> acc in
      let acc = match cond with Some e -> fold_expr f acc e | None -> acc in
      let acc = match step with Some e -> fold_expr f acc e | None -> acc in
      fold_stmt f acc b
  | TSReturn (Some e) -> fold_expr f acc e
  | TSReturn None | TSBreak | TSContinue | TSEmpty -> acc
  | TSDelete (_, e) -> fold_expr f acc e

(* Fold over every expression occurring in a function: constructor base
   and field initializer arguments, then the body. *)
let fold_func_exprs f acc (fn : tfunc) =
  let acc =
    List.fold_left
      (fun acc bi -> List.fold_left (fold_expr f) acc bi.bi_args)
      acc fn.tf_base_inits
  in
  let acc =
    List.fold_left
      (fun acc fi -> List.fold_left (fold_expr f) acc fi.fi_args)
      acc fn.tf_field_inits
  in
  match fn.tf_body with Some b -> fold_stmt f acc b | None -> acc

(* Fold over every statement in a function's body. *)
let rec fold_stmts f acc (s : tstmt) =
  let acc = f acc s in
  match s.ts with
  | TSBlock body -> List.fold_left (fold_stmts f) acc body
  | TSIf (_, t, e) -> (
      let acc = fold_stmts f acc t in
      match e with Some e -> fold_stmts f acc e | None -> acc)
  | TSWhile (_, b) | TSDoWhile (b, _) -> fold_stmts f acc b
  | TSFor (init, _, _, b) ->
      let acc = match init with Some s -> fold_stmts f acc s | None -> acc in
      fold_stmts f acc b
  | TSExpr _ | TSDecl _ | TSReturn _ | TSBreak | TSContinue | TSDelete _
  | TSEmpty ->
      acc
