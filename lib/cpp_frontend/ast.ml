(* Untyped abstract syntax for MiniC++.

   The subset is chosen so that every construct the dead-data-member
   algorithm of Sweeney & Tip (PLDI'98) treats specially is representable:
   member reads via [.], [->] and qualified variants, address-of on members,
   pointer-to-member expressions, unsafe casts, [sizeof], unions, [volatile]
   members, [delete]/[free], and virtual dispatch (which determines the
   call graph). *)

type loc = Source.span

type access = Public | Private | Protected

type class_kind = Class | Struct | Union

(* Type expressions as written in the source; resolution of [TNamed]
   against the class table happens in the sema library. *)
type type_expr =
  | TVoid
  | TBool
  | TChar
  | TInt
  | TLong
  | TFloat
  | TDouble
  | TNamed of string
  | TPtr of type_expr
  | TRef of type_expr
  | TArr of type_expr * int
  | TFun of type_expr * type_expr list  (* return, params: function pointers *)
  | TMemPtrTy of string * type_expr     (* int A::*pm — class, member type *)

type unop = Neg | Not | BitNot | UPlus

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Ne
  | Lt
  | Gt
  | Le
  | Ge
  | LAnd
  | LOr
  | BAnd
  | BOr
  | BXor
  | Shl
  | Shr

type assign_op =
  | Assign
  | AddAssign
  | SubAssign
  | MulAssign
  | DivAssign
  | ModAssign
  | AndAssign
  | OrAssign
  | XorAssign
  | ShlAssign
  | ShrAssign

type incdec = Incr | Decr
type fixity = Prefix | Postfix

type cast_kind = CStyle | StaticCast | DynamicCast | ReinterpretCast | ConstCast

type expr = { e : expr_desc; eloc : loc }

and expr_desc =
  | IntLit of int
  | BoolLit of bool
  | CharLit of char
  | FloatLit of float
  | StrLit of string
  | NullLit
  | Ident of string
  | This
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | AssignE of assign_op * expr * expr
  | IncDec of incdec * fixity * expr
  | Cond of expr * expr * expr
  | Cast of cast_kind * type_expr * expr
  | Call of expr * expr list
  | Member of expr * string               (* e.m *)
  | Arrow of expr * string                (* e->m *)
  | QualMember of expr * string * string  (* e.X::m *)
  | QualArrow of expr * string * string   (* e->X::m *)
  | ScopedIdent of string * string        (* X::m — static member or method *)
  | AddrOf of expr
  | Deref of expr
  | Index of expr * expr
  | MemPtrDeref of expr * expr * bool     (* receiver, ptr-to-member; true = ->* *)
  | New of type_expr * expr list          (* new T(args) *)
  | NewArr of type_expr * expr            (* new T[n] *)
  | SizeofType of type_expr
  | SizeofExpr of expr

type var_init = InitExpr of expr | InitCtor of expr list

type var_decl = {
  v_name : string;
  v_type : type_expr;
  v_init : var_init option;
  v_loc : loc;
}

type stmt = { s : stmt_desc; sloc : loc }

and stmt_desc =
  | SExpr of expr
  | SDecl of var_decl list
  | SBlock of stmt list
  | SIf of expr * stmt * stmt option
  | SWhile of expr * stmt
  | SDoWhile of stmt * expr
  | SFor of stmt option * expr option * expr option * stmt
  | SReturn of expr option
  | SBreak
  | SContinue
  | SDelete of bool * expr  (* true = delete[] *)
  | SEmpty

type param = { p_name : string; p_type : type_expr; p_loc : loc }

type method_kind = MethNormal | MethCtor | MethDtor

type method_decl = {
  mt_name : string;  (* for ctors the class name; for dtors "~" ^ class name *)
  mt_kind : method_kind;
  mt_ret : type_expr;
  mt_params : param list;
  mt_virtual : bool;
  mt_static : bool;
  mt_pure : bool;
  mt_inits : (string * expr list) list;  (* ctor initializer list *)
  mt_body : stmt option;                 (* None: defined out-of-line or extern *)
  mt_access : access;
  mt_loc : loc;
}

type field_decl = {
  fd_name : string;
  fd_type : type_expr;
  fd_volatile : bool;
  fd_static : bool;
  fd_access : access;
  fd_loc : loc;
}

type member_decl = MField of field_decl | MMethod of method_decl

type base_spec = {
  b_name : string;
  b_virtual : bool;
  b_access : access;
  b_loc : loc;
}

type class_decl = {
  cd_name : string;
  cd_kind : class_kind;
  cd_bases : base_spec list;
  cd_members : member_decl list;
  cd_loc : loc;
}

type func_decl = {
  fn_name : string;
  fn_ret : type_expr;
  fn_params : param list;
  fn_body : stmt option;
  fn_loc : loc;
}

type enum_decl = {
  en_name : string option;
  en_items : (string * int) list;  (* values assigned at parse time *)
  en_loc : loc;
}

type top_decl =
  | TClass of class_decl
  | TFunc of func_decl
  | TMethodDef of string * method_decl  (* class name, out-of-line definition *)
  | TGlobal of var_decl
  | TEnum of enum_decl

type program = top_decl list

(* Helpers --------------------------------------------------------------- *)

let mk_expr ?(loc = Source.dummy_span) e = { e; eloc = loc }
let mk_stmt ?(loc = Source.dummy_span) s = { s; sloc = loc }

(* The class name mentioned at the root of a type, looking through
   pointers, references and arrays. Used by [MarkAllContainedMembers]
   call sites that need "the class occurring in a type". *)
let rec named_root = function
  | TNamed n -> Some n
  | TPtr t | TRef t | TArr (t, _) -> named_root t
  | TVoid | TBool | TChar | TInt | TLong | TFloat | TDouble | TFun _
  | TMemPtrTy _ ->
      None

let top_decl_loc = function
  | TClass c -> c.cd_loc
  | TFunc f -> f.fn_loc
  | TMethodDef (_, m) -> m.mt_loc
  | TGlobal d -> d.v_loc
  | TEnum e -> e.en_loc

(* Conservative reference collection -------------------------------------

   Every name a syntactic fragment mentions: identifiers, member names,
   scope qualifiers, class names inside types. Keep-going recovery uses
   this to build the reference set of a declaration that failed to
   type-check, so the analysis can conservatively keep everything the
   broken code touches alive (the same treatment the paper gives unsafe
   casts). The walkers thread an [add : string -> unit] callback;
   {!collect_refs} wraps one into a dedup-in-first-mention-order list. *)

let rec add_type_refs add = function
  | TNamed n -> add n
  | TPtr t | TRef t | TArr (t, _) -> add_type_refs add t
  | TFun (r, ps) ->
      add_type_refs add r;
      List.iter (add_type_refs add) ps
  | TMemPtrTy (c, t) ->
      add c;
      add_type_refs add t
  | TVoid | TBool | TChar | TInt | TLong | TFloat | TDouble -> ()

let rec add_expr_refs add e =
  match e.e with
  | IntLit _ | BoolLit _ | CharLit _ | FloatLit _ | StrLit _ | NullLit | This
    ->
      ()
  | Ident n -> add n
  | Unary (_, e) | IncDec (_, _, e) | AddrOf e | Deref e | SizeofExpr e ->
      add_expr_refs add e
  | Binary (_, a, b) | AssignE (_, a, b) | Index (a, b)
  | MemPtrDeref (a, b, _) ->
      add_expr_refs add a;
      add_expr_refs add b
  | Cond (a, b, c) ->
      add_expr_refs add a;
      add_expr_refs add b;
      add_expr_refs add c
  | Cast (_, t, e) ->
      add_type_refs add t;
      add_expr_refs add e
  | Call (f, args) ->
      add_expr_refs add f;
      List.iter (add_expr_refs add) args
  | Member (e, m) | Arrow (e, m) ->
      add_expr_refs add e;
      add m
  | QualMember (e, c, m) | QualArrow (e, c, m) ->
      add_expr_refs add e;
      add c;
      add m
  | ScopedIdent (c, m) ->
      add c;
      add m
  | New (t, args) ->
      add_type_refs add t;
      List.iter (add_expr_refs add) args
  | NewArr (t, n) ->
      add_type_refs add t;
      add_expr_refs add n
  | SizeofType t -> add_type_refs add t

let add_var_refs add (d : var_decl) =
  add_type_refs add d.v_type;
  match d.v_init with
  | None -> ()
  | Some (InitExpr e) -> add_expr_refs add e
  | Some (InitCtor args) -> List.iter (add_expr_refs add) args

let rec add_stmt_refs add s =
  match s.s with
  | SExpr e -> add_expr_refs add e
  | SDecl ds -> List.iter (add_var_refs add) ds
  | SBlock ss -> List.iter (add_stmt_refs add) ss
  | SIf (c, t, e) ->
      add_expr_refs add c;
      add_stmt_refs add t;
      Option.iter (add_stmt_refs add) e
  | SWhile (c, b) ->
      add_expr_refs add c;
      add_stmt_refs add b
  | SDoWhile (b, c) ->
      add_stmt_refs add b;
      add_expr_refs add c
  | SFor (i, c, u, b) ->
      Option.iter (add_stmt_refs add) i;
      Option.iter (add_expr_refs add) c;
      Option.iter (add_expr_refs add) u;
      add_stmt_refs add b
  | SReturn e -> Option.iter (add_expr_refs add) e
  | SDelete (_, e) -> add_expr_refs add e
  | SBreak | SContinue | SEmpty -> ()

let add_method_refs add (m : method_decl) =
  add_type_refs add m.mt_ret;
  List.iter (fun p -> add_type_refs add p.p_type) m.mt_params;
  List.iter
    (fun (n, args) ->
      add n;
      List.iter (add_expr_refs add) args)
    m.mt_inits;
  Option.iter (add_stmt_refs add) m.mt_body

(* Run [f] with a dedup-ing [add]; the result keeps first-mention order. *)
let collect_refs (f : (string -> unit) -> unit) : string list =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let add n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      out := n :: !out
    end
  in
  f add;
  List.rev !out

let decl_refs (d : top_decl) : string list =
  collect_refs (fun add ->
      match d with
      | TClass c ->
          List.iter (fun (b : base_spec) -> add b.b_name) c.cd_bases;
          List.iter
            (function
              | MField f -> add_type_refs add f.fd_type
              | MMethod m -> add_method_refs add m)
            c.cd_members
      | TFunc f ->
          add_type_refs add f.fn_ret;
          List.iter (fun p -> add_type_refs add p.p_type) f.fn_params;
          Option.iter (add_stmt_refs add) f.fn_body
      | TMethodDef (cls, m) ->
          add cls;
          add_method_refs add m
      | TGlobal d -> add_var_refs add d
      | TEnum _ -> ())

let access_to_string = function
  | Public -> "public"
  | Private -> "private"
  | Protected -> "protected"

let class_kind_to_string = function
  | Class -> "class"
  | Struct -> "struct"
  | Union -> "union"

let rec type_to_string = function
  | TVoid -> "void"
  | TBool -> "bool"
  | TChar -> "char"
  | TInt -> "int"
  | TLong -> "long"
  | TFloat -> "float"
  | TDouble -> "double"
  | TNamed n -> n
  | TPtr t -> type_to_string t ^ "*"
  | TRef t -> type_to_string t ^ "&"
  | TArr (t, n) -> Printf.sprintf "%s[%d]" (type_to_string t) n
  | TFun (ret, params) ->
      Printf.sprintf "%s(*)(%s)" (type_to_string ret)
        (String.concat ", " (List.map type_to_string params))
  | TMemPtrTy (cls, t) -> Printf.sprintf "%s %s::*" (type_to_string t) cls

let rec type_equal a b =
  match (a, b) with
  | TVoid, TVoid
  | TBool, TBool
  | TChar, TChar
  | TInt, TInt
  | TLong, TLong
  | TFloat, TFloat
  | TDouble, TDouble ->
      true
  | TNamed x, TNamed y -> String.equal x y
  | TPtr x, TPtr y | TRef x, TRef y -> type_equal x y
  | TArr (x, n), TArr (y, m) -> n = m && type_equal x y
  | TFun (r1, p1), TFun (r2, p2) ->
      type_equal r1 r2
      && List.length p1 = List.length p2
      && List.for_all2 type_equal p1 p2
  | TMemPtrTy (c1, t1), TMemPtrTy (c2, t2) -> String.equal c1 c2 && type_equal t1 t2
  | ( ( TVoid | TBool | TChar | TInt | TLong | TFloat | TDouble | TNamed _
      | TPtr _ | TRef _ | TArr _ | TFun _ | TMemPtrTy _ ),
      _ ) ->
      false
