(* Pretty-printer for the MiniC++ AST.

   Produces valid MiniC++ source; used by tests to check the
   parse/print/parse round-trip and by the CLI's [--dump-ast] option. *)

open Ast

let unop_str = function Neg -> "-" | Not -> "!" | BitNot -> "~" | UPlus -> "+"

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Gt -> ">"
  | Le -> "<="
  | Ge -> ">="
  | LAnd -> "&&"
  | LOr -> "||"
  | BAnd -> "&"
  | BOr -> "|"
  | BXor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"

let assign_op_str = function
  | Assign -> "="
  | AddAssign -> "+="
  | SubAssign -> "-="
  | MulAssign -> "*="
  | DivAssign -> "/="
  | ModAssign -> "%="
  | AndAssign -> "&="
  | OrAssign -> "|="
  | XorAssign -> "^="
  | ShlAssign -> "<<="
  | ShrAssign -> ">>="

let escape_char = function
  | '\n' -> "\\n"
  | '\t' -> "\\t"
  | '\r' -> "\\r"
  | '\000' -> "\\0"
  | '\\' -> "\\\\"
  | '\'' -> "\\'"
  | c -> String.make 1 c

let escape_string s =
  String.concat ""
    (List.map
       (function '"' -> "\\\"" | c -> escape_char c)
       (List.init (String.length s) (String.get s)))

let rec pp_expr ppf e =
  match e.e with
  | IntLit n -> Fmt.int ppf n
  | BoolLit true -> Fmt.string ppf "true"
  | BoolLit false -> Fmt.string ppf "false"
  | CharLit c -> Fmt.pf ppf "'%s'" (escape_char c)
  | FloatLit f -> Fmt.pf ppf "%g" f
  | StrLit s -> Fmt.pf ppf "\"%s\"" (escape_string s)
  | NullLit -> Fmt.string ppf "NULL"
  | Ident x -> Fmt.string ppf x
  | This -> Fmt.string ppf "this"
  | Unary (op, e) -> Fmt.pf ppf "%s(%a)" (unop_str op) pp_expr e
  | Binary (op, a, b) ->
      Fmt.pf ppf "(%a %s %a)" pp_expr a (binop_str op) pp_expr b
  | AssignE (op, a, b) ->
      Fmt.pf ppf "(%a %s %a)" pp_expr a (assign_op_str op) pp_expr b
  | IncDec (Incr, Prefix, e) -> Fmt.pf ppf "(++%a)" pp_expr e
  | IncDec (Decr, Prefix, e) -> Fmt.pf ppf "(--%a)" pp_expr e
  | IncDec (Incr, Postfix, e) -> Fmt.pf ppf "(%a++)" pp_expr e
  | IncDec (Decr, Postfix, e) -> Fmt.pf ppf "(%a--)" pp_expr e
  | Cond (c, t, f) -> Fmt.pf ppf "(%a ? %a : %a)" pp_expr c pp_expr t pp_expr f
  | Cast (CStyle, t, e) -> Fmt.pf ppf "((%s)%a)" (type_to_string t) pp_expr e
  | Cast (StaticCast, t, e) ->
      Fmt.pf ppf "static_cast<%s>(%a)" (type_to_string t) pp_expr e
  | Cast (DynamicCast, t, e) ->
      Fmt.pf ppf "dynamic_cast<%s>(%a)" (type_to_string t) pp_expr e
  | Cast (ReinterpretCast, t, e) ->
      Fmt.pf ppf "reinterpret_cast<%s>(%a)" (type_to_string t) pp_expr e
  | Cast (ConstCast, t, e) ->
      Fmt.pf ppf "const_cast<%s>(%a)" (type_to_string t) pp_expr e
  | Call (f, args) -> Fmt.pf ppf "%a(%a)" pp_expr f pp_args args
  | Member (e, m) -> Fmt.pf ppf "%a.%s" pp_expr e m
  | Arrow (e, m) -> Fmt.pf ppf "%a->%s" pp_expr e m
  | QualMember (e, c, m) -> Fmt.pf ppf "%a.%s::%s" pp_expr e c m
  | QualArrow (e, c, m) -> Fmt.pf ppf "%a->%s::%s" pp_expr e c m
  | ScopedIdent (c, m) -> Fmt.pf ppf "%s::%s" c m
  | AddrOf e -> Fmt.pf ppf "(&%a)" pp_expr e
  | Deref e -> Fmt.pf ppf "(*%a)" pp_expr e
  | Index (e, i) -> Fmt.pf ppf "%a[%a]" pp_expr e pp_expr i
  | MemPtrDeref (r, p, false) -> Fmt.pf ppf "(%a.*%a)" pp_expr r pp_expr p
  | MemPtrDeref (r, p, true) -> Fmt.pf ppf "(%a->*%a)" pp_expr r pp_expr p
  | New (t, []) -> Fmt.pf ppf "new %s" (type_to_string t)
  | New (t, args) -> Fmt.pf ppf "new %s(%a)" (type_to_string t) pp_args args
  | NewArr (t, n) -> Fmt.pf ppf "new %s[%a]" (type_to_string t) pp_expr n
  | SizeofType t -> Fmt.pf ppf "sizeof(%s)" (type_to_string t)
  | SizeofExpr e -> Fmt.pf ppf "sizeof %a" pp_expr e

and pp_args ppf args = Fmt.(list ~sep:(any ", ") pp_expr) ppf args

(* [name] declared with type [t], in the declarator syntax the parser
   reads back: an array bound follows the name, and a function pointer's
   name sits in [( * )] ahead of its parameter types. Pointers,
   references and member pointers ([int A::* pm]) prefix the name. *)
let rec declarator t name =
  match t with
  | TArr (elt, n) -> declarator elt (Printf.sprintf "%s[%d]" name n)
  | TFun (ret, params) ->
      Printf.sprintf "%s (*%s)(%s)" (type_to_string ret) name
        (String.concat ", " (List.map type_to_string params))
  | _ -> Printf.sprintf "%s %s" (type_to_string t) name

let pp_var_decl ppf d =
  let decl = declarator d.v_type d.v_name in
  match d.v_init with
  | None -> Fmt.string ppf decl
  | Some (InitExpr e) -> Fmt.pf ppf "%s = %a" decl pp_expr e
  | Some (InitCtor args) -> Fmt.pf ppf "%s(%a)" decl pp_args args

let rec pp_stmt ind ppf st =
  let pad = String.make (2 * ind) ' ' in
  match st.s with
  | SExpr e -> Fmt.pf ppf "%s%a;" pad pp_expr e
  | SDecl ds ->
      Fmt.pf ppf "%s%a;" pad Fmt.(list ~sep:(any "; ") pp_var_decl) ds
  | SBlock body ->
      Fmt.pf ppf "%s{@\n%a@\n%s}" pad
        Fmt.(list ~sep:(any "@\n") (pp_stmt (ind + 1)))
        body pad
  | SIf (c, t, None) ->
      Fmt.pf ppf "%sif (%a)@\n%a" pad pp_expr c (pp_stmt (ind + 1)) t
  | SIf (c, t, Some e) ->
      Fmt.pf ppf "%sif (%a)@\n%a@\n%selse@\n%a" pad pp_expr c
        (pp_stmt (ind + 1))
        t pad
        (pp_stmt (ind + 1))
        e
  | SWhile (c, b) ->
      Fmt.pf ppf "%swhile (%a)@\n%a" pad pp_expr c (pp_stmt (ind + 1)) b
  | SDoWhile (b, c) ->
      Fmt.pf ppf "%sdo@\n%a@\n%swhile (%a);" pad (pp_stmt (ind + 1)) b pad
        pp_expr c
  | SFor (init, cond, step, b) ->
      let pp_init ppf = function
        | Some { s = SDecl ds; _ } ->
            Fmt.(list ~sep:(any ", ") pp_var_decl) ppf ds
        | Some { s = SExpr e; _ } -> pp_expr ppf e
        | Some _ | None -> ()
      in
      Fmt.pf ppf "%sfor (%a; %a; %a)@\n%a" pad pp_init init
        Fmt.(option pp_expr)
        cond
        Fmt.(option pp_expr)
        step
        (pp_stmt (ind + 1))
        b
  | SReturn None -> Fmt.pf ppf "%sreturn;" pad
  | SReturn (Some e) -> Fmt.pf ppf "%sreturn %a;" pad pp_expr e
  | SBreak -> Fmt.pf ppf "%sbreak;" pad
  | SContinue -> Fmt.pf ppf "%scontinue;" pad
  | SDelete (false, e) -> Fmt.pf ppf "%sdelete %a;" pad pp_expr e
  | SDelete (true, e) -> Fmt.pf ppf "%sdelete[] %a;" pad pp_expr e
  | SEmpty -> Fmt.pf ppf "%s;" pad

let pp_param ppf p = Fmt.string ppf (declarator p.p_type p.p_name)
let pp_params ppf ps = Fmt.(list ~sep:(any ", ") pp_param) ppf ps

(* a constructor's initializer list, [ : base(args), member(args)] *)
let pp_inits ppf = function
  | [] -> ()
  | inits ->
      let pp_init ppf (n, args) = Fmt.pf ppf "%s(%a)" n pp_args args in
      Fmt.pf ppf " : %a" Fmt.(list ~sep:(any ", ") pp_init) inits

let pp_method ppf (m : method_decl) =
  let mods =
    (if m.mt_virtual then "virtual " else "")
    ^ if m.mt_static then "static " else ""
  in
  let header ppf () =
    match m.mt_kind with
    | MethCtor -> Fmt.pf ppf "  %s(%a)" m.mt_name pp_params m.mt_params
    | MethDtor -> Fmt.pf ppf "  %s%s()" mods m.mt_name
    | MethNormal ->
        Fmt.pf ppf "  %s%s %s(%a)" mods
          (type_to_string m.mt_ret)
          m.mt_name pp_params m.mt_params
  in
  match m.mt_body with
  | None when m.mt_pure -> Fmt.pf ppf "%a = 0;" header ()
  | None -> Fmt.pf ppf "%a;" header ()
  | Some body ->
      Fmt.pf ppf "%a%a@\n%a" header () pp_inits m.mt_inits (pp_stmt 1) body

let pp_field ppf (f : field_decl) =
  Fmt.pf ppf "  %s%s%s;"
    (if f.fd_static then "static " else "")
    (if f.fd_volatile then "volatile " else "")
    (declarator f.fd_type f.fd_name)

let pp_class ppf (c : class_decl) =
  let pp_base ppf (b : base_spec) =
    Fmt.pf ppf "%s%s %s"
      (if b.b_virtual then "virtual " else "")
      (access_to_string b.b_access) b.b_name
  in
  let pp_bases ppf = function
    | [] -> ()
    | bs -> Fmt.pf ppf " : %a" Fmt.(list ~sep:(any ", ") pp_base) bs
  in
  let pp_member ppf = function
    | MField f -> pp_field ppf f
    | MMethod m -> pp_method ppf m
  in
  Fmt.pf ppf "%s %s%a {@\npublic:@\n%a@\n};"
    (class_kind_to_string c.cd_kind)
    c.cd_name pp_bases c.cd_bases
    Fmt.(list ~sep:(any "@\n") pp_member)
    c.cd_members

let pp_top ppf = function
  | TClass c -> pp_class ppf c
  | TFunc f -> (
      match f.fn_body with
      | None ->
          Fmt.pf ppf "%s %s(%a);" (type_to_string f.fn_ret) f.fn_name pp_params
            f.fn_params
      | Some body ->
          Fmt.pf ppf "%s %s(%a)@\n%a" (type_to_string f.fn_ret) f.fn_name
            pp_params f.fn_params (pp_stmt 0) body)
  | TMethodDef (cls, m) -> (
      let header ppf () =
        match m.mt_kind with
        | MethCtor -> Fmt.pf ppf "%s::%s(%a)" cls m.mt_name pp_params m.mt_params
        | MethDtor -> Fmt.pf ppf "%s::%s()" cls m.mt_name
        | MethNormal ->
            Fmt.pf ppf "%s %s::%s(%a)" (type_to_string m.mt_ret) cls m.mt_name
              pp_params m.mt_params
      in
      match m.mt_body with
      | None -> Fmt.pf ppf "%a;" header ()
      | Some body ->
          Fmt.pf ppf "%a%a@\n%a" header () pp_inits m.mt_inits (pp_stmt 0) body)
  | TGlobal d -> Fmt.pf ppf "%a;" pp_var_decl d
  | TEnum e ->
      let pp_item ppf (n, v) = Fmt.pf ppf "%s = %d" n v in
      Fmt.pf ppf "enum %s{ %a };"
        (match e.en_name with Some n -> n ^ " " | None -> "")
        Fmt.(list ~sep:(any ", ") pp_item)
        e.en_items

let pp_program ppf p = Fmt.(list ~sep:(any "@\n@\n") pp_top) ppf p
let program_to_string p = Fmt.str "%a" pp_program p
