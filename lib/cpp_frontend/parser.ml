(* Recursive-descent parser for MiniC++.

   The parser walks the token list produced by [Lexer.tokenize] in place:
   its cursor is the suffix of the list that starts at the current token,
   so a parse copies nothing. A pre-scan collects all
   class/struct/union/enum names so that the declaration-vs-expression
   ambiguity ([A * b;]) is resolved exactly, the way a real C++ frontend
   does with its symbol table. *)

module StringSet = Set.Make (String)

type state = {
  mutable rest : Token.spanned list;
      (* the current token and every later one; never advanced past the
         last token (EOF) *)
  mutable type_names : StringSet.t;
}

(* -- token-stream primitives --------------------------------------------- *)

let cur st =
  match st.rest with
  | t :: _ -> t
  | [] -> invalid_arg "Parser: empty token stream"

let cur_tok st = (cur st).Token.tok
let cur_span st = (cur st).Token.span

(* The token [n] places after the list's head, or EOF past its end. *)
let rec nth_tok toks n =
  match toks with
  | [] -> Token.EOF
  | t :: rest -> if n = 0 then t.Token.tok else nth_tok rest (n - 1)

let peek_tok st n = nth_tok st.rest n

let advance st =
  match st.rest with _ :: (_ :: _ as rest) -> st.rest <- rest | _ -> ()

let parse_error st fmt =
  Fmt.kstr (fun msg -> Source.error ~at:(cur_span st) "%s" msg) fmt

let expect st tok =
  if Token.equal (cur_tok st) tok then advance st
  else
    parse_error st "expected '%s' but found '%s'" (Token.to_string tok)
      (Token.to_string (cur_tok st))

let accept st tok =
  if Token.equal (cur_tok st) tok then begin
    advance st;
    true
  end
  else false

let expect_ident st =
  match cur_tok st with
  | Token.IDENT name ->
      advance st;
      name
  | t -> parse_error st "expected identifier but found '%s'" (Token.to_string t)

(* -- type recognition ---------------------------------------------------- *)

let is_type_name st name = StringSet.mem name st.type_names

let is_builtin_type_token = function
  | Token.KW_INT | Token.KW_LONG | Token.KW_SHORT | Token.KW_CHAR
  | Token.KW_BOOL | Token.KW_FLOAT | Token.KW_DOUBLE | Token.KW_VOID
  | Token.KW_UNSIGNED ->
      true
  | _ -> false

(* Does a type expression start at offset [n] from the cursor? *)
let type_starts_at st n =
  match peek_tok st n with
  | t when is_builtin_type_token t -> true
  | Token.KW_CONST | Token.KW_VOLATILE -> (
      match peek_tok st (n + 1) with
      | t when is_builtin_type_token t -> true
      | Token.IDENT name -> is_type_name st name
      | _ -> false)
  | Token.IDENT name -> is_type_name st name
  | Token.KW_CLASS | Token.KW_STRUCT | Token.KW_UNION -> true
  | _ -> false

(* Parse a base type: qualifiers + builtin or named type (no declarator). *)
let parse_base_type st : Ast.type_expr =
  while accept st Token.KW_CONST || accept st Token.KW_VOLATILE do
    ()
  done;
  let t =
    match cur_tok st with
    | Token.KW_VOID ->
        advance st;
        Ast.TVoid
    | Token.KW_BOOL ->
        advance st;
        Ast.TBool
    | Token.KW_CHAR ->
        advance st;
        Ast.TChar
    | Token.KW_INT ->
        advance st;
        Ast.TInt
    | Token.KW_SHORT ->
        advance st;
        ignore (accept st Token.KW_INT);
        Ast.TInt
    | Token.KW_LONG ->
        advance st;
        ignore (accept st Token.KW_LONG);
        ignore (accept st Token.KW_INT);
        Ast.TLong
    | Token.KW_UNSIGNED ->
        advance st;
        (* unsigned [int|char|long]: modelled as the underlying type *)
        (match cur_tok st with
        | Token.KW_CHAR ->
            advance st;
            Ast.TChar
        | Token.KW_LONG ->
            advance st;
            ignore (accept st Token.KW_INT);
            Ast.TLong
        | Token.KW_SHORT ->
            advance st;
            ignore (accept st Token.KW_INT);
            Ast.TInt
        | Token.KW_INT ->
            advance st;
            Ast.TInt
        | _ -> Ast.TInt)
    | Token.KW_FLOAT ->
        advance st;
        Ast.TFloat
    | Token.KW_DOUBLE ->
        advance st;
        Ast.TDouble
    | Token.KW_CLASS | Token.KW_STRUCT | Token.KW_UNION ->
        (* elaborated type specifier: [class T], [struct T] *)
        advance st;
        Ast.TNamed (expect_ident st)
    | Token.IDENT name when is_type_name st name ->
        advance st;
        Ast.TNamed name
    | t -> parse_error st "expected a type but found '%s'" (Token.to_string t)
  in
  (* trailing const: [char const] *)
  while accept st Token.KW_CONST || accept st Token.KW_VOLATILE do
    ()
  done;
  t

(* Pointer/reference suffixes of a declarator prefix: [T * * &], plus the
   pointer-to-member declarator [T C::* name]. *)
let parse_ptr_suffix st base =
  let rec go t =
    if
      (match (cur_tok st, peek_tok st 1, peek_tok st 2) with
      | Token.IDENT _, Token.COLONCOLON, Token.STAR -> true
      | _ -> false)
    then begin
      let cls = expect_ident st in
      expect st Token.COLONCOLON;
      expect st Token.STAR;
      go (Ast.TMemPtrTy (cls, t))
    end
    else if accept st Token.STAR then begin
      (* const/volatile after * applies to the pointer, ignored semantically *)
      while accept st Token.KW_CONST || accept st Token.KW_VOLATILE do
        ()
      done;
      go (Ast.TPtr t)
    end
    else if Token.equal (cur_tok st) Token.AMP then begin
      advance st;
      Ast.TRef t
    end
    else t
  in
  go base

let parse_type st : Ast.type_expr = parse_ptr_suffix st (parse_base_type st)

(* A parenthesized parameter-type list, [(int, A* own)]: a name after a
   type is allowed and dropped. *)
let parse_type_list st : Ast.type_expr list =
  expect st Token.LPAREN;
  if accept st Token.RPAREN then []
  else begin
    let rec go acc =
      let t = parse_type st in
      (match cur_tok st with Token.IDENT _ -> advance st | _ -> ());
      if accept st Token.COMMA then go (t :: acc)
      else begin
        expect st Token.RPAREN;
        List.rev (t :: acc)
      end
    in
    go []
  end

(* One declarator after its base type, the same in every position
   (field, local, global, parameter): pointer/reference/member-pointer
   suffixes, then either a function pointer [( * name)(types)] or a name
   with an optional array bound [name[8]]. A '(' after a bare name is
   left to the caller: it starts a function header, a function-typed
   parameter or a constructor-style initializer.

   [param] is the index of the parameter being read, for a parameter: it
   may omit its name (it becomes [_arg<param>]) and its array bound, as
   it decays to a pointer anyway. *)
let declarator ?param st base : string * Ast.type_expr =
  let t = parse_ptr_suffix st base in
  if Token.equal (cur_tok st) Token.LPAREN && Token.equal (peek_tok st 1) Token.STAR
  then begin
    advance st;
    advance st;
    let name = expect_ident st in
    expect st Token.RPAREN;
    (name, Ast.TFun (t, parse_type_list st))
  end
  else begin
    let name =
      match (cur_tok st, param) with
      | Token.IDENT _, _ | _, None -> expect_ident st
      | _, Some i -> Printf.sprintf "_arg%d" i
    in
    if accept st Token.LBRACKET then begin
      let n =
        match cur_tok st with
        | Token.INT_LIT n ->
            advance st;
            n
        | _ when Option.is_some param -> 0
        | _ -> parse_error st "array bound must be an integer literal"
      in
      expect st Token.RBRACKET;
      (name, Ast.TArr (t, n))
    end
    else (name, t)
  end

(* Whether a declarator is a name alone, with no array bound and not a
   function pointer: the one a '(' can extend into a function header. *)
let bare = function Ast.TArr _ | Ast.TFun _ -> false | _ -> true

(* The declarators after the first of a comma-separated list sharing
   [base]; [mk st loc d] reads what follows declarator [d] and builds the
   declaration. *)
let rec more_declarators st base mk acc =
  if accept st Token.COMMA then begin
    let loc = cur_span st in
    let d = declarator st base in
    more_declarators st base mk (mk st loc d :: acc)
  end
  else List.rev acc

(* -- expressions ---------------------------------------------------------- *)

let assign_op_of_token = function
  | Token.EQ -> Some Ast.Assign
  | Token.PLUSEQ -> Some Ast.AddAssign
  | Token.MINUSEQ -> Some Ast.SubAssign
  | Token.STAREQ -> Some Ast.MulAssign
  | Token.SLASHEQ -> Some Ast.DivAssign
  | Token.PERCENTEQ -> Some Ast.ModAssign
  | Token.AMPEQ -> Some Ast.AndAssign
  | Token.PIPEEQ -> Some Ast.OrAssign
  | Token.CARETEQ -> Some Ast.XorAssign
  | Token.SHLEQ -> Some Ast.ShlAssign
  | Token.SHREQ -> Some Ast.ShrAssign
  | _ -> None

(* binary operator precedence; higher binds tighter *)
let binop_of_token = function
  | Token.PIPEPIPE -> Some (Ast.LOr, 1)
  | Token.AMPAMP -> Some (Ast.LAnd, 2)
  | Token.PIPE -> Some (Ast.BOr, 3)
  | Token.CARET -> Some (Ast.BXor, 4)
  | Token.AMP -> Some (Ast.BAnd, 5)
  | Token.EQEQ -> Some (Ast.Eq, 6)
  | Token.BANGEQ -> Some (Ast.Ne, 6)
  | Token.LT -> Some (Ast.Lt, 7)
  | Token.GT -> Some (Ast.Gt, 7)
  | Token.LE -> Some (Ast.Le, 7)
  | Token.GE -> Some (Ast.Ge, 7)
  | Token.SHL -> Some (Ast.Shl, 8)
  | Token.SHR -> Some (Ast.Shr, 8)
  | Token.PLUS -> Some (Ast.Add, 9)
  | Token.MINUS -> Some (Ast.Sub, 9)
  | Token.STAR -> Some (Ast.Mul, 10)
  | Token.SLASH -> Some (Ast.Div, 10)
  | Token.PERCENT -> Some (Ast.Mod, 10)
  | _ -> None

(* Can this token begin a unary expression? *)
let starts_unary = function
  | Token.IDENT _ | Token.INT_LIT _ | Token.FLOAT_LIT _ | Token.CHAR_LIT _
  | Token.STRING_LIT _ | Token.LPAREN | Token.KW_THIS | Token.KW_NEW
  | Token.KW_SIZEOF | Token.KW_TRUE | Token.KW_FALSE | Token.KW_NULL
  | Token.BANG | Token.TILDE | Token.MINUS | Token.PLUS | Token.STAR
  | Token.AMP | Token.PLUSPLUS | Token.MINUSMINUS ->
      true
  | _ -> false

(* Is the parenthesized group starting at the current LPAREN a cast?
   True when the next token begins a type and the token after the matching
   RPAREN can begin a unary expression. *)
let looks_like_cast st =
  let rec after_close depth = function
    | [] -> false
    | { Token.tok = Token.LPAREN; _ } :: rest -> after_close (depth + 1) rest
    | { Token.tok = Token.RPAREN; _ } :: rest ->
        if depth = 1 then starts_unary (nth_tok rest 0)
        else after_close (depth - 1) rest
    | _ :: rest -> after_close depth rest
  in
  Token.equal (cur_tok st) Token.LPAREN
  && type_starts_at st 1
  && after_close 0 st.rest

let rec parse_expr st : Ast.expr = parse_assignment st

and parse_assignment st =
  let lhs = parse_conditional st in
  match assign_op_of_token (cur_tok st) with
  | Some op ->
      let loc = cur_span st in
      advance st;
      let rhs = parse_assignment st in
      Ast.mk_expr ~loc (Ast.AssignE (op, lhs, rhs))
  | None -> lhs

and parse_conditional st =
  let cond = parse_binary st 1 in
  if accept st Token.QUESTION then begin
    let then_e = parse_assignment st in
    expect st Token.COLON;
    let else_e = parse_assignment st in
    Ast.mk_expr ~loc:cond.Ast.eloc (Ast.Cond (cond, then_e, else_e))
  end
  else cond

and parse_binary st min_prec =
  let lhs = ref (parse_memptr_binding st) in
  let continue_ = ref true in
  while !continue_ do
    match binop_of_token (cur_tok st) with
    | Some (op, prec) when prec >= min_prec ->
        let loc = cur_span st in
        advance st;
        let rhs = parse_binary st (prec + 1) in
        lhs := Ast.mk_expr ~loc (Ast.Binary (op, !lhs, rhs))
    | Some _ | None -> continue_ := false
  done;
  !lhs

(* [.*] and [->*] bind tighter than binary operators but looser than
   postfix; C++ puts them between cast and multiplicative. *)
and parse_memptr_binding st =
  let lhs = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match cur_tok st with
    | Token.DOTSTAR ->
        let loc = cur_span st in
        advance st;
        let rhs = parse_unary st in
        lhs := Ast.mk_expr ~loc (Ast.MemPtrDeref (!lhs, rhs, false))
    | Token.ARROWSTAR ->
        let loc = cur_span st in
        advance st;
        let rhs = parse_unary st in
        lhs := Ast.mk_expr ~loc (Ast.MemPtrDeref (!lhs, rhs, true))
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary st =
  let loc = cur_span st in
  match cur_tok st with
  | Token.MINUS ->
      advance st;
      Ast.mk_expr ~loc (Ast.Unary (Ast.Neg, parse_unary st))
  | Token.PLUS ->
      advance st;
      Ast.mk_expr ~loc (Ast.Unary (Ast.UPlus, parse_unary st))
  | Token.BANG ->
      advance st;
      Ast.mk_expr ~loc (Ast.Unary (Ast.Not, parse_unary st))
  | Token.TILDE ->
      advance st;
      Ast.mk_expr ~loc (Ast.Unary (Ast.BitNot, parse_unary st))
  | Token.STAR ->
      advance st;
      Ast.mk_expr ~loc (Ast.Deref (parse_unary st))
  | Token.AMP ->
      advance st;
      Ast.mk_expr ~loc (Ast.AddrOf (parse_unary st))
  | Token.PLUSPLUS ->
      advance st;
      Ast.mk_expr ~loc (Ast.IncDec (Ast.Incr, Ast.Prefix, parse_unary st))
  | Token.MINUSMINUS ->
      advance st;
      Ast.mk_expr ~loc (Ast.IncDec (Ast.Decr, Ast.Prefix, parse_unary st))
  | Token.KW_SIZEOF ->
      advance st;
      if Token.equal (cur_tok st) Token.LPAREN && type_starts_at st 1 then begin
        expect st Token.LPAREN;
        let t = parse_type st in
        expect st Token.RPAREN;
        Ast.mk_expr ~loc (Ast.SizeofType t)
      end
      else begin
        let e = parse_unary st in
        Ast.mk_expr ~loc (Ast.SizeofExpr e)
      end
  | Token.KW_NEW ->
      advance st;
      let t = parse_type st in
      if accept st Token.LBRACKET then begin
        let n = parse_expr st in
        expect st Token.RBRACKET;
        Ast.mk_expr ~loc (Ast.NewArr (t, n))
      end
      else if accept st Token.LPAREN then begin
        let args = parse_args st in
        Ast.mk_expr ~loc (Ast.New (t, args))
      end
      else Ast.mk_expr ~loc (Ast.New (t, []))
  | Token.KW_STATIC_CAST | Token.KW_DYNAMIC_CAST | Token.KW_REINTERPRET_CAST
  | Token.KW_CONST_CAST ->
      let kind =
        match cur_tok st with
        | Token.KW_STATIC_CAST -> Ast.StaticCast
        | Token.KW_DYNAMIC_CAST -> Ast.DynamicCast
        | Token.KW_REINTERPRET_CAST -> Ast.ReinterpretCast
        | _ -> Ast.ConstCast
      in
      advance st;
      expect st Token.LT;
      let t = parse_type st in
      expect st Token.GT;
      expect st Token.LPAREN;
      let e = parse_expr st in
      expect st Token.RPAREN;
      Ast.mk_expr ~loc (Ast.Cast (kind, t, e))
  | Token.LPAREN when looks_like_cast st ->
      expect st Token.LPAREN;
      let t = parse_type st in
      expect st Token.RPAREN;
      let e = parse_unary st in
      Ast.mk_expr ~loc (Ast.Cast (Ast.CStyle, t, e))
  | _ -> parse_postfix st

and parse_args st =
  if accept st Token.RPAREN then []
  else begin
    let rec go acc =
      let e = parse_assignment st in
      if accept st Token.COMMA then go (e :: acc)
      else begin
        expect st Token.RPAREN;
        List.rev (e :: acc)
      end
    in
    go []
  end

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue_ = ref true in
  while !continue_ do
    let loc = cur_span st in
    match cur_tok st with
    | Token.DOT ->
        advance st;
        let name = expect_ident st in
        if accept st Token.COLONCOLON then begin
          let member = expect_ident st in
          e := Ast.mk_expr ~loc (Ast.QualMember (!e, name, member))
        end
        else e := Ast.mk_expr ~loc (Ast.Member (!e, name))
    | Token.ARROW ->
        advance st;
        let name = expect_ident st in
        if accept st Token.COLONCOLON then begin
          let member = expect_ident st in
          e := Ast.mk_expr ~loc (Ast.QualArrow (!e, name, member))
        end
        else e := Ast.mk_expr ~loc (Ast.Arrow (!e, name))
    | Token.LPAREN ->
        advance st;
        let args = parse_args st in
        e := Ast.mk_expr ~loc (Ast.Call (!e, args))
    | Token.LBRACKET ->
        advance st;
        let i = parse_expr st in
        expect st Token.RBRACKET;
        e := Ast.mk_expr ~loc (Ast.Index (!e, i))
    | Token.PLUSPLUS ->
        advance st;
        e := Ast.mk_expr ~loc (Ast.IncDec (Ast.Incr, Ast.Postfix, !e))
    | Token.MINUSMINUS ->
        advance st;
        e := Ast.mk_expr ~loc (Ast.IncDec (Ast.Decr, Ast.Postfix, !e))
    | _ -> continue_ := false
  done;
  !e

and parse_primary st =
  let loc = cur_span st in
  match cur_tok st with
  | Token.INT_LIT n ->
      advance st;
      Ast.mk_expr ~loc (Ast.IntLit n)
  | Token.FLOAT_LIT f ->
      advance st;
      Ast.mk_expr ~loc (Ast.FloatLit f)
  | Token.CHAR_LIT c ->
      advance st;
      Ast.mk_expr ~loc (Ast.CharLit c)
  | Token.STRING_LIT s ->
      advance st;
      Ast.mk_expr ~loc (Ast.StrLit s)
  | Token.KW_TRUE ->
      advance st;
      Ast.mk_expr ~loc (Ast.BoolLit true)
  | Token.KW_FALSE ->
      advance st;
      Ast.mk_expr ~loc (Ast.BoolLit false)
  | Token.KW_NULL ->
      advance st;
      Ast.mk_expr ~loc Ast.NullLit
  | Token.KW_THIS ->
      advance st;
      Ast.mk_expr ~loc Ast.This
  | Token.IDENT name ->
      advance st;
      if accept st Token.COLONCOLON then
        let member = expect_ident st in
        Ast.mk_expr ~loc (Ast.ScopedIdent (name, member))
      else Ast.mk_expr ~loc (Ast.Ident name)
  | Token.LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st Token.RPAREN;
      e
  | t -> parse_error st "unexpected token '%s' in expression" (Token.to_string t)

(* -- statements ----------------------------------------------------------- *)

(* A variable after its declarator: an optional [= expr] initializer, or
   in a body ([ctor_init]) a constructor-style [(args)] one after any
   declarator but a function pointer. *)
let var_decl st ~ctor_init loc (name, t) : Ast.var_decl =
  let init =
    if accept st Token.EQ then Some (Ast.InitExpr (parse_assignment st))
    else
      match t with
      | Ast.TFun _ -> None
      | _ ->
          if ctor_init && accept st Token.LPAREN then Some (Ast.InitCtor (parse_args st))
          else None
  in
  { Ast.v_name = name; v_type = t; v_init = init; v_loc = loc }

let local_var st loc d = var_decl st ~ctor_init:true loc d
let global_var st loc d = var_decl st ~ctor_init:false loc d

(* Does a declarator start at offset [n] from the cursor: pointer
   suffixes, then a name or [( * name ) ( types )]? *)
let rec declarator_at st n =
  match peek_tok st n with
  | Token.STAR | Token.AMP | Token.KW_CONST | Token.KW_VOLATILE -> declarator_at st (n + 1)
  | Token.IDENT _ -> true
  | Token.LPAREN ->
      Token.equal (peek_tok st (n + 1)) Token.STAR
      && (match peek_tok st (n + 2) with Token.IDENT _ -> true | _ -> false)
      && Token.equal (peek_tok st (n + 3)) Token.RPAREN
      && Token.equal (peek_tok st (n + 4)) Token.LPAREN
      && (Token.equal (peek_tok st (n + 5)) Token.RPAREN || type_starts_at st (n + 5))
  | _ -> false

(* A declaration statement begins with a type followed by a declarator:
   [T x], [T * x], [T & x], [T ( * f)(U)], but not [T * x = ...] parsed as
   multiplication because T is known to be a type name. *)
let starts_declaration st =
  match cur_tok st with
  | t when is_builtin_type_token t -> true
  | Token.KW_CONST | Token.KW_VOLATILE | Token.KW_STATIC -> true
  | Token.IDENT name when is_type_name st name -> (
      (* [A x], [A *x], [A &x], [A x(...)], [A *( * f)(int)]; but [A::m = 3],
         [a * b] or the call [A( * p)(x)] are expressions. *)
      match peek_tok st 1 with
      | Token.IDENT _ | Token.STAR | Token.AMP | Token.LPAREN -> declarator_at st 1
      | _ -> false)
  | _ -> false

let parse_var_decls st : Ast.var_decl list =
  ignore (accept st Token.KW_STATIC);
  let base = parse_base_type st in
  let loc = cur_span st in
  more_declarators st base local_var [ local_var st loc (declarator st base) ]

let rec parse_stmt st : Ast.stmt =
  let loc = cur_span st in
  match cur_tok st with
  | Token.LBRACE ->
      advance st;
      let rec go acc =
        if accept st Token.RBRACE then List.rev acc
        else go (parse_stmt st :: acc)
      in
      Ast.mk_stmt ~loc (Ast.SBlock (go []))
  | Token.SEMI ->
      advance st;
      Ast.mk_stmt ~loc Ast.SEmpty
  | Token.KW_IF ->
      advance st;
      expect st Token.LPAREN;
      let cond = parse_expr st in
      expect st Token.RPAREN;
      let then_s = parse_stmt st in
      let else_s = if accept st Token.KW_ELSE then Some (parse_stmt st) else None in
      Ast.mk_stmt ~loc (Ast.SIf (cond, then_s, else_s))
  | Token.KW_WHILE ->
      advance st;
      expect st Token.LPAREN;
      let cond = parse_expr st in
      expect st Token.RPAREN;
      let body = parse_stmt st in
      Ast.mk_stmt ~loc (Ast.SWhile (cond, body))
  | Token.KW_DO ->
      advance st;
      let body = parse_stmt st in
      expect st Token.KW_WHILE;
      expect st Token.LPAREN;
      let cond = parse_expr st in
      expect st Token.RPAREN;
      expect st Token.SEMI;
      Ast.mk_stmt ~loc (Ast.SDoWhile (body, cond))
  | Token.KW_FOR ->
      advance st;
      expect st Token.LPAREN;
      let init =
        if accept st Token.SEMI then None
        else begin
          let s =
            if starts_declaration st then begin
              let ds = parse_var_decls st in
              Ast.mk_stmt ~loc (Ast.SDecl ds)
            end
            else Ast.mk_stmt ~loc (Ast.SExpr (parse_expr st))
          in
          expect st Token.SEMI;
          Some s
        end
      in
      let cond =
        if accept st Token.SEMI then None
        else begin
          let e = parse_expr st in
          expect st Token.SEMI;
          Some e
        end
      in
      let step =
        if Token.equal (cur_tok st) Token.RPAREN then None
        else Some (parse_expr st)
      in
      expect st Token.RPAREN;
      let body = parse_stmt st in
      Ast.mk_stmt ~loc (Ast.SFor (init, cond, step, body))
  | Token.KW_RETURN ->
      advance st;
      if accept st Token.SEMI then Ast.mk_stmt ~loc (Ast.SReturn None)
      else begin
        let e = parse_expr st in
        expect st Token.SEMI;
        Ast.mk_stmt ~loc (Ast.SReturn (Some e))
      end
  | Token.KW_BREAK ->
      advance st;
      expect st Token.SEMI;
      Ast.mk_stmt ~loc Ast.SBreak
  | Token.KW_CONTINUE ->
      advance st;
      expect st Token.SEMI;
      Ast.mk_stmt ~loc Ast.SContinue
  | Token.KW_DELETE ->
      advance st;
      let arr =
        if accept st Token.LBRACKET then begin
          expect st Token.RBRACKET;
          true
        end
        else false
      in
      let e = parse_expr st in
      expect st Token.SEMI;
      Ast.mk_stmt ~loc (Ast.SDelete (arr, e))
  | _ ->
      if starts_declaration st then begin
        let ds = parse_var_decls st in
        expect st Token.SEMI;
        Ast.mk_stmt ~loc (Ast.SDecl ds)
      end
      else begin
        let e = parse_expr st in
        expect st Token.SEMI;
        Ast.mk_stmt ~loc (Ast.SExpr e)
      end

(* -- function headers and class members ------------------------------------ *)

(* A parameter's default value: parsed and dropped (callers in the
   benchmarks always pass all arguments). *)
let skip_default st = if accept st Token.EQ then ignore (parse_assignment st)

let parse_params st : Ast.param list =
  expect st Token.LPAREN;
  if accept st Token.RPAREN then []
  else if Token.equal (cur_tok st) Token.KW_VOID && Token.equal (peek_tok st 1) Token.RPAREN
  then begin
    advance st;
    advance st;
    []
  end
  else begin
    let rec go acc =
      let loc = cur_span st in
      let name, t = declarator st ~param:(List.length acc) (parse_base_type st) in
      (* a parameter decays: [T a[n]] to [T*], and [ret f(types)] to a
         function pointer *)
      let t =
        match t with
        | Ast.TFun _ -> t
        | Ast.TArr (elt, _) ->
            skip_default st;
            Ast.TPtr elt
        | _ when Token.equal (cur_tok st) Token.LPAREN -> Ast.TFun (t, parse_type_list st)
        | _ ->
            skip_default st;
            t
      in
      let p = { Ast.p_name = name; p_type = t; p_loc = loc } in
      if accept st Token.COMMA then go (p :: acc)
      else begin
        expect st Token.RPAREN;
        List.rev (p :: acc)
      end
    in
    go []
  end

let parse_ctor_inits st : (string * Ast.expr list) list =
  if accept st Token.COLON then begin
    let rec go acc =
      let name = expect_ident st in
      expect st Token.LPAREN;
      let args = parse_args st in
      if accept st Token.COMMA then go ((name, args) :: acc)
      else List.rev ((name, args) :: acc)
    in
    go []
  end
  else []

(* One function header after its name, in a class body or out of line:
   the parameters, a constructor's initializer list, then an optional
   [const] and a body, [;], or (in a class body only) [= 0;]. *)
let parse_method st ~loc ~in_class ~access ~virtual_ ~static kind name ret :
    Ast.method_decl =
  let params = parse_params st in
  if kind = Ast.MethDtor && params <> [] then
    Source.error ~at:loc "destructor cannot take parameters";
  let inits = if kind = Ast.MethCtor then parse_ctor_inits st else [] in
  ignore (accept st Token.KW_CONST);
  let pure, body =
    if Token.equal (cur_tok st) Token.EQ then begin
      if not in_class then parse_error st "pure-virtual specifier outside a class body";
      advance st;
      (match cur_tok st with
      | Token.INT_LIT 0 -> advance st
      | _ -> parse_error st "expected '0' in pure-virtual specifier");
      expect st Token.SEMI;
      (true, None)
    end
    else if Token.equal (cur_tok st) Token.LBRACE then (false, Some (parse_stmt st))
    else begin
      expect st Token.SEMI;
      (false, None)
    end
  in
  if pure && kind = Ast.MethCtor then Source.error ~at:loc "constructor cannot be pure virtual";
  {
    mt_name = name;
    mt_kind = kind;
    mt_ret = ret;
    mt_params = params;
    mt_virtual = virtual_;
    mt_static = static;
    mt_pure = pure;
    mt_inits = inits;
    mt_body = body;
    mt_access = access;
    mt_loc = loc;
  }

(* A constructor or destructor header of [cls], the cursor on the class
   name or the [~]. Neither may be [static], and a constructor may not
   be [virtual]. *)
let parse_ctor_dtor st ~loc ~in_class ~access ~virtual_ ~static cls :
    Ast.method_decl =
  let kind, name =
    if accept st Token.TILDE then begin
      let name = expect_ident st in
      if name <> cls then
        Source.error ~at:loc "destructor name ~%s does not match class %s" name cls;
      (Ast.MethDtor, "~" ^ cls)
    end
    else begin
      advance st;
      (Ast.MethCtor, cls)
    end
  in
  if static then
    Source.error ~at:loc "%s cannot be static"
      (if kind = Ast.MethCtor then "constructor" else "destructor");
  if virtual_ && kind = Ast.MethCtor then
    Source.error ~at:loc "constructor cannot be virtual";
  parse_method st ~loc ~in_class ~access ~virtual_ ~static:false kind name Ast.TVoid

let parse_member st ~class_name ~access : Ast.member_decl list =
  let loc = cur_span st in
  let virtual_ = ref false and static = ref false and volatile = ref false in
  let rec modifiers () =
    if accept st Token.KW_VIRTUAL then begin
      virtual_ := true;
      modifiers ()
    end
    else if accept st Token.KW_STATIC then begin
      static := true;
      modifiers ()
    end
    else if accept st Token.KW_VOLATILE then begin
      volatile := true;
      modifiers ()
    end
    else if accept st Token.KW_CONST then modifiers ()
  in
  modifiers ();
  let ctor_or_dtor =
    match cur_tok st with
    | Token.TILDE -> true
    | Token.IDENT name -> name = class_name && Token.equal (peek_tok st 1) Token.LPAREN
    | _ -> false
  in
  if ctor_or_dtor then
    [
      Ast.MMethod
        (parse_ctor_dtor st ~loc ~in_class:true ~access ~virtual_:!virtual_
           ~static:!static class_name);
    ]
  else begin
    let base = parse_base_type st in
    let name, t = declarator st base in
    if bare t && Token.equal (cur_tok st) Token.LPAREN then
      [
        Ast.MMethod
          (parse_method st ~loc ~in_class:true ~access ~virtual_:!virtual_ ~static:!static
             Ast.MethNormal name t);
      ]
    else begin
      let field _ loc (name, t) =
        Ast.MField
          {
            fd_name = name;
            fd_type = t;
            fd_volatile = !volatile;
            fd_static = !static;
            fd_access = access;
            fd_loc = loc;
          }
      in
      let fields = more_declarators st base field [ field st loc (name, t) ] in
      expect st Token.SEMI;
      fields
    end
  end

let parse_base_specs st : Ast.base_spec list =
  if accept st Token.COLON then begin
    let rec go acc =
      let loc = cur_span st in
      let virtual_ = ref false in
      let access = ref Ast.Private in
      let rec mods () =
        if accept st Token.KW_VIRTUAL then begin
          virtual_ := true;
          mods ()
        end
        else if accept st Token.KW_PUBLIC then begin
          access := Ast.Public;
          mods ()
        end
        else if accept st Token.KW_PRIVATE then begin
          access := Ast.Private;
          mods ()
        end
        else if accept st Token.KW_PROTECTED then begin
          access := Ast.Protected;
          mods ()
        end
      in
      mods ();
      let name = expect_ident st in
      let b =
        { Ast.b_name = name; b_virtual = !virtual_; b_access = !access; b_loc = loc }
      in
      if accept st Token.COMMA then go (b :: acc) else List.rev (b :: acc)
    in
    go []
  end
  else []

let parse_class st : Ast.class_decl =
  let loc = cur_span st in
  let kind =
    match cur_tok st with
    | Token.KW_CLASS -> Ast.Class
    | Token.KW_STRUCT -> Ast.Struct
    | Token.KW_UNION -> Ast.Union
    | _ -> assert false
  in
  advance st;
  let name = expect_ident st in
  st.type_names <- StringSet.add name st.type_names;
  let bases = parse_base_specs st in
  expect st Token.LBRACE;
  let default_access =
    match kind with Ast.Class -> Ast.Private | Ast.Struct | Ast.Union -> Ast.Public
  in
  let access = ref default_access in
  let rec members acc =
    if accept st Token.RBRACE then List.rev acc
    else
      match cur_tok st with
      | Token.KW_PUBLIC ->
          advance st;
          expect st Token.COLON;
          access := Ast.Public;
          members acc
      | Token.KW_PRIVATE ->
          advance st;
          expect st Token.COLON;
          access := Ast.Private;
          members acc
      | Token.KW_PROTECTED ->
          advance st;
          expect st Token.COLON;
          access := Ast.Protected;
          members acc
      | _ ->
          let ms = parse_member st ~class_name:name ~access:!access in
          members (List.rev_append ms acc)
  in
  let members = members [] in
  expect st Token.SEMI;
  { Ast.cd_name = name; cd_kind = kind; cd_bases = bases; cd_members = members; cd_loc = loc }

(* -- top-level ------------------------------------------------------------- *)

let parse_enum st : Ast.enum_decl =
  let loc = cur_span st in
  expect st Token.KW_ENUM;
  let name =
    match cur_tok st with
    | Token.IDENT n ->
        advance st;
        st.type_names <- StringSet.add n st.type_names;
        Some n
    | _ -> None
  in
  expect st Token.LBRACE;
  let next = ref 0 in
  let rec go acc =
    match cur_tok st with
    | Token.RBRACE ->
        advance st;
        List.rev acc
    | Token.IDENT item ->
        advance st;
        let v =
          if accept st Token.EQ then begin
            match cur_tok st with
            | Token.INT_LIT n ->
                advance st;
                n
            | Token.MINUS ->
                advance st;
                (match cur_tok st with
                | Token.INT_LIT n ->
                    advance st;
                    -n
                | _ -> parse_error st "expected integer in enumerator")
            | _ -> parse_error st "expected integer in enumerator"
          end
          else !next
        in
        next := v + 1;
        let acc = (item, v) :: acc in
        if accept st Token.COMMA then go acc
        else begin
          expect st Token.RBRACE;
          List.rev acc
        end
    | t -> parse_error st "unexpected '%s' in enum body" (Token.to_string t)
  in
  let items = go [] in
  expect st Token.SEMI;
  { Ast.en_name = name; en_items = items; en_loc = loc }

let parse_top st : Ast.top_decl list =
  let loc = cur_span st in
  match cur_tok st with
  | Token.KW_CLASS | Token.KW_STRUCT | Token.KW_UNION ->
      (* distinguish a class definition from an elaborated declaration
         like [class A;] (forward declaration: recorded as a type name) *)
      if
        (match peek_tok st 1 with Token.IDENT _ -> true | _ -> false)
        && Token.equal (peek_tok st 2) Token.SEMI
      then begin
        advance st;
        let name = expect_ident st in
        st.type_names <- StringSet.add name st.type_names;
        expect st Token.SEMI;
        []
      end
      else [ Ast.TClass (parse_class st) ]
  | Token.KW_ENUM -> [ Ast.TEnum (parse_enum st) ]
  | Token.KW_TYPEDEF ->
      (* [typedef T Alias;] — alias registered as a type name; the alias
         itself is resolved structurally by re-parsing, so we only support
         aliases of named/builtin types which we record as type names. *)
      parse_error st "typedef is not supported in MiniC++"
  | Token.IDENT cls
    when Token.equal (peek_tok st 1) Token.COLONCOLON
         && (match peek_tok st 2 with
            | Token.IDENT n -> n = cls
            | Token.TILDE -> true
            | _ -> false) ->
      (* out-of-line [Class::Class(params) : inits] or [Class::~Class()] *)
      advance st;
      advance st;
      [
        Ast.TMethodDef
          ( cls,
            parse_ctor_dtor st ~loc ~in_class:false ~access:Ast.Public
              ~virtual_:false ~static:false cls );
      ]
  | _ ->
      (* function / global / out-of-line method: starts with a type *)
      ignore (accept st Token.KW_STATIC);
      if not (type_starts_at st 0) then
        parse_error st "expected a declaration but found '%s'"
          (Token.to_string (cur_tok st));
      let base = parse_base_type st in
      let name, t = declarator st base in
      if bare t && accept st Token.COLONCOLON then begin
        (* out-of-line method [ret Class::method(params)] or static member
           definition [int Class::member;] *)
        let mname = expect_ident st in
        if Token.equal (cur_tok st) Token.LPAREN then
          [
            Ast.TMethodDef
              ( name,
                parse_method st ~loc ~in_class:false ~access:Ast.Public ~virtual_:false
                  ~static:false Ast.MethNormal mname t );
          ]
        else begin
          (* static data member definition: static members are
             zero-initialized, so an initializer is an error rather than a
             value the program would never see *)
          if Token.equal (cur_tok st) Token.EQ then
            parse_error st
              "static member '%s::%s' cannot have an initializer in MiniC++"
              name mname;
          expect st Token.SEMI;
          []
        end
      end
      else if bare t && Token.equal (cur_tok st) Token.LPAREN then begin
        let params = parse_params st in
        let body =
          if Token.equal (cur_tok st) Token.LBRACE then Some (parse_stmt st)
          else begin
            expect st Token.SEMI;
            None
          end
        in
        [ Ast.TFunc { fn_name = name; fn_ret = t; fn_params = params; fn_body = body; fn_loc = loc } ]
      end
      else begin
        (* global variable(s) *)
        let globals = more_declarators st base global_var [ global_var st loc (name, t) ] in
        expect st Token.SEMI;
        List.map (fun d -> Ast.TGlobal d) globals
      end

(* Pre-scan the token stream for type names so that declaration parsing can
   consult the complete set even for uses before the definition. *)
let prescan_type_names tokens =
  let rec go names = function
    | {
        Token.tok =
          Token.KW_CLASS | Token.KW_STRUCT | Token.KW_UNION | Token.KW_ENUM;
        _;
      }
      :: ({ Token.tok = Token.IDENT n; _ } :: _ as rest) ->
        go (StringSet.add n names) rest
    | _ :: rest -> go names rest
    | [] -> names
  in
  go StringSet.empty tokens

(* telemetry instruments (no-ops unless collection is enabled) *)
let decls_counter = Telemetry.Counter.make "parser.top_decls"
let sync_counter = Telemetry.Counter.make "parser.sync_recoveries"
let regions_counter = Telemetry.Counter.make "parser.unknown_regions"

let parse_tokens tokens : Ast.program =
  Telemetry.Span.with_ "parse" @@ fun () ->
  let st = { rest = tokens; type_names = prescan_type_names tokens } in
  let rec go acc =
    if Token.equal (cur_tok st) Token.EOF then List.rev acc
    else go (List.rev_append (parse_top st) acc)
  in
  let prog =
    try go []
    with Stack_overflow ->
      (* adversarial nesting depth: degrade to a diagnostic instead of a
         native crash *)
      Source.error ~at:(cur_span st) "declaration nesting is too deep to parse"
  in
  Telemetry.Counter.add decls_counter (List.length prog);
  prog

(* Parse a complete MiniC++ translation unit. *)
let parse ~file src : Ast.program = parse_tokens (Lexer.tokenize ~file src)

(* Parse a string, for tests and examples. *)
let parse_string ?(file = "<string>") src : Ast.program = parse ~file src

(* -- keep-going parsing with synchronization-point recovery ----------------

   After a syntax error the parser skips forward to a likely declaration
   boundary — a ';' or a closing '}' (followed by an optional ';') at
   brace depth 0, a top-level class/struct/union/enum keyword at depth 0,
   or EOF — and resumes, so one bad declaration no longer hides every
   later diagnostic. Depth counts from the start of the failed
   declaration: an error inside a class or function body skips to that
   body's closing '}', not to the next ';' inside it, unless a
   class/struct/union/enum keyword at the error's own depth shows that
   the body was never closed. The skipped tokens become an
   {!Source.unknown_region} whose identifier set feeds the analysis's
   conservative degradation. *)

let synchronize_top st ~depth:outer =
  let depth = ref outer in
  let stop = ref false in
  let consume () =
    match cur_tok st with
    | Token.LBRACE ->
        incr depth;
        advance st
    | Token.RBRACE ->
        if !depth > 0 then decr depth;
        advance st;
        if !depth = 0 then begin
          ignore (accept st Token.SEMI);
          stop := true
        end
    | Token.SEMI ->
        advance st;
        if !depth = 0 then stop := true
    | Token.EOF -> stop := true
    | _ -> advance st
  in
  (* always make progress, even when the error landed on a sync token *)
  consume ();
  while not !stop do
    match cur_tok st with
    | Token.EOF -> stop := true
    | (Token.KW_CLASS | Token.KW_STRUCT | Token.KW_UNION | Token.KW_ENUM)
      when !depth <= outer ->
        stop := true
    | _ -> consume ()
  done

(* The keep-going helpers below read the tokens [from, until): [from] is
   a cursor position (a suffix of the token list) and [until] a later
   one, a suffix of [from]. *)
let rec fold_between f acc ~from ~until =
  match from with
  | t :: rest when from != until ->
      fold_between f (f acc t.Token.tok) ~from:rest ~until
  | _ -> acc

(* The braces tokens [from, until) open and leave unclosed. *)
let open_braces ~from ~until =
  fold_between
    (fun depth -> function
      | Token.LBRACE -> depth + 1
      | Token.RBRACE -> if depth > 0 then depth - 1 else depth
      | _ -> depth)
    0 ~from ~until

(* Identifiers mentioned in tokens [from, until): the conservative
   reference set of a skipped region. *)
let idents_between ~from ~until =
  let seen = Hashtbl.create 8 in
  List.rev
    (fold_between
       (fun names -> function
         | Token.IDENT n when not (Hashtbl.mem seen n) ->
             Hashtbl.add seen n ();
             n :: names
         | _ -> names)
       [] ~from ~until)

(* From the first token of [from, until) to its last; just the first when
   the stretch is empty. *)
let span_between ~from ~until =
  let rec last t l =
    match l with u :: rest when l != until -> last u rest | _ -> t
  in
  match from with
  | first :: _ -> Source.join first.Token.span (last first from).Token.span
  | [] -> invalid_arg "Parser.span_between"

(* Keep-going entry point: lexes resiliently, recovers at declaration
   boundaries, and reports every syntax error through [diags]. *)
let parse_resilient ~diags ~file src :
    Ast.program * Source.unknown_region list =
  let tokens = Lexer.tokenize_resilient ~diags ~file src in
  Telemetry.Span.with_ "parse" @@ fun () ->
  let st = { rest = tokens; type_names = prescan_type_names tokens } in
  let regions = ref [] in
  let rec go acc =
    if Token.equal (cur_tok st) Token.EOF then List.rev acc
    else begin
      let start = st.rest in
      match parse_top st with
      | decls -> go (List.rev_append decls acc)
      | exception ((Source.Compile_error _ | Stack_overflow) as e) ->
          let what =
            match e with
            | Source.Compile_error d ->
                Source.Diagnostics.emit diags d;
                "unparsed declaration"
            | _ ->
                Source.Diagnostics.error diags ~at:(cur_span st)
                  "declaration nesting is too deep to parse";
                "over-deep declaration"
          in
          Telemetry.Counter.incr sync_counter;
          synchronize_top st ~depth:(open_braces ~from:start ~until:st.rest);
          regions :=
            {
              Source.ur_at = span_between ~from:start ~until:st.rest;
              ur_what = what;
              ur_refs = idents_between ~from:start ~until:st.rest;
            }
            :: !regions;
          go acc
    end
  in
  let prog = go [] in
  Telemetry.Counter.add decls_counter (List.length prog);
  Telemetry.Counter.add regions_counter (List.length !regions);
  (prog, List.rev !regions)
