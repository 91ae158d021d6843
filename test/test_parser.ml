(* Parser tests: declarations, expressions, precedence, classes, and the
   print/reparse round-trip. *)

open Frontend

let parse = Util.parse

let parse_main_body src =
  match parse (Printf.sprintf "int main() { %s }" src) with
  | [ Ast.TFunc { fn_body = Some { s = Ast.SBlock body; _ }; _ } ] -> body
  | _ -> Alcotest.fail "expected main with a block body"

let parse_expr src =
  match parse_main_body (src ^ ";") with
  | [ { s = Ast.SExpr e; _ } ] -> e
  | _ -> Alcotest.fail "expected a single expression statement"

let expr_str src = Fmt.str "%a" Ast_printer.pp_expr (parse_expr src)

let check_expr name src printed =
  Util.check_string name printed (expr_str src)

let t_precedence_arith () =
  check_expr "mul binds tighter" "1 + 2 * 3" "(1 + (2 * 3))";
  check_expr "left assoc" "1 - 2 - 3" "((1 - 2) - 3)";
  check_expr "parens" "(1 + 2) * 3" "((1 + 2) * 3)"

let t_precedence_logic () =
  check_expr "and binds tighter than or" "a || b && c" "(a || (b && c))";
  check_expr "cmp under and" "a < b && c > d" "((a < b) && (c > d))";
  check_expr "shift under cmp" "a << 1 < b" "((a << 1) < b)"

let t_unary () =
  check_expr "neg" "-x" "-(x)";
  check_expr "not" "!x" "!(x)";
  check_expr "deref-member" "(*p).m" "(*p).m";
  check_expr "addr" "&x" "(&x)"

let t_assignment () =
  check_expr "assign right assoc" "a = b = c" "(a = (b = c))";
  check_expr "compound" "a += 2" "(a += 2)"

let t_ternary () = check_expr "ternary" "a ? b : c" "(a ? b : c)"

let t_member_access () =
  check_expr "dot chain" "a.b.c" "a.b.c";
  check_expr "arrow" "p->m" "p->m";
  check_expr "call on member" "a.f(1, 2)" "a.f(1, 2)";
  check_expr "index" "a[1]" "a[1]"

let t_qualified_access () =
  (* requires X to be a known type name *)
  let prog = parse "class X { public: int m; };\nint main() { X a; return a.X::m; }" in
  match prog with
  | [ _; Ast.TFunc { fn_body = Some { s = Ast.SBlock [ _; { s = Ast.SReturn (Some e); _ } ]; _ }; _ } ]
    -> (
      match e.Ast.e with
      | Ast.QualMember (_, "X", "m") -> ()
      | _ -> Alcotest.fail "expected qualified member access")
  | _ -> Alcotest.fail "unexpected program shape"

let t_ptr_to_member () =
  let prog =
    parse
      "class X { public: int m; };\nint main() { int X::*pm = &X::m; X a; return a.*pm; }"
  in
  match prog with
  | [ _; Ast.TFunc { fn_body = Some { s = Ast.SBlock stmts; _ }; _ } ] -> (
      match stmts with
      | [ { s = Ast.SDecl [ d ]; _ }; _; { s = Ast.SReturn (Some r); _ } ] -> (
          Util.check_bool "memptr type" true
            (match d.Ast.v_type with Ast.TMemPtrTy ("X", Ast.TInt) -> true | _ -> false);
          (match d.Ast.v_init with
          | Some (Ast.InitExpr { e = Ast.AddrOf { e = Ast.ScopedIdent ("X", "m"); _ }; _ }) -> ()
          | _ -> Alcotest.fail "expected &X::m initializer");
          match r.Ast.e with
          | Ast.MemPtrDeref (_, _, false) -> ()
          | _ -> Alcotest.fail "expected .* expression")
      | _ -> Alcotest.fail "unexpected statements")
  | _ -> Alcotest.fail "unexpected program shape"

let t_new_delete () =
  match
    parse
      "class X { public: X(int v) { } };\n\
       int main() { X *p = new X(1); delete p; int *a = new int[4]; delete[] a; return 0; }"
  with
  | [ _; Ast.TFunc { fn_body = Some { s = Ast.SBlock body; _ }; _ } ] ->
      Util.check_int "stmt count" 5 (List.length body)
  | _ -> Alcotest.fail "unexpected shape"

let t_cast_forms () =
  let prog =
    parse
      {|class X { public: int m; };
        int main() {
          X *p = new X();
          void *v = (void*)p;
          X *q = (X*)v;
          X *r = static_cast<X*>(v);
          X *s = dynamic_cast<X*>(q);
          return 0;
        }|}
  in
  Util.check_int "tops" 2 (List.length prog)

let t_sizeof () =
  check_expr "sizeof type" "sizeof(int)" "sizeof(int)";
  let prog = parse "class X { public: int m; };\nint main() { return sizeof(X); }" in
  Util.check_int "tops" 2 (List.length prog)

let t_class_with_bases () =
  match parse "class A { public: int x; };\nclass B : public A, private virtual A2 { };\nclass A2 { };" with
  | [ _; Ast.TClass b; _ ] ->
      (match b.Ast.cd_bases with
      | [ b1; b2 ] ->
          Util.check_bool "base1" true (b1.Ast.b_name = "A" && not b1.Ast.b_virtual);
          Util.check_bool "base2" true (b2.Ast.b_name = "A2" && b2.Ast.b_virtual)
      | _ -> Alcotest.fail "expected two bases")
  | _ -> Alcotest.fail "unexpected shape"

let t_access_sections () =
  match parse "class A { int priv; public: int pub; protected: int prot; };" with
  | [ Ast.TClass c ] ->
      let accesses =
        List.filter_map
          (function Ast.MField f -> Some (f.Ast.fd_name, f.Ast.fd_access) | _ -> None)
          c.Ast.cd_members
      in
      Alcotest.(check (list (pair string string)))
        "accesses"
        [ ("priv", "private"); ("pub", "public"); ("prot", "protected") ]
        (List.map (fun (n, a) -> (n, Ast.access_to_string a)) accesses)
  | _ -> Alcotest.fail "unexpected shape"

let t_struct_default_public () =
  match parse "struct S { int x; };" with
  | [ Ast.TClass c ] -> (
      match c.Ast.cd_members with
      | [ Ast.MField f ] ->
          Util.check_string "access" "public" (Ast.access_to_string f.Ast.fd_access)
      | _ -> Alcotest.fail "expected one field")
  | _ -> Alcotest.fail "unexpected shape"

let t_ctor_dtor () =
  match
    parse
      "class A { public: A(int x) : m(x) { } virtual ~A() { } int m; };"
  with
  | [ Ast.TClass c ] ->
      let kinds =
        List.filter_map
          (function Ast.MMethod m -> Some m.Ast.mt_kind | _ -> None)
          c.Ast.cd_members
      in
      Util.check_bool "ctor+dtor" true (kinds = [ Ast.MethCtor; Ast.MethDtor ])
  | _ -> Alcotest.fail "unexpected shape"

let t_pure_virtual () =
  match parse "class A { public: virtual int f() = 0; };" with
  | [ Ast.TClass c ] -> (
      match c.Ast.cd_members with
      | [ Ast.MMethod m ] ->
          Util.check_bool "pure" true (m.Ast.mt_pure && m.Ast.mt_virtual)
      | _ -> Alcotest.fail "expected one method")
  | _ -> Alcotest.fail "unexpected shape"

let t_out_of_line () =
  match
    parse
      "class A { public: A(); ~A(); int f(int x); int m; };\n\
       A::A() : m(0) { }\nA::~A() { }\nint A::f(int x) { return x + m; }"
  with
  | [ Ast.TClass _; Ast.TMethodDef ("A", c); Ast.TMethodDef ("A", d);
      Ast.TMethodDef ("A", f) ] ->
      Util.check_bool "kinds" true
        (c.Ast.mt_kind = Ast.MethCtor && d.Ast.mt_kind = Ast.MethDtor
        && f.Ast.mt_kind = Ast.MethNormal && f.Ast.mt_body <> None)
  | _ -> Alcotest.fail "unexpected shape"

(* [= 0] is a pure-virtual specifier only on a declaration in a class
   body: after an out-of-line header the parser rejects it, as it rejects
   [A() = 0;] in the class. *)
let t_out_of_line_pure () =
  let cls = "class A { public: A(); ~A(); virtual int f(); };\n" in
  List.iter
    (fun def ->
      Util.expect_error ~substr:"pure-virtual specifier outside a class body" (fun () ->
          parse (cls ^ def)))
    [ "A::A() = 0;"; "A::~A() = 0;"; "int A::f() = 0;"; "int A::f() const = 0;" ];
  Util.expect_error ~substr:"constructor cannot be pure virtual" (fun () ->
      parse "class A { public: A() = 0; };");
  match parse "class A { public: virtual ~A() = 0; virtual int f() const = 0; };" with
  | [ Ast.TClass { cd_members = [ Ast.MMethod d; Ast.MMethod f ]; _ } ] ->
      Util.check_bool "in-class pure" true (d.Ast.mt_pure && f.Ast.mt_pure)
  | _ -> Alcotest.fail "unexpected shape"

(* A constructor is never [virtual] and neither a constructor nor a
   destructor is [static], and an out-of-class static member definition
   has no initializer (static members are zero-initialized): each is an
   error at the member, not a flag or a value the parser drops. *)
let t_ctor_dtor_modifiers () =
  List.iter
    (fun (src, want) ->
      match Parser.parse_string ~file:"m.mcc" src with
      | exception Source.Compile_error d ->
          Util.check_string src want (Source.diagnostic_to_string d)
      | _ -> Alcotest.failf "%s: accepted" src)
    [
      ( "class A { public: virtual A() { } int x; };",
        "m.mcc:1:19-26: error: constructor cannot be virtual" );
      ( "class A { public: static A() { } int x; };",
        "m.mcc:1:19-25: error: constructor cannot be static" );
      ( "class A { public: A() { } static ~A() { } int x; };",
        "m.mcc:1:27-33: error: destructor cannot be static" );
      ( "class A { public: static int s; };\nint A::s = 5;",
        "m.mcc:2:10-11: error: static member 'A::s' cannot have an \
         initializer in MiniC++" );
    ]

(* Keep-going recovery from an error inside a class or function body
   resumes after that body's closing brace: the rest of the body is not
   re-read as top-level declarations, so the one error is the only
   diagnostic and [main] still parses. *)
let t_recovery_skips_body () =
  List.iter
    (fun (bad, want) ->
      let diags = Source.Diagnostics.create () in
      let prog, _ =
        Parser.parse_resilient ~diags ~file:"r.mcc"
          (bad ^ "\nint main() { return 0; }")
      in
      Alcotest.(check (list string))
        bad [ want ]
        (List.map Source.diagnostic_to_string (Source.Diagnostics.to_list diags));
      match prog with
      | [ Ast.TFunc { fn_name = "main"; _ } ] -> ()
      | _ -> Alcotest.failf "%s: main lost" bad)
    [
      ( "class A { public: A() = 0; int f(); };",
        "r.mcc:1:19-20: error: constructor cannot be pure virtual" );
      ( "class A { public: virtual A() { } static ~A() { } int x; };",
        "r.mcc:1:19-26: error: constructor cannot be virtual" );
      ( "int f(int x) { if (x) { x = x +; } return x; }",
        "r.mcc:1:32-33: error: unexpected token ';' in expression" );
    ]

(* Keep-going recovery's unknown regions on the corpus's syntax-error
   programs, pinned whole: each region's start and end line:col, what it
   stands for and the identifiers it mentions. [multi_error.mcc]'s errors
   are all semantic, so it parses without a region. *)
let t_recovery_regions_pinned () =
  let region (r : Source.unknown_region) =
    let s = r.ur_at in
    Printf.sprintf "%d:%d-%d:%d %s [%s]" s.start_line s.start_col s.end_line
      s.end_col r.ur_what (String.concat "; " r.ur_refs)
  in
  List.iter
    (fun (file, want) ->
      let diags = Source.Diagnostics.create () in
      let _, regions =
        Parser.parse_resilient ~diags ~file (Test_bytecode.corpus_source file)
      in
      Alcotest.(check (list string)) file want (List.map region regions))
    [
      ("missing_semi.mcc", [ "2:1-6:2 unparsed declaration [C; a; b]" ]);
      ("multi_error.mcc", []);
      ( "unbalanced_braces.mcc",
        [ "1:1-7:25 unparsed declaration [D; m; f; main]" ] );
    ]

let t_static_member_def () =
  match parse "class A { public: static int count; };\nint A::count;" with
  | [ Ast.TClass _ ] -> ()
  | _ -> Alcotest.fail "static member definition should not add a top decl"

let t_enum () =
  match parse "enum Color { RED, GREEN = 5, BLUE };" with
  | [ Ast.TEnum e ] ->
      Alcotest.(check (list (pair string int)))
        "items" [ ("RED", 0); ("GREEN", 5); ("BLUE", 6) ] e.Ast.en_items
  | _ -> Alcotest.fail "unexpected shape"

let t_globals () =
  match parse "int g = 3;\nint h, k = 4;" with
  | [ Ast.TGlobal _; Ast.TGlobal _; Ast.TGlobal _ ] -> ()
  | _ -> Alcotest.fail "expected three globals"

let t_control_flow () =
  let body =
    parse_main_body
      "if (x) { } else { } while (x) break; do { continue; } while (x); \
       for (int i = 0; i < 10; i++) { } return 0;"
  in
  Util.check_int "stmt count" 5 (List.length body)

let t_decl_vs_expr () =
  (* [A * b;] must be a declaration when A is a type, a multiplication
     when it is not *)
  let prog = parse "class A { };\nint main() { A * b; int A_; int c; return A_ * c; }" in
  match prog with
  | [ _; Ast.TFunc { fn_body = Some { s = Ast.SBlock (s1 :: _); _ }; _ } ] ->
      Util.check_bool "is decl" true
        (match s1.Ast.s with Ast.SDecl _ -> true | _ -> false)
  | _ -> Alcotest.fail "unexpected shape"

(* [A( * p)(x)] is a call when [x] cannot begin a parameter-type list; with
   one, or an empty list, it declares a function pointer. *)
let t_fn_ptr_decl_vs_call () =
  let is_decl src =
    match parse ("class A { };\nint main() { " ^ src ^ " }") with
    | [ _; Ast.TFunc { fn_body = Some { s = Ast.SBlock [ { s; _ } ]; _ }; _ } ] -> (
        match s with
        | Ast.SDecl _ -> true
        | Ast.SExpr _ -> false
        | _ -> Alcotest.fail "unexpected statement")
    | _ -> Alcotest.fail "unexpected shape"
  in
  Util.check_bool "call" false (is_decl "A(*p)(x);");
  Util.check_bool "call, one argument" false (is_decl "A(*p);");
  Util.check_bool "no parameters" true (is_decl "A(*p)();");
  Util.check_bool "class pointer result" true (is_decl "A *(*mk)(int, A*);")

let t_forward_decl () =
  match parse "class B;\nclass B { public: int x; };" with
  | [ Ast.TClass _ ] -> ()
  | _ -> Alcotest.fail "forward declaration should produce no top decl"

let t_parse_error_reports_location () =
  Util.expect_error ~substr:"expected" (fun () -> parse "int main( {")

let t_roundtrip_fig1 () =
  (* print then reparse: the reparse must succeed and preserve shape *)
  let src =
    "class A { public: virtual int f() { return m; } int m; };\n\
     int main() { A a; return a.f(); }"
  in
  let p1 = parse src in
  let printed = Ast_printer.program_to_string p1 in
  let p2 = parse printed in
  Util.check_int "same top count" (List.length p1) (List.length p2)

(* qcheck: random arithmetic expressions round-trip through the printer *)
let gen_expr =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then map (fun i -> Printf.sprintf "%d" i) (int_bound 99)
          else
            frequency
              [
                (1, map (fun i -> Printf.sprintf "%d" i) (int_bound 99));
                ( 2,
                  map2
                    (fun a b -> Printf.sprintf "(%s + %s)" a b)
                    (self (n / 2)) (self (n / 2)) );
                ( 2,
                  map2
                    (fun a b -> Printf.sprintf "(%s * %s)" a b)
                    (self (n / 2)) (self (n / 2)) );
                (1, map (fun a -> Printf.sprintf "(-%s)" a) (self (n - 1)));
              ])
        n)

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"parser expression print/reparse fixpoint" ~count:100
    (QCheck.make gen_expr)
    (fun src ->
      let e1 = parse_expr src in
      let printed = Fmt.str "%a" Ast_printer.pp_expr e1 in
      let e2 = parse_expr printed in
      let printed2 = Fmt.str "%a" Ast_printer.pp_expr e2 in
      printed = printed2)

(* qcheck: a declarator type drawn from the shapes the parser produces
   (scalar or class base; pointer, member-pointer and reference suffixes;
   at most one array bound; function pointers, class-pointer results
   included), printed as a field, a local, a global and a parameter,
   parses back to the same type in each; a parameter decays. *)
let gen_declarator_type =
  let open QCheck.Gen in
  let base = oneofl Ast.[ TInt; TLong; TChar; TBool; TFloat; TDouble; TNamed "A" ] in
  let suffixed =
    let* b = base in
    let* steps = list_size (int_bound 3) (oneofl [ `Ptr; `MemPtr ]) in
    let t =
      List.fold_left
        (fun t -> function `Ptr -> Ast.TPtr t | `MemPtr -> Ast.TMemPtrTy ("A", t))
        b steps
    in
    map (fun r -> if r then Ast.TRef t else t) (frequency [ (4, return false); (1, return true) ])
  in
  frequency
    [
      (3, suffixed);
      (2, map2 (fun t n -> Ast.TArr (t, n + 1)) suffixed (int_bound 7));
      (3, map2 (fun r ps -> Ast.TFun (r, ps)) suffixed (list_size (int_bound 3) suffixed));
    ]

(* (position, program declaring [d] there, the declared type) *)
let declarator_positions d =
  [
    ( "field",
      "struct S { " ^ d ^ "; };",
      function
      | [ _; Ast.TClass { cd_members = [ Ast.MField f ]; _ } ] -> Some f.Ast.fd_type
      | _ -> None );
    ( "local",
      "void f() { " ^ d ^ "; }",
      function
      | [ _; Ast.TFunc { fn_body = Some { s = Ast.SBlock [ { s = Ast.SDecl [ v ]; _ } ]; _ }; _ } ]
        ->
          Some v.Ast.v_type
      | _ -> None );
    ("global", d ^ ";", function [ _; Ast.TGlobal v ] -> Some v.Ast.v_type | _ -> None);
    ( "parameter",
      "void f(" ^ d ^ ");",
      function [ _; Ast.TFunc { fn_params = [ p ]; _ } ] -> Some p.Ast.p_type | _ -> None );
  ]

let prop_declarator_positions =
  QCheck.Test.make ~name:"a declarator parses back the same in every position" ~count:300
    (QCheck.make ~print:(fun t -> Ast_printer.declarator t "v") gen_declarator_type)
    (fun t ->
      List.for_all
        (fun (pos, src, declared) ->
          let expected =
            match (pos, t) with "parameter", Ast.TArr (elt, _) -> Ast.TPtr elt | _ -> t
          in
          match declared (parse ("class A { public: int m; };\n" ^ src)) with
          | Some t' when Ast.type_equal t' expected -> true
          | Some t' ->
              QCheck.Test.fail_reportf "%s: parsed as %s" pos (Ast_printer.declarator t' "v")
          | None -> QCheck.Test.fail_reportf "%s: unexpected shape" pos
          | exception Source.Compile_error d ->
              QCheck.Test.fail_reportf "%s: %s" pos (Source.diagnostic_to_string d))
        (declarator_positions (Ast_printer.declarator t "v")))

let suite =
  [
    Util.test "arithmetic precedence" t_precedence_arith;
    Util.test "logical precedence" t_precedence_logic;
    Util.test "unary operators" t_unary;
    Util.test "assignment" t_assignment;
    Util.test "ternary" t_ternary;
    Util.test "member access" t_member_access;
    Util.test "qualified member access" t_qualified_access;
    Util.test "pointer to member" t_ptr_to_member;
    Util.test "new and delete" t_new_delete;
    Util.test "cast forms" t_cast_forms;
    Util.test "sizeof" t_sizeof;
    Util.test "base class lists" t_class_with_bases;
    Util.test "access sections" t_access_sections;
    Util.test "struct default public" t_struct_default_public;
    Util.test "constructors and destructors" t_ctor_dtor;
    Util.test "pure virtual" t_pure_virtual;
    Util.test "out-of-line definitions" t_out_of_line;
    Util.test "= 0 after an out-of-line header" t_out_of_line_pure;
    Util.test "static member definition" t_static_member_def;
    Util.test "enum" t_enum;
    Util.test "globals" t_globals;
    Util.test "control flow statements" t_control_flow;
    Util.test "declaration vs expression" t_decl_vs_expr;
    Util.test "function-pointer declaration vs call" t_fn_ptr_decl_vs_call;
    Util.test "forward declarations" t_forward_decl;
    Util.test "parse errors located" t_parse_error_reports_location;
    Util.test "print/reparse round-trip" t_roundtrip_fig1;
    QCheck_alcotest.to_alcotest prop_expr_roundtrip;
    QCheck_alcotest.to_alcotest prop_declarator_positions;
    Util.test "constructor/destructor modifiers rejected" t_ctor_dtor_modifiers;
    Util.test "keep-going recovery skips the failed body" t_recovery_skips_body;
    Util.test "keep-going recovery regions pinned" t_recovery_regions_pinned;
  ]
