(* Semantic analysis tests: class table, member lookup, type checking. *)

open Sema

let table src = (Util.check_source src).Typed_ast.table

(* -- class table ------------------------------------------------------------ *)

let hierarchy_src =
  {|class A { public: int a; virtual int f() { return a; } };
    class B : public A { public: int b; int f() { return b; } };
    class C : public B { public: int c; };
    class V { public: int v; };
    class L : public virtual V { public: int l; };
    class R : public virtual V { public: int r; };
    class D : public L, public R { public: int d; };
    int main() { D x; C y; return x.d + y.f(); }|}

let t_bases () =
  let t = table hierarchy_src in
  Alcotest.(check (list string))
    "all bases of C" [ "A"; "B" ]
    (List.sort compare (Class_table.all_base_names t "C"));
  Alcotest.(check (list string))
    "all bases of D" [ "L"; "R"; "V" ]
    (List.sort compare (Class_table.all_base_names t "D"))

let t_virtual_bases () =
  let t = table hierarchy_src in
  Alcotest.(check (list string))
    "virtual bases of D" [ "V" ]
    (Class_table.virtual_base_names t "D");
  Alcotest.(check (list string))
    "virtual bases of C" []
    (Class_table.virtual_base_names t "C")

let t_is_base_of () =
  let t = table hierarchy_src in
  Util.check_bool "A base of C" true (Class_table.is_base_of t ~base:"A" ~derived:"C");
  Util.check_bool "C not base of A" false
    (Class_table.is_base_of t ~base:"C" ~derived:"A");
  Util.check_bool "V base of D" true (Class_table.is_base_of t ~base:"V" ~derived:"D")

let t_subclasses () =
  let t = table hierarchy_src in
  Alcotest.(check (list string))
    "subclasses of A" [ "B"; "C" ] (Class_table.subclasses t "A");
  Alcotest.(check (list string))
    "subclasses of V" [ "L"; "R"; "D" ] (Class_table.subclasses t "V");
  Alcotest.(check (list string)) "leaf" [] (Class_table.subclasses t "D");
  Alcotest.(check (list string)) "unknown" [] (Class_table.subclasses t "Nope")

(* qcheck: the subclass index equals the definition it replaced — a
   filter of every class by [is_strict_base_of], in declaration order —
   on random acyclic hierarchies with multiple and virtual bases,
   declared in an order unrelated to the hierarchy. Class [K<i>] may
   derive only from [K<j>], j < i, which keeps the graph acyclic. *)
let gen_hierarchy =
  QCheck.Gen.(
    int_range 1 10 >>= fun n ->
    let cls i =
      if i = 0 then return (0, [])
      else
        list_size (int_range 0 3) (pair (int_bound (i - 1)) bool)
        >|= fun bases ->
        ( i,
          List.sort_uniq (fun (a, _) (b, _) -> compare a b) bases )
    in
    flatten_l (List.init n cls) >>= shuffle_l)

let hierarchy_source classes =
  String.concat "\n"
    (List.map
       (fun (i, bases) ->
         let spec =
           match bases with
           | [] -> ""
           | _ ->
               " : "
               ^ String.concat ", "
                   (List.map
                      (fun (j, virt) ->
                        Printf.sprintf "public %sK%d"
                          (if virt then "virtual " else "") j)
                      bases)
         in
         Printf.sprintf "class K%d%s { public: int m%d; };" i spec i)
       classes)

let prop_subclass_index =
  QCheck.Test.make ~name:"subclass index = filter by is_strict_base_of"
    ~count:200
    (QCheck.make ~print:hierarchy_source gen_hierarchy)
    (fun classes ->
      let t = Class_table.of_program (Util.parse (hierarchy_source classes)) in
      let by_definition name =
        List.filter
          (fun (c : Class_table.cls) ->
            Class_table.is_strict_base_of t ~base:name ~derived:c.c_name)
          (Class_table.all_classes t)
        |> List.map (fun (c : Class_table.cls) -> c.c_name)
      in
      Class_table.subclasses t "Unknown" = []
      && List.for_all
           (fun name -> Class_table.subclasses t name = by_definition name)
           (Class_table.class_names t))

let t_implicit_virtual () =
  (* B::f overrides virtual A::f without the keyword: implicitly virtual *)
  let t = table hierarchy_src in
  let b = Class_table.find_exn t "B" in
  let f = List.find (fun (m : Class_table.method_info) -> m.m_name = "f") b.c_methods in
  Util.check_bool "B::f implicitly virtual" true f.m_virtual

let t_has_virtual_methods () =
  let t = table hierarchy_src in
  Util.check_bool "C inherits virtuals" true (Class_table.has_virtual_methods t "C");
  Util.check_bool "V has none" false (Class_table.has_virtual_methods t "V")

let t_duplicate_class () =
  Util.expect_error ~substr:"duplicate class" (fun () ->
      table "class A { };\nclass A { };\nint main() { return 0; }")

let t_duplicate_member () =
  Util.expect_error ~substr:"duplicate data member" (fun () ->
      table "class A { public: int x; int x; };\nint main() { return 0; }")

let t_unknown_base () =
  Util.expect_error ~substr:"unknown base" (fun () ->
      table "class A : public Nope { };\nint main() { return 0; }")

let t_inheritance_cycle () =
  Util.expect_error ~substr:"cycle" (fun () ->
      Class_table.of_program
        (Util.parse "class A;\nclass B : public A { };\nclass A : public B { };"))

let t_union_with_base () =
  Util.expect_error ~substr:"cannot have base" (fun () ->
      table "class A { };\nunion U : public A { };\nint main() { return 0; }")

(* -- member lookup ------------------------------------------------------------ *)

let t_lookup_own () =
  let t = table hierarchy_src in
  match Member_lookup.lookup_field t ~start:"C" ~name:"c" with
  | Member_lookup.Found ("C", _) -> ()
  | _ -> Alcotest.fail "expected C::c"

let t_lookup_inherited () =
  let t = table hierarchy_src in
  match Member_lookup.lookup_field t ~start:"C" ~name:"a" with
  | Member_lookup.Found ("A", _) -> ()
  | _ -> Alcotest.fail "expected A::a"

let t_lookup_hiding () =
  let src =
    {|class A { public: int m; };
      class B : public A { public: int m; };
      int main() { B b; return b.m; }|}
  in
  let t = table src in
  match Member_lookup.lookup_field t ~start:"B" ~name:"m" with
  | Member_lookup.Found ("B", _) -> ()
  | _ -> Alcotest.fail "derived member must hide the base member"

let t_lookup_virtual_base_shared () =
  (* the diamond with a virtual base: V::v reachable via two paths is ONE
     member, not ambiguous *)
  let t = table hierarchy_src in
  match Member_lookup.lookup_field t ~start:"D" ~name:"v" with
  | Member_lookup.Found ("V", _) -> ()
  | Member_lookup.Ambiguous _ -> Alcotest.fail "virtual base must not be ambiguous"
  | _ -> Alcotest.fail "expected V::v"

let t_lookup_ambiguous () =
  let src =
    {|class L { public: int m; };
      class R { public: int m; };
      class D : public L, public R { };
      int main() { D d; return 0; }|}
  in
  let t = table src in
  match Member_lookup.lookup_field t ~start:"D" ~name:"m" with
  | Member_lookup.Ambiguous ds ->
      Alcotest.(check (list string)) "both classes" [ "L"; "R" ] (List.sort compare ds)
  | _ -> Alcotest.fail "expected ambiguity"

let t_lookup_method_dispatch () =
  let t = table hierarchy_src in
  match Member_lookup.dispatch t ~dyn:"C" ~name:"f" with
  | Some ("B", _) -> ()  (* C inherits B's override *)
  | _ -> Alcotest.fail "expected dispatch to B::f"

let t_lookup_not_found () =
  let t = table hierarchy_src in
  match Member_lookup.lookup_field t ~start:"A" ~name:"nope" with
  | Member_lookup.NotFound -> ()
  | _ -> Alcotest.fail "expected NotFound"

(* -- type checking -------------------------------------------------------------- *)

let t_unknown_identifier () =
  Util.expect_error ~substr:"unknown identifier" (fun () ->
      Util.check_source "int main() { return nope; }")

let t_unknown_function () =
  Util.expect_error ~substr:"unknown function" (fun () ->
      Util.check_source "int main() { return f(); }")

let t_arity_mismatch () =
  Util.expect_error ~substr:"expects 2 arguments" (fun () ->
      Util.check_source "int f(int a, int b) { return a + b; }\nint main() { return f(1); }")

let t_no_main () =
  Util.expect_error ~substr:"no 'main'" (fun () ->
      Util.check_source "int f() { return 0; }")

(* C++ has no [--] on bool, and no [++] since C++17. Both engines used
   to run [b++] on a bool and print 2. The error is located at the
   operator, in strict and in keep-going mode; a bool still takes
   assignments and compound assignments. *)
let bool_steps_src =
  {|int up() { bool b = true; b++; print_int(b); return 0; }
int down() { bool b0 = true; print_int(b0--); return 0; }
int pre(bool& r) { return ++r; }
int main() { bool b = false; b = true; b += 1; b -= 1; int i = 0; i++; return b; }|}

let t_bool_steps_rejected () =
  let diags = Frontend.Source.Diagnostics.create () in
  ignore (Type_check.check_source_resilient ~file:"input" ~diags bool_steps_src);
  Alcotest.(check (list string))
    "each ++/-- on a bool reported where it is"
    [
      "input:1:28-30: error: operand of ++ must not be 'bool'";
      "input:2:42-44: error: operand of -- must not be 'bool'";
      "input:3:27-29: error: operand of ++ must not be 'bool'";
    ]
    (List.map Frontend.Source.diagnostic_to_string
       (Frontend.Source.Diagnostics.to_list diags));
  match Type_check.check_source ~file:"input" bool_steps_src with
  | _ -> Alcotest.fail "strict mode accepted ++ on a bool"
  | exception Frontend.Source.Compile_error d ->
      Alcotest.(check string)
        "strict mode stops at the first (functions go in name order)"
        "input:2:42-44: error: operand of -- must not be 'bool'"
        (Frontend.Source.diagnostic_to_string d)

(* -- scopes ---------------------------------------------------------------------- *)

(* Keep-going abandons a function at its first error, in the middle of
   its scopes; the locals it declared so far must not leak into the
   next function checked (free functions go in name order, then
   globals). *)
let t_scopes_reset_after_abandoned_function () =
  let diags = Frontend.Source.Diagnostics.create () in
  ignore
    (Type_check.check_source_resilient ~file:"input" ~diags
       {|int a_fail() { int leak = 1; { int deeper = 2; return nope; } }
int b_next() { int x = deeper; return leak; }
int main() { return 0; }
int z_fail() { int late = 3; return nope2; }
int g = late;|});
  Alcotest.(check (list string))
    "every unknown name reported where it is used"
    [
      "input:1:55-59: error: unknown identifier 'nope'";
      "input:2:24-30: error: unknown identifier 'deeper'";
      "input:4:37-42: error: unknown identifier 'nope2'";
      "input:5:9-13: error: unknown identifier 'late'";
    ]
    (List.map Frontend.Source.diagnostic_to_string
       (Frontend.Source.Diagnostics.to_list diags))

(* A shadow lives to the end of its block or [for] statement; the outer
   binding is back after it, and a later sibling block may declare the
   name again. *)
let t_scopes_shadow_undone () =
  ignore
    (Util.check_source
       {|int main() {
  int x = 1;
  { int* x = NULL; int* q = x; }
  { int* x = NULL; }
  for (int* x = NULL; x != NULL; ) { int* q = x; }
  int* p = &x;
  return x;
}|});
  Util.expect_error ~substr:"expected 'int*' but found 'int'" (fun () ->
      Util.check_source
        "int main() { int x = 1; { int* x = NULL; } int* p = x; return 0; }")

let t_scopes_redeclaration () =
  (match
     Util.check_source "int main() {\n  int a = 1;\n  int a = 2;\n  return a;\n}"
   with
  | exception Frontend.Source.Compile_error d ->
      Alcotest.(check string)
        "message and location"
        "<string>:3:7-8: error: redeclaration of 'a' in the same scope"
        (Frontend.Source.diagnostic_to_string d)
  | _ -> Alcotest.fail "a same-scope redeclaration must be rejected");
  ignore
    (Util.check_source
       "int main() { int a = 1; { int a = 2; } for (int a = 0; a < 1; a++) { \
        int a = 3; } return a; }")

let t_member_on_nonclass () =
  Util.expect_error ~substr:"non-class" (fun () ->
      Util.check_source "int main() { int x; return x.m; }")

let t_assign_to_rvalue () =
  Util.expect_error ~substr:"not an lvalue" (fun () ->
      Util.check_source "int main() { 1 = 2; return 0; }")

let t_no_object_assignment () =
  Util.expect_error ~substr:"whole-object assignment" (fun () ->
      Util.check_source
        "class A { public: int x; };\nint main() { A a; A b; a = b; return 0; }")

let t_no_class_by_value_param () =
  Util.expect_error ~substr:"by value" (fun () ->
      Util.check_source
        "class A { public: int x; };\nint f(A a) { return 0; }\nint main() { return 0; }")

let t_implicit_this_member () =
  (* an unqualified name inside a method resolves to the field *)
  let prog =
    Util.check_source
      "class A { public: int m; int get() { return m; } };\n\
       int main() { A a; return a.get(); }"
  in
  let fn = Typed_ast.find_func_exn prog (Typed_ast.Func_id.FMethod ("A", "get")) in
  let found = ref false in
  ignore
    (Typed_ast.fold_func_exprs
       (fun () (e : Typed_ast.texpr) ->
         match e.te with
         | Typed_ast.TField { fa_def_class = "A"; fa_field = "m"; _ } -> found := true
         | _ -> ())
       () fn);
  Util.check_bool "resolved to field" true !found

let t_ctor_resolution_by_arity () =
  let prog =
    Util.check_source
      "class A { public: A() { } A(int x) { } };\n\
       int main() { A a; A b(1); A *c = new A(2); delete c; return 0; }"
  in
  Util.check_bool "both ctors exist" true
    (Typed_ast.find_func prog (Typed_ast.Func_id.FCtor ("A", 0)) <> None
    && Typed_ast.find_func prog (Typed_ast.Func_id.FCtor ("A", 1)) <> None)

let t_missing_ctor_arity () =
  Util.expect_error ~substr:"no constructor taking 2" (fun () ->
      Util.check_source
        "class A { public: A(int x) { } };\nint main() { A a(1, 2); return 0; }")

let t_synthesized_default_ctor_dtor () =
  let prog =
    Util.check_source "class A { public: int x; };\nint main() { A a; return a.x; }"
  in
  Util.check_bool "ctor and dtor synthesized" true
    (Typed_ast.find_func prog (Typed_ast.Func_id.FCtor ("A", 0)) <> None
    && Typed_ast.find_func prog (Typed_ast.Func_id.FDtor "A") <> None)

let t_qualified_call_is_static () =
  let prog =
    Util.check_source
      {|class A { public: virtual int f() { return 1; } };
        class B : public A { public: int f() { return A::f() + 1; } };
        int main() { B b; return b.A::f(); }|}
  in
  let main = Typed_ast.find_func_exn prog Typed_ast.main_id in
  let dispatches = ref [] in
  ignore
    (Typed_ast.fold_func_exprs
       (fun () (e : Typed_ast.texpr) ->
         match e.te with
         | Typed_ast.TCall (Typed_ast.CMethod mc) ->
             dispatches := mc.mc_dispatch :: !dispatches
         | _ -> ())
       () main);
  Util.check_bool "qualified call is static" true
    (!dispatches = [ Typed_ast.DStatic ])

let t_cast_classification () =
  let prog =
    Util.check_source
      {|class A { public: int a; };
        class B : public A { public: int b; };
        class X { public: int x; };
        int main() {
          B b;
          A *up = &b;           // upcast: safe
          B *down = (B*)up;     // downcast: unsafe
          X *cross = (X*)up;    // cross-cast: unsafe
          void *v = (void*)up;  // to void*: safe
          return 0;
        }|}
  in
  let main = Typed_ast.find_func_exn prog Typed_ast.main_id in
  let safeties = ref [] in
  ignore
    (Typed_ast.fold_func_exprs
       (fun () (e : Typed_ast.texpr) ->
         match e.te with
         | Typed_ast.TCast (_, _, _, s) -> safeties := s :: !safeties
         | _ -> ())
       () main);
  let has p = List.exists p !safeties in
  Util.check_bool "downcast classified" true
    (has (function Typed_ast.CastUnsafeDowncast "A" -> true | _ -> false));
  Util.check_bool "cross-cast classified" true
    (has (function Typed_ast.CastUnsafeOther (Some "A") -> true | _ -> false));
  Util.check_bool "void* cast safe" true
    (has (function Typed_ast.CastSafe -> true | _ -> false))

let t_enum_constants () =
  let prog =
    Util.check_source "enum { A = 3, B };\nint main() { return A + B; }"
  in
  Alcotest.(check (list (pair string int)))
    "enum values" [ ("A", 3); ("B", 4) ] prog.Typed_ast.enum_consts

let t_volatile_flag () =
  let prog =
    Util.check_source
      "class A { public: volatile int v; };\nint main() { A a; a.v = 1; return 0; }"
  in
  let main = Typed_ast.find_func_exn prog Typed_ast.main_id in
  let found = ref false in
  ignore
    (Typed_ast.fold_func_exprs
       (fun () (e : Typed_ast.texpr) ->
         match e.te with
         | Typed_ast.TField { fa_volatile = true; fa_field = "v"; _ } -> found := true
         | _ -> ())
       () main);
  Util.check_bool "volatile recorded" true !found

let t_function_pointer () =
  let prog =
    Util.check_source
      "int inc(int x) { return x + 1; }\n\
       int apply(int f(int), int v) { return f(v); }\n\
       int main() { return apply(inc, 41); }"
  in
  ignore prog

let t_reference_param () =
  ignore
    (Util.check_source
       "void bump(int &x) { x = x + 1; }\nint main() { int v = 1; bump(v); return v; }")

let suite =
  [
    Util.test "transitive bases" t_bases;
    Util.test "virtual bases" t_virtual_bases;
    Util.test "is_base_of" t_is_base_of;
    Util.test "subclasses" t_subclasses;
    Util.test "implicit virtual override" t_implicit_virtual;
    Util.test "has_virtual_methods" t_has_virtual_methods;
    Util.test "duplicate class rejected" t_duplicate_class;
    Util.test "duplicate member rejected" t_duplicate_member;
    Util.test "unknown base rejected" t_unknown_base;
    Util.test "inheritance cycle rejected" t_inheritance_cycle;
    Util.test "union with base rejected" t_union_with_base;
    Util.test "lookup: own member" t_lookup_own;
    Util.test "lookup: inherited member" t_lookup_inherited;
    Util.test "lookup: hiding" t_lookup_hiding;
    Util.test "lookup: shared virtual base" t_lookup_virtual_base_shared;
    Util.test "lookup: ambiguity" t_lookup_ambiguous;
    Util.test "lookup: dynamic dispatch" t_lookup_method_dispatch;
    Util.test "lookup: not found" t_lookup_not_found;
    Util.test "unknown identifier" t_unknown_identifier;
    Util.test "unknown function" t_unknown_function;
    Util.test "arity mismatch" t_arity_mismatch;
    Util.test "missing main" t_no_main;
    Util.test "++/-- on a bool rejected" t_bool_steps_rejected;
    Util.test "scopes: an abandoned function leaks no locals"
      t_scopes_reset_after_abandoned_function;
    Util.test "scopes: a shadow ends with its block" t_scopes_shadow_undone;
    Util.test "scopes: same-scope redeclaration rejected, nested accepted"
      t_scopes_redeclaration;
    Util.test "member access on non-class" t_member_on_nonclass;
    Util.test "assignment to rvalue" t_assign_to_rvalue;
    Util.test "no whole-object assignment" t_no_object_assignment;
    Util.test "no class-by-value parameters" t_no_class_by_value_param;
    Util.test "implicit this->member" t_implicit_this_member;
    Util.test "ctor resolution by arity" t_ctor_resolution_by_arity;
    Util.test "missing ctor arity" t_missing_ctor_arity;
    Util.test "synthesized default ctor/dtor" t_synthesized_default_ctor_dtor;
    Util.test "qualified calls are static" t_qualified_call_is_static;
    Util.test "cast classification" t_cast_classification;
    Util.test "enum constants" t_enum_constants;
    Util.test "volatile flag threaded" t_volatile_flag;
    Util.test "function pointers" t_function_pointer;
    Util.test "reference parameters" t_reference_param;
    QCheck_alcotest.to_alcotest prop_subclass_index;
  ]
