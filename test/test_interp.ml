(* Interpreter tests: evaluation semantics, object lifecycle, dispatch,
   and observable output. *)

let run = Util.run

let ret src = (run src).Runtime.Interp.return_value
let out src = (run src).Runtime.Interp.output

let main_ret body = ret (Printf.sprintf "int main() { %s }" body)

let t_arithmetic () =
  Util.check_int "add/mul" 14 (main_ret "return 2 + 3 * 4;");
  Util.check_int "div" 3 (main_ret "return 10 / 3;");
  Util.check_int "mod" 1 (main_ret "return 10 % 3;");
  Util.check_int "neg" (-5) (main_ret "return -5;");
  Util.check_int "bitops" 6 (main_ret "return (12 & 7) | 2;");
  Util.check_int "shift" 40 (main_ret "return 5 << 3;")

let t_comparison_logic () =
  Util.check_int "lt" 1 (main_ret "return 1 < 2;");
  Util.check_int "and short-circuit" 0
    (main_ret "int x = 0; if (x != 0 && 1 / x > 0) return 1; return 0;");
  Util.check_int "or short-circuit" 1
    (main_ret "int x = 0; if (x == 0 || 1 / x > 0) return 1; return 0;")

let t_floats () =
  Util.check_int "float arith truncation" 7
    (main_ret "double d = 2.5; d = d * 3.0; return (int)d;")

let t_control_flow () =
  Util.check_int "while" 45 (main_ret "int s = 0; int i = 0; while (i < 10) { s += i; i++; } return s;");
  Util.check_int "for" 45 (main_ret "int s = 0; for (int i = 0; i < 10; i++) s += i; return s;");
  Util.check_int "do-while" 1 (main_ret "int n = 0; do { n++; } while (n < 1); return n;");
  Util.check_int "break" 5 (main_ret "int i = 0; while (1) { if (i == 5) break; i++; } return i;");
  Util.check_int "continue" 25
    (main_ret
       "int s = 0; for (int i = 0; i < 10; i++) { if (i % 2 == 0) continue; s += i; } return s;");
  Util.check_int "ternary" 2 (main_ret "return 1 < 2 ? 2 : 3;")

let t_functions () =
  Util.check_int "call" 7
    (ret "int add(int a, int b) { return a + b; }\nint main() { return add(3, 4); }");
  Util.check_int "recursion" 120
    (ret "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }\nint main() { return fact(5); }")

let t_reference_params () =
  Util.check_int "reference out-param" 2
    (ret "void bump(int &x) { x = x + 1; }\nint main() { int v = 1; bump(v); return v; }");
  Util.check_int "reference to member" 5
    (ret
       "class A { public: int m; };\nvoid set(int &x, int v) { x = v; }\n\
        int main() { A a; set(a.m, 5); return a.m; }")

let t_pointers () =
  Util.check_int "address and deref" 9
    (main_ret "int x = 4; int *p = &x; *p = 9; return x;");
  Util.check_int "pointer arithmetic" 30
    (main_ret
       "int a[3]; a[0] = 10; a[1] = 20; a[2] = 30; int *p = a; p = p + 2; return *p;");
  Util.check_int "null checks" 1 (main_ret "int *p = NULL; if (p == NULL) return 1; return 0;")

let t_arrays () =
  Util.check_int "local array" 6
    (main_ret "int a[3]; a[0] = 1; a[1] = 2; a[2] = 3; return a[0] + a[1] + a[2];");
  Util.check_int "heap array" 10
    (main_ret
       "int *a = new int[5]; for (int i = 0; i < 5; i++) a[i] = i; \
        int s = 0; for (int i = 0; i < 5; i++) s += a[i]; delete[] a; return s;")

let t_globals () =
  Util.check_int "global init order" 12
    (ret "int a = 5;\nint b = a + 7;\nint main() { return b; }")

let t_enums () =
  Util.check_int "enum values" 7 (ret "enum { X = 3, Y };\nint main() { return X + Y; }")

let t_objects_and_members () =
  Util.check_int "member rw" 8
    (ret
       "class P { public: int x; int y; };\n\
        int main() { P p; p.x = 3; p.y = 5; return p.x + p.y; }")

let t_ctor_init () =
  Util.check_int "ctor initializer list" 11
    (ret
       "class P { public: P(int a, int b) : x(a), y(b) { } int x; int y; };\n\
        int main() { P p(4, 7); return p.x + p.y; }")

let t_default_field_zero () =
  Util.check_int "fields default to zero" 0
    (ret "class P { public: int x; };\nint main() { P p; return p.x; }")

let t_methods () =
  Util.check_int "method with this" 10
    (ret
       "class C { public: int v; int twice() { return v * 2; } };\n\
        int main() { C c; c.v = 5; return c.twice(); }")

let t_virtual_dispatch () =
  Util.check_int "dynamic dispatch" 2
    (ret
       {|class A { public: virtual int f() { return 1; } };
         class B : public A { public: virtual int f() { return 2; } };
         int main() { B b; A *p = &b; return p->f(); }|})

let t_virtual_through_base_field () =
  Util.check_int "dispatch finds inherited override" 2
    (ret
       {|class A { public: virtual int f() { return 1; } };
         class B : public A { public: virtual int f() { return 2; } };
         class C : public B { };
         int main() { C c; A *p = &c; return p->f(); }|})

let t_qualified_call () =
  Util.check_int "qualified call suppresses dispatch" 1
    (ret
       {|class A { public: virtual int f() { return 1; } };
         class B : public A { public: virtual int f() { return 2; } };
         int main() { B b; return b.A::f(); }|})

let t_inherited_members () =
  Util.check_int "base members in derived object" 7
    (ret
       {|class A { public: int a; };
         class B : public A { public: int b; };
         int main() { B x; x.a = 3; x.b = 4; return x.a + x.b; }|})

let t_virtual_base_shared () =
  Util.check_int "one copy of the virtual base" 5
    (ret
       {|class V { public: int v; };
         class L : public virtual V { public: int set_it() { v = 5; return 0; } };
         class R : public virtual V { public: int get_it() { return v; } };
         class D : public L, public R { };
         int main() { D d; d.set_it(); return d.get_it(); }|})

let t_ctor_dtor_order () =
  let src =
    {|class Base {
      public:
        Base() { print_str("B+"); }
        ~Base() { print_str("B-"); }
      };
      class Member {
      public:
        Member() { print_str("M+"); }
        ~Member() { print_str("M-"); }
      };
      class Derived : public Base {
      public:
        Derived() { print_str("D+"); }
        ~Derived() { print_str("D-"); }
        Member m;
      };
      int main() { Derived d; return 0; }|}
  in
  (* construction: base, members, body; destruction: body, members, bases *)
  Util.check_string "lifecycle order" "B+M+D+D-M-B-" (out src)

let t_stack_objects_destroyed_per_scope () =
  let src =
    {|class T { public: T() { print_str("+"); } ~T() { print_str("-"); } };
      int main() {
        for (int i = 0; i < 2; i++) { T t; }
        print_str("|");
        return 0;
      }|}
  in
  Util.check_string "scope destruction" "+-+-|" (out src)

let t_delete_runs_dtor () =
  let src =
    {|class T { public: ~T() { print_str("x"); } };
      int main() { T *t = new T(); delete t; return 0; }|}
  in
  Util.check_string "delete runs dtor" "x" (out src)

let t_virtual_dtor_dispatch () =
  let src =
    {|class A { public: virtual ~A() { print_str("a"); } };
      class B : public A { public: ~B() { print_str("b"); } };
      int main() { A *p = new B(); delete p; return 0; }|}
  in
  Util.check_string "most-derived dtor runs" "ba" (out src)

let t_member_object_lifecycle () =
  Util.check_int "embedded ctor args" 9
    (ret
       {|class In { public: In(int v) : x(v) { } int x; };
         class Out { public: Out() : member(9) { } In member; };
         int main() { Out o; return o.member.x; }|})

let t_static_members () =
  Util.check_int "statics shared" 3
    (ret
       {|class C { public: C() { count = count + 1; } static int count; };
         int C::count;
         int main() { C a; C b; C c; return C::count; }|})

let t_function_pointers () =
  Util.check_int "funptr call" 42
    (ret
       "int inc(int x) { return x + 1; }\n\
        int apply(int f(int), int v) { return f(v); }\n\
        int main() { return apply(inc, 41); }")

let t_member_pointers () =
  Util.check_int "pointer to member" 5
    (ret
       "class A { public: int m; };\n\
        int main() { A a; a.m = 5; int A::*pm = &A::m; return a.*pm; }")

let t_print_builtins () =
  Util.check_string "print family" "x=3 f=1.5 c=A\n"
    (out
       "int main() { print_str(\"x=\"); print_int(3); print_str(\" f=\"); \
        print_float(1.5); print_str(\" c=\"); print_char(65); print_nl(); return 0; }")

let t_division_by_zero () =
  match run "int main() { int z = 0; return 1 / z; }" with
  | exception Runtime.Value.Runtime_error m ->
      Util.check_bool "mentions division" true (Util.contains_sub ~sub:"division" m)
  | _ -> Alcotest.fail "expected a runtime error"

let t_null_deref () =
  match run "class A { public: int m; };\nint main() { A *p = NULL; return p->m; }" with
  | exception Runtime.Value.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected a runtime error"

let t_array_bounds () =
  match run "int main() { int a[2]; return a[5]; }" with
  | exception Runtime.Value.Runtime_error m ->
      Util.check_bool "mentions bounds" true (Util.contains_sub ~sub:"bounds" m)
  | _ -> Alcotest.fail "expected a runtime error"

let t_step_limit () =
  match Runtime.Interp.run ~step_limit:1000 (Util.check_source "int main() { while (1) { } return 0; }") with
  | exception Runtime.Value.Limit_exceeded m ->
      Util.check_bool "mentions step limit" true (Util.contains_sub ~sub:"step limit" m)
  | _ -> Alcotest.fail "expected the step limit to fire"

let t_sizeof_values () =
  Util.check_int "sizeof int" 4 (main_ret "return sizeof(int);");
  Util.check_int "sizeof struct" 8
    (ret "struct S { char c; int i; };\nint main() { return sizeof(S); }")

let t_this_in_methods () =
  Util.check_int "this pointer" 4
    (ret
       {|class C {
         public:
           int v;
           C *self() { return this; }
         };
         int main() { C c; c.v = 4; return c.self()->v; }|})

let t_casts_numeric () =
  Util.check_int "double->int" 3 (main_ret "double d = 3.9; return (int)d;");
  Util.check_int "char coercion" 65 (main_ret "char c = 65; return c;")

let t_object_identity_through_casts () =
  Util.check_int "down-then-up cast preserves object" 7
    (ret
       {|class A { public: int a; };
         class B : public A { public: int b; };
         int main() {
           B b;
           b.b = 7;
           A *up = &b;
           B *down = (B*)up;
           return down->b;
         }|})

(* [Value.vint_cache] is written out by hand as static data: entry [i]
   must be [VInt (i - 256)], and [vint] must hand out those shared
   blocks in range and fresh ones outside it. *)
let t_small_int_table () =
  let open Runtime.Value in
  Util.check_int "table length" 1281 (Array.length vint_cache);
  Array.iteri
    (fun i v ->
      match v with
      | VInt n when n = i - 256 -> ()
      | _ -> Alcotest.failf "vint_cache.(%d) is not VInt %d" i (i - 256))
    vint_cache;
  for n = -256 to 1024 do
    if vint n != vint_cache.(n + 256) then
      Alcotest.failf "vint %d is not shared" n
  done;
  List.iter
    (fun n ->
      match vint n with
      | VInt m -> Util.check_int "outside the table" n m
      | _ -> Alcotest.failf "vint %d is not a VInt" n)
    [ -257; 1025; max_int; min_int ]

let suite =
  [
    Util.test "arithmetic" t_arithmetic;
    Util.test "comparison and short-circuit" t_comparison_logic;
    Util.test "floating point" t_floats;
    Util.test "control flow" t_control_flow;
    Util.test "functions and recursion" t_functions;
    Util.test "reference parameters" t_reference_params;
    Util.test "pointers" t_pointers;
    Util.test "arrays" t_arrays;
    Util.test "globals" t_globals;
    Util.test "enums" t_enums;
    Util.test "objects and members" t_objects_and_members;
    Util.test "constructor initializers" t_ctor_init;
    Util.test "zero-initialized fields" t_default_field_zero;
    Util.test "methods and this" t_methods;
    Util.test "virtual dispatch" t_virtual_dispatch;
    Util.test "dispatch with inherited override" t_virtual_through_base_field;
    Util.test "qualified call" t_qualified_call;
    Util.test "inherited members" t_inherited_members;
    Util.test "virtual base sharing" t_virtual_base_shared;
    Util.test "ctor/dtor ordering" t_ctor_dtor_order;
    Util.test "scope destruction" t_stack_objects_destroyed_per_scope;
    Util.test "delete runs destructors" t_delete_runs_dtor;
    Util.test "virtual destructor dispatch" t_virtual_dtor_dispatch;
    Util.test "member object lifecycle" t_member_object_lifecycle;
    Util.test "static members" t_static_members;
    Util.test "function pointers" t_function_pointers;
    Util.test "member pointers" t_member_pointers;
    Util.test "print builtins" t_print_builtins;
    Util.test "division by zero" t_division_by_zero;
    Util.test "null dereference" t_null_deref;
    Util.test "array bounds" t_array_bounds;
    Util.test "step limit" t_step_limit;
    Util.test "sizeof" t_sizeof_values;
    Util.test "this pointer" t_this_in_methods;
    Util.test "numeric casts" t_casts_numeric;
    Util.test "object identity through casts" t_object_identity_through_casts;
    Util.test "small-int table" t_small_int_table;
  ]
