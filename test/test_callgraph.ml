(* Call-graph construction tests: CHA vs RTA precision, reachability,
   address-taken roots, library overrides, constructor/destructor edges. *)


open Sema.Typed_ast
module StringSet = Set.Make (String)

let build ?(algorithm = Callgraph.Rta) ?(library_classes = []) src =
  let prog = Util.check_source src in
  ( prog,
    Callgraph.build ~algorithm
      ~library_classes:(StringSet.of_list library_classes)
      prog )

let reachable cg cls m = Callgraph.reachable cg (Func_id.FMethod (cls, m))
let reachable_free cg f = Callgraph.reachable cg (Func_id.FFree f)

let fig1 =
  {|class A { public: virtual int f() { return 1; } };
    class B : public A { public: virtual int f() { return 2; } };
    class C : public A { public: virtual int f() { return 3; } };
    int main() {
      A a; B b;
      A *ap = &a;
      return ap->f();
    }|}

let t_rta_excludes_uninstantiated () =
  (* C is never instantiated: RTA prunes C::f, CHA keeps it *)
  let _, rta = build ~algorithm:Callgraph.Rta fig1 in
  let _, cha = build ~algorithm:Callgraph.Cha fig1 in
  Util.check_bool "RTA: A::f reachable" true (reachable rta "A" "f");
  Util.check_bool "RTA: B::f reachable" true (reachable rta "B" "f");
  Util.check_bool "RTA: C::f pruned" false (reachable rta "C" "f");
  Util.check_bool "CHA: C::f kept" true (reachable cha "C" "f")

let t_dead_function_unreachable () =
  let _, cg =
    build "int used() { return 1; }\nint unused() { return 2; }\nint main() { return used(); }"
  in
  Util.check_bool "used reachable" true (reachable_free cg "used");
  Util.check_bool "unused pruned" false (reachable_free cg "unused")

let t_transitive_calls () =
  let _, cg =
    build
      "int c() { return 1; }\nint b() { return c(); }\nint a() { return b(); }\n\
       int main() { return a(); }"
  in
  Util.check_bool "c reachable transitively" true (reachable_free cg "c")

let t_static_dispatch_single_target () =
  let _, cg =
    build
      {|class A { public: int f() { return 1; } };
        class B : public A { public: int f() { return 2; } };
        int main() { B b; return b.f(); }|}
  in
  (* non-virtual: only B::f, not A::f *)
  Util.check_bool "B::f reachable" true (reachable cg "B" "f");
  Util.check_bool "A::f not reachable" false (reachable cg "A" "f")

let t_address_taken_root () =
  (* a function whose address is taken is reachable even if never called
     directly (paper section 3.3) *)
  let _, cg =
    build
      "int cb(int x) { return x; }\nint main() { int (*f)(int) = cb; if (f == NULL) return 1; return 0; }"
  in
  Util.check_bool "callback reachable" true (reachable_free cg "cb")

let t_funptr_call_edges () =
  let _, cg =
    build
      "int cb(int x) { return x + 1; }\n\
       int apply(int f(int), int v) { return f(v); }\n\
       int main() { return apply(cb, 1); }"
  in
  Util.check_bool "cb reachable through pointer" true (reachable_free cg "cb")

let t_ctor_dtor_edges () =
  let _, cg =
    build
      {|class A { public: A() { } ~A() { } };
        int main() { A *p = new A(); delete p; return 0; }|}
  in
  Util.check_bool "ctor reachable" true
    (Callgraph.reachable cg (Func_id.FCtor ("A", 0)));
  Util.check_bool "dtor reachable" true
    (Callgraph.reachable cg (Func_id.FDtor "A"))

let t_stack_object_dtor () =
  let _, cg =
    build "class A { public: ~A() { } };\nint main() { A a; return 0; }"
  in
  Util.check_bool "stack dtor reachable" true
    (Callgraph.reachable cg (Func_id.FDtor "A"))

let t_base_ctor_edges () =
  let _, cg =
    build
      {|class A { public: A() { } };
        class B : public A { public: B() { } };
        int main() { B b; return 0; }|}
  in
  Util.check_bool "base ctor reachable" true
    (Callgraph.reachable cg (Func_id.FCtor ("A", 0)))

let t_member_ctor_edges () =
  let _, cg =
    build
      {|class Inner { public: Inner() { } };
        class Outer { public: Inner in; };
        int main() { Outer o; return 0; }|}
  in
  Util.check_bool "member ctor reachable" true
    (Callgraph.reachable cg (Func_id.FCtor ("Inner", 0)))

let t_virtual_dtor_delete () =
  let _, cg =
    build
      {|class A { public: virtual ~A() { } };
        class B : public A { public: ~B() { } };
        int main() { B *b = new B(); A *a = b; delete a; return 0; }|}
  in
  Util.check_bool "derived dtor reachable via virtual delete" true
    (Callgraph.reachable cg (Func_id.FDtor "B"))

let t_library_override_roots () =
  let src =
    {|class LibBase { public: virtual int notify() { return 0; } };
      class App : public LibBase { public: virtual int notify() { return 1; } };
      int main() { App a; return 0; }|}
  in
  let _, without = build src in
  Util.check_bool "override pruned without library info" false
    (reachable without "App" "notify");
  let _, with_lib = build ~library_classes:[ "LibBase" ] src in
  Util.check_bool "override rooted with library info" true
    (reachable with_lib "App" "notify")

let t_methods_called_from_unreachable () =
  (* a method only called from an unreachable function stays unreachable *)
  let _, cg =
    build
      {|class A { public: int helper() { return 1; } };
        int never(A *a) { return a->helper(); }
        int main() { return 0; }|}
  in
  Util.check_bool "helper unreachable" false (reachable cg "A" "helper")

let t_instantiated_set () =
  let _, cg = build fig1 in
  Util.check_bool "A instantiated" true
    (StringSet.mem "A" cg.Callgraph.instantiated);
  Util.check_bool "B instantiated" true
    (StringSet.mem "B" cg.Callgraph.instantiated);
  Util.check_bool "C not instantiated" false
    (StringSet.mem "C" cg.Callgraph.instantiated)

let t_rta_subset_of_cha () =
  (* RTA reachable set must be a subset of CHA's on every benchmark *)
  List.iter
    (fun (b : Benchmarks.Suite.t) ->
      let prog = Benchmarks.Suite.program b in
      let rta = Callgraph.build ~algorithm:Callgraph.Rta prog in
      let cha = Callgraph.build ~algorithm:Callgraph.Cha prog in
      Util.check_bool
        (b.name ^ ": RTA subset of CHA")
        true
        (FuncSet.subset rta.Callgraph.nodes cha.Callgraph.nodes))
    Benchmarks.Suite.all

let t_dot_output () =
  let _, cg = build fig1 in
  let dot = Callgraph.to_dot cg in
  Util.check_bool "dot contains main" true (Util.contains_sub ~sub:"main" dot);
  Util.check_bool "dot is a digraph" true
    (Util.contains_sub ~sub:"digraph" dot)

let t_global_initializers_reach () =
  let _, cg =
    build "int f() { return 3; }\nint g = f();\nint main() { return g; }"
  in
  Util.check_bool "initializer call reachable" true (reachable_free cg "f")

(* -- late binding -------------------------------------------------------------

   Each program reaches a dispatch site before the class (or function)
   it will dispatch to becomes live, so the builder must offer a later
   instantiation or address-taken function to a site it has already
   processed. Edges are compared exactly, per tier. *)

let edge_list cg =
  FuncMap.fold
    (fun src dsts acc ->
      FuncSet.fold
        (fun dst acc -> (Func_id.to_string src ^ " -> " ^ Func_id.to_string dst) :: acc)
        dsts acc)
    cg.Callgraph.edges []
  |> List.sort String.compare

(* [tiers] lists each tier's edges beyond [common]. *)
let check_tiers ?library_classes src ~common tiers =
  List.iter
    (fun (algorithm, extra) ->
      let _, cg = build ~algorithm ?library_classes src in
      Alcotest.(check (list string))
        (Callgraph.algorithm_to_string algorithm ^ " edges")
        (List.sort String.compare (common @ extra))
        (edge_list cg))
    tiers

let late_vcall =
  {|class Shape { public: virtual int area() { return 0; } };
    class Square : public Shape {
    public:
      int side;
      Square(int s) : side(s) {}
      virtual int area() { return side * side; }
    };
    class Circle : public Shape { public: virtual int area() { return 3; } };
    int measure(Shape *p) { return p->area(); }
    Shape *make3() { return new Square(3); }
    Shape *make2() { return make3(); }
    Shape *make1() { return make2(); }
    int main() { Shape *p = make1(); return measure(p); }|}

let t_late_virtual_call () =
  check_tiers late_vcall
    ~common:
      [ "main -> make1"; "main -> measure"; "make1 -> make2"; "make2 -> make3";
        "make3 -> Square::Square/1"; "measure -> Square::area";
        "Square::Square/1 -> Shape::Shape/0" ]
    Callgraph.
      [ (Cha, [ "measure -> Circle::area"; "measure -> Shape::area" ]);
        (Rta, [ "measure -> Shape::area" ]); (Pta, []); (Pta1, []) ]

let late_vdelete =
  {|class Res { public: virtual ~Res() {} };
    class File : public Res { public: ~File() {} };
    class Sock : public Res { public: ~Sock() {} };
    void drop(Res *r) { delete r; }
    Res *open3() { return new File(); }
    Res *open2() { return open3(); }
    Res *open1() { return open2(); }
    int main() { Res *r = open1(); drop(r); return 0; }|}

let t_late_virtual_delete () =
  check_tiers late_vdelete
    ~common:
      [ "drop -> File::~File"; "main -> drop"; "main -> open1"; "open1 -> open2";
        "open2 -> open3"; "open3 -> File::File/0"; "File::File/0 -> Res::Res/0";
        "File::~File -> Res::~Res" ]
    Callgraph.
      [ (Cha, [ "drop -> Res::~Res"; "drop -> Sock::~Sock"; "Sock::~Sock -> Res::~Res" ]);
        (Rta, [ "drop -> Res::~Res" ]); (Pta, []); (Pta1, []) ]

let late_funptr =
  {|int apply(int f(int), int v) { return f(v); }
    int zero(int x) { return 0; }
    int twice(int x) { return x * 2; }
    int add(int a, int b) { return a + b; }
    int never(int x) { return x; }
    int deep3() { int (*g)(int, int) = add; return apply(twice, 4) + g(1, 2); }
    int deep2() { return deep3(); }
    int deep1() { return deep2(); }
    int main() { return apply(zero, 0) + deep1(); }|}

let t_late_funptr () =
  (* [add] is address-taken but has another arity than [apply]'s [f] *)
  check_tiers late_funptr
    ~common:
      [ "apply -> twice"; "apply -> zero"; "deep1 -> deep2"; "deep2 -> deep3";
        "deep3 -> add"; "deep3 -> apply"; "main -> apply"; "main -> deep1" ]
    Callgraph.[ (Cha, []); (Rta, []); (Pta, []); (Pta1, []) ]

let late_ctor_dispatch =
  {|class Base {
    public:
      int ready;
      Base() { ready = setup(); }
      virtual int setup() { return 1; }
      virtual int kind() = 0;
    };
    class Derived : public Base {
    public:
      int tag;
      Derived() : Base() { tag = 2; }
      virtual int setup() { return 2; }
      virtual int kind() { return tag; }
    };
    Base *build3() { return new Derived(); }
    Base *build2() { return build3(); }
    Base *build1() { return build2(); }
    int main() { Base *b = build1(); return b->kind(); }|}

let t_late_ctor_dispatch () =
  (* the abstract Base is instantiated only while its constructor runs
     as Derived's base initializer *)
  check_tiers late_ctor_dispatch
    ~common:
      [ "build1 -> build2"; "build2 -> build3"; "build3 -> Derived::Derived/0";
        "main -> build1"; "main -> Derived::kind"; "Base::Base/0 -> Base::setup";
        "Base::Base/0 -> Derived::setup"; "Derived::Derived/0 -> Base::Base/0" ]
    Callgraph.
      [ (Cha, [ "main -> Base::kind" ]); (Rta, [ "main -> Base::kind" ]); (Pta, []);
        (Pta1, []) ]

let late_library_root =
  {|class Listener { public: virtual int on_event(int e) { return e; } };
    class Sink { public: virtual int put(int v) { return v; } };
    class Log : public Sink { public: virtual int put(int v) { return v + 1; } };
    Sink *the_sink;
    class App : public Listener {
    public:
      int hits;
      virtual int on_event(int e) { hits = hits + 1; return the_sink->put(e); }
    };
    Sink *sink3() { return new Log(); }
    Sink *sink2() { return sink3(); }
    Sink *sink1() { return sink2(); }
    int main() { the_sink = sink1(); return 0; }|}

let t_late_library_root () =
  (* App::on_event is a root from the start; the Log it dispatches to
     is built three calls deep *)
  let common =
    [ "main -> sink1"; "sink1 -> sink2"; "sink2 -> sink3"; "sink3 -> Log::Log/0";
      "Log::Log/0 -> Sink::Sink/0" ]
  in
  check_tiers late_library_root ~common
    Callgraph.[ (Cha, []); (Rta, []); (Pta, []); (Pta1, []) ];
  check_tiers ~library_classes:[ "Listener" ] late_library_root
    ~common:(common @ [ "App::on_event -> Log::put" ])
    Callgraph.
      [ (Cha, [ "App::on_event -> Sink::put" ]); (Rta, [ "App::on_event -> Sink::put" ]);
        (Pta, []); (Pta1, []) ]

(* The same shapes in one runnable program: (nodes, edges, dead) per
   tier, dead growing with precision. *)
let t_late_dispatch_corpus () =
  let prog =
    Util.check_source (Test_bytecode.corpus_source "late_dispatch.mcc")
  in
  List.iter
    (fun (algorithm, nodes, edges, dead) ->
      let name = Callgraph.algorithm_to_string algorithm in
      let cg = Callgraph.build ~algorithm prog in
      let config = { Deadmem.Config.paper with call_graph = algorithm } in
      let r = Deadmem.Liveness.analyze ~config prog in
      Util.check_int (name ^ " nodes") nodes (Callgraph.num_nodes cg);
      Util.check_int (name ^ " edges") edges (Callgraph.num_edges cg);
      Alcotest.(check (list string)) (name ^ " dead") dead (Util.dead_names r))
    Callgraph.
      [ (Cha, 36, 38, []); (Rta, 34, 35, [ "Circle::radius"; "Sock::port" ]);
        (Pta, 32, 32, [ "Circle::radius"; "Shape::unit"; "Sock::port" ]);
        (Pta1, 32, 32, [ "Circle::radius"; "Shape::unit"; "Sock::port" ]) ]

(* -- Func_id order ------------------------------------------------------------- *)

(* [Func_id.compare] orders every FuncSet/FuncMap, so everything printed
   from one; it must order exactly as [Stdlib.compare] did. Names come
   from a two-letter alphabet, so empty names and shared prefixes are
   common. *)
let prop_func_id_order =
  let open QCheck in
  let name = Gen.(string_size ~gen:(oneofl [ 'a'; 'b' ]) (0 -- 3)) in
  let id =
    Gen.(
      oneof
        [
          map (fun f -> Func_id.FFree f) name;
          map2 (fun c m -> Func_id.FMethod (c, m)) name name;
          map2 (fun c n -> Func_id.FCtor (c, n)) name (-3 -- 3);
          map (fun c -> Func_id.FDtor c) name;
        ])
  in
  Test.make ~name:"Func_id.compare orders like Stdlib.compare" ~count:2000
    (make ~print:(fun (a, b) -> Func_id.to_string a ^ " vs " ^ Func_id.to_string b)
       (Gen.pair id id))
    (fun (a, b) ->
      Int.compare (Func_id.compare a b) 0 = Int.compare (Stdlib.compare a b) 0)

let suite =
  [
    Util.test "RTA prunes uninstantiated receivers" t_rta_excludes_uninstantiated;
    Util.test "unreachable functions pruned" t_dead_function_unreachable;
    Util.test "transitive calls" t_transitive_calls;
    Util.test "static dispatch single target" t_static_dispatch_single_target;
    Util.test "address-taken functions are roots" t_address_taken_root;
    Util.test "function pointer call edges" t_funptr_call_edges;
    Util.test "ctor/dtor edges for new/delete" t_ctor_dtor_edges;
    Util.test "stack object destructor" t_stack_object_dtor;
    Util.test "base ctor edges" t_base_ctor_edges;
    Util.test "member ctor edges" t_member_ctor_edges;
    Util.test "virtual destructor delete" t_virtual_dtor_delete;
    Util.test "library override roots" t_library_override_roots;
    Util.test "calls from unreachable code ignored" t_methods_called_from_unreachable;
    Util.test "instantiated class set" t_instantiated_set;
    Util.test "RTA subset of CHA on all benchmarks" t_rta_subset_of_cha;
    Util.test "dot output" t_dot_output;
    Util.test "global initializers feed reachability" t_global_initializers_reach;
    Util.test "late binding: virtual call before its class" t_late_virtual_call;
    Util.test "late binding: virtual delete before its class" t_late_virtual_delete;
    Util.test "late binding: function pointer before &f" t_late_funptr;
    Util.test "late binding: dispatch in an abstract base's ctor"
      t_late_ctor_dispatch;
    Util.test "late binding: library-override root" t_late_library_root;
    Util.test "late binding: corpus program per tier" t_late_dispatch_corpus;
    QCheck_alcotest.to_alcotest prop_func_id_order;
  ]
