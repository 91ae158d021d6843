(* Differential tests for the bytecode engine (PR 5).

   [Interp.run ~engine:Bytecode] must be observably identical to the
   resolved-tree walker it replaced. The benchmark differential replays
   every benchmark under both engines and compares everything the tree
   engine reports: output digest, return value, step and allocation
   counts, and the full profile snapshot.

   Generated programs (jump-target wiring, short-circuit evaluation,
   mixed int/float banks) go through the same comparison in
   [test_generated.ml]; the cases here pin shapes by hand.

   The error-parity cases pin the two failure channels: structured
   runtime errors must carry the tree engine's exact message, and
   resource limits must trip at the same tick — a program that needs
   exactly [n] steps succeeds under both engines with [step_limit = n]
   and raises [Limit_exceeded] with identical text at [n - 1]. *)

let t_benchmark_engine_differential () =
  List.iter
    (fun (b : Benchmarks.Suite.t) ->
      ignore (Util.engines_agree b.name (Benchmarks.Suite.program b)))
    Benchmarks.Suite.all

(* -- one lowering, both engines ------------------------------------------ *)

(* The serve daemon's front cache hands one [Interp.lowered] to whichever
   engine a request names, so no run, and no compile of the resolved
   program, may change what a lowering holds: bytecode, tree, then
   bytecode again from one lowering must each match a fresh run. *)
let t_shared_lowering () =
  List.iter
    (fun (b : Benchmarks.Suite.t) ->
      let prog = Benchmarks.Suite.program b in
      let dead =
        Deadmem.Liveness.dead_set
          (Deadmem.Liveness.analyze ~config:Deadmem.Config.paper prog)
      in
      let fresh = Util.observe ~dead prog in
      let lowered = Runtime.Interp.lower prog in
      List.iter
        (fun (engine, tag) ->
          Option.iter
            (Alcotest.failf "%s, %s from one lowering: %s" b.name tag)
            (Util.difference fresh
               (Util.observe ~engine ~dead ~lowered prog)))
        [
          (Runtime.Interp.Bytecode, "bytecode");
          (Runtime.Interp.Tree, "tree");
          (Runtime.Interp.Bytecode, "bytecode again");
        ])
    Benchmarks.Suite.all

(* Both engines show the same run of [src]: what it shows. *)
let agree_on ?step_limit name src =
  Util.shown (Util.engines_agree ?step_limit name (Util.check_source src))

(* -- error parity ---------------------------------------------------------------- *)

let run_error ~engine prog =
  match Runtime.Interp.run ~engine prog with
  | exception Runtime.Value.Runtime_error m -> `Runtime_error m
  | exception Runtime.Value.Limit_exceeded m -> `Limit m
  | o -> `Ok o.Runtime.Interp.return_value

let t_missing_member_error_parity () =
  let prog =
    Util.check_source
      {|class A { public: int x; };
        class B { public: int y; };
        int main() { A a; a.x = 1; B *p = (B*)&a; return p->y; }|}
  in
  match
    ( run_error ~engine:Runtime.Interp.Tree prog,
      run_error ~engine:Runtime.Interp.Bytecode prog )
  with
  | `Runtime_error mt, `Runtime_error mb ->
      Util.check_string "identical structured error" mt mb;
      Util.check_bool "names class and member" true
        (Util.contains_sub ~sub:"object of class A" mt
        && Util.contains_sub ~sub:"B::y" mt)
  | _ -> Alcotest.fail "expected Runtime_error from both engines"

let t_step_limit_same_tick () =
  let prog =
    Util.check_source
      {|int main() {
          int i = 0;
          int acc = 0;
          while (i < 50) { acc = acc + i; i = i + 1; }
          return acc % 100;
        }|}
  in
  (* How many steps does the program actually need? *)
  let n = (Runtime.Interp.run ~engine:Runtime.Interp.Tree prog).steps in
  let at ~engine limit =
    match Runtime.Interp.run ~engine ~step_limit:limit prog with
    | exception Runtime.Value.Limit_exceeded m -> `Limit m
    | o -> `Ok o.Runtime.Interp.return_value
  in
  (* With exactly [n] steps allowed, both engines finish... *)
  (match (at ~engine:Runtime.Interp.Tree n, at ~engine:Runtime.Interp.Bytecode n)
   with
  | `Ok rt, `Ok rb -> Util.check_int "return at exact limit" rt rb
  | _ -> Alcotest.fail "expected success at the exact step budget");
  (* ... and with one step fewer, both trip the guard at the same tick
     with the same message. *)
  match
    ( at ~engine:Runtime.Interp.Tree (n - 1),
      at ~engine:Runtime.Interp.Bytecode (n - 1) )
  with
  | `Limit mt, `Limit mb ->
      Util.check_string "identical limit message" mt mb;
      Util.check_bool "mentions the step limit" true
        (Util.contains_sub ~sub:"step limit exceeded" mt)
  | _ -> Alcotest.fail "expected Limit_exceeded from both engines"

(* A then-block ending in [p = p->next] on a pointer local compiles its
   last statement to a fused load-field-store, which the then-block's exit
   jump fuses into; the if/else must still patch that jump's target. *)
let t_pointer_chase_in_then_block () =
  let src =
    {|class Node { public: int v; Node *next; };
      int main() {
        Node a; Node b; Node c;
        a.v = 1; b.v = 2; c.v = 3;
        a.next = &b; b.next = &c; c.next = &a;
        Node *h = &a;
        Node *p = h;
        int acc = 0;
        int k = 0;
        while (k < 7) {
          if (k % 3 != 0) { p = p->next; } else { p = h; }
          acc = acc * 3 + p->v;
          k = k + 1;
        }
        print_int(acc);
        return acc % 100;
      }|}
  in
  ignore (agree_on "pointer chase" src);
  let _, r = Runtime.Interp.run_profiled (Util.check_source src) in
  Util.check_bool "the then-block exit is the fused jump" true
    (List.mem_assoc "ITickLoadFieldStoreJump" r.Runtime.Vm_profile.r_opcodes)

(* -- statements over arrays of object pointers ----------------------------- *)

(* Statement shapes that only npic and sched reach among the ports
   (generated programs hold no arrays of object pointers): an element
   load into a pointer local followed by a field copy or by a field
   test, an int local read through [this->arr[l->i]->f], the int cast
   of a method result (the statement tick folded into the call or
   carried by the previous store), and int stores through
   [this->arr[ix]->f] from a constant, a local and another element's
   field. Each also runs with one element set to NULL, which must be
   the same error in both engines; every run is repeated one step short
   of its length. *)
let object_array_prelude =
  {|
    class Elem {
    public:
      Elem(int v) : f(0), g(v) { }
      int f;
      int g;
    };

    class Ref {
    public:
      Ref(int v) : i(v) { }
      int i;
    };

    class Box {
    public:
      Box(int n_) : n(n_), seed(7) {
        arr = new Elem*[n_];
        for (int k = 0; k < n_; k++) {
          arr[k] = new Elem(k * 3 + 1);
          arr2[k] = new Elem(k + 2);
          refs[k] = new Ref((k * 5) % n_);
        }
      }
      long next() {
        seed = (seed * 13 + 5) % 101;
        return seed + arr[(int)(seed % n)]->g;
      }
      int chase() {
        int acc = 0;
        for (int k = 0; k < n; k++) {
          Ref *r = refs[k];
          int x = arr[r->i]->g;
          print_int(x);
          x = arr2[r->i]->g;
          acc = acc * 3 + x;
        }
        return acc;
      }
      int calls_ticked() {
        int acc = 0;
        for (int k = 0; k < 6; k++) {
          int x = (int)(next() % 5);
          print_int(x);
          x = (int)(next() * 7);
          acc = acc + x;
        }
        return acc;
      }
      int calls_unticked() {
        int acc = 0;
        for (int k = 0; k < 6; k++) {
          int y = acc + 1;
          int z = (int)(next() + 3);
          acc = acc + y + z;
        }
        return acc;
      }
      int store_const() {
        for (int k = 0; k < n; k++) arr[k]->f = 4;
        return arr[n - 1]->f;
      }
      int store_local() {
        int v = 9;
        Ref *r = refs[0];
        for (int k = 0; k < n; k++) {
          v = v + k;
          if (v > 1000) v = 0;
          arr2[r->i]->f = v;
          r = refs[(k + 1) % n];
        }
        return v + arr2[3]->f;
      }
      int store_expr() {
        int v = 0;
        Ref *r = refs[0];
        Ref *q = refs[n - 1];
        for (int k = 0; k < n; k++) {
          if (v > 100000) v = 0;
          arr[r->i]->f = arr2[q->i]->g * 3;
          v = v * 2 + arr[r->i]->f;
          r = refs[(k + 1) % n];
          q = refs[n - 1 - (k + 1) % n];
        }
        return v;
      }
      Elem **arr;
      Elem *arr2[8];
      Ref *refs[8];
      int n;
      long seed;
    };

    int copy(Box *b) {
      int acc = 0;
      for (int i = 0; i < b->n; i++) {
        Elem *e = b->arr[i];
        e->f = e->g;
        acc = acc + e->f;
      }
      return acc;
    }

    int guard(Box *b) {
      int acc = 0;
      for (int i = 0; i < b->n; i++) {
        Elem *e = b->arr[i];
        if (e->g > 6) acc = acc + e->g;
      }
      return acc;
    }
  |}

let t_object_array_statements () =
  List.iter
    (fun (name, null_stmt, call) ->
      let src =
        Printf.sprintf
          "%s\nint main() {\n  Box *b = new Box(8);\n  %s\n  \
           print_int(%s);\n  return 0;\n}\n"
          object_array_prelude null_stmt call
      in
      let prog = Util.check_source src in
      let tree = Util.engines_agree name prog in
      (match (null_stmt, tree.result) with
      | "", Ok _ -> ()
      | "", Error e -> Alcotest.failf "%s: unexpected error %s" name e
      | _, Error e ->
          Util.check_string (name ^ ": the NULL element's error")
            "runtime error: expected a class object" e
      | _, Ok _ -> Alcotest.failf "%s: the NULL element was never read" name);
      ignore
        (Util.engines_agree ~step_limit:(tree.steps - 1)
           (name ^ ", one step short")
           prog))
    [
      ("element load, field copy", "", "copy(b)");
      ("element load, field copy, NULL", "b->arr[3] = NULL;", "copy(b)");
      ("element load, field test", "", "guard(b)");
      ("element load, field test, NULL", "b->arr[3] = NULL;", "guard(b)");
      ("this->arr[l->i]->f into a local", "", "b->chase()");
      ("this->arr[l->i]->f into a local, NULL", "b->arr[5] = NULL;",
       "b->chase()");
      ("this->arr[l->i]->f into a local, ticked, NULL", "b->arr2[5] = NULL;",
       "b->chase()");
      ("(int)(this->m() op k), ticked", "", "b->calls_ticked()");
      ("(int)(this->m() op k), ticked, NULL", "b->arr[1] = NULL;",
       "b->calls_ticked()");
      ("(int)(this->m() op k), unticked", "", "b->calls_unticked()");
      ("(int)(this->m() op k), unticked, NULL", "b->arr[0] = NULL;",
       "b->calls_unticked()");
      ("this->arr[ix]->f = k", "", "b->store_const()");
      ("this->arr[ix]->f = k, NULL", "b->arr[6] = NULL;", "b->store_const()");
      ("this->arr[l->i]->f = local", "", "b->store_local()");
      ("this->arr[l->i]->f = local, NULL", "b->arr2[0] = NULL;",
       "b->store_local()");
      ("this->arr[l->i]->f = element field op k", "", "b->store_expr()");
      ("this->arr[l->i]->f = element field op k, NULL destination",
       "b->arr[0] = NULL;", "b->store_expr()");
      ("this->arr[l->i]->f = element field op k, NULL source",
       "b->arr2[3] = NULL;", "b->store_expr()");
    ]

(* -- statements the VM no longer folds --------------------------------------- *)

(* Statement shapes whose one-dispatch folds the VM dropped: counted
   loops guarded by [i < p->n] and [i < p->n op k], [this->m()] with no
   arguments (as a statement and inside an expression), [return
   this->f], a constructor whose int members start from locals and
   constants, calls and [new] with several int-local arguments, and the
   PRNG step [this->x = this->y op k op k op k] (after one statement
   tick, and after two). Since the int-RPN store walk and nine rare
   pair fusions went, so do the stencil stores [c->f = (c->p + c->f) *
   3 - c->p] and [g->cells[i]->f = g->cells[i+1]->p - g->cells[i-1]->p],
   [x = -5] on an int local, the constant chain [this->x = this->y * 3
   + 7 ^ 11], [o->n = 5], [o->f = x] and [this->f = x] on int members,
   the pointer-member copy [p->next = q->next], [print_int(o->n)], and
   the loop guards [while (i < j)] and [while (i < 10)] on int locals.
   They now run as their parts; each must
   still match the tree walker, step for step. Where a case reads
   through a pointer it runs again with that pointer NULL, which must be
   the same error in both engines (for the [this]-rooted shapes, the
   call on the NULL receiver fails first), and every run is repeated one
   step short of its length. *)
let unfolded_prelude =
  {|
    class Node {
    public:
      Node(int a, int b) : n(a), x(b), y(5), z(0), w(a) { }
      int get() {
        if (this->z > 100) return 0;
        return this->y;
      }
      void bump() { this->z = this->z + 1; }
      int calls() {
        int acc = 0;
        for (int i = 0; i < 4; i++) {
          this->bump();
          acc = acc + this->get();
        }
        return acc + this->z;
      }
      int prng() {
        int acc = 0;
        for (int i = 0; i < 5; i++) {
          this->x = this->y * 1103 + 12345 & 65535;
          print_int(this->x);
          {
            this->y = (this->x * 75 + 74) % 65537;
          }
          acc = acc + this->y;
        }
        return acc;
      }
      int mix() {
        int acc = 0;
        for (int i = 0; i < 3; i++) {
          this->x = this->y * 3 + 7 ^ 11;
          acc = acc + this->x;
          this->y = this->y + i;
        }
        return acc;
      }
      int set(int v) {
        this->z = v;
        return this->z;
      }
      int n;
      int x;
      int y;
      int z;
      int w;
    };

    struct Cell { int p; int f; int n; Cell *next; };
    struct Grid { Cell *cells[3]; };

    int count(Node *p) {
      int acc = 0;
      for (int i = 0; i < p->n; i++) acc = acc + i;
      return acc;
    }

    int count_k(Node *p) {
      int acc = 0;
      for (int i = 0; i < p->n - 2; i++) {
        acc = acc + i * 2;
      }
      return acc;
    }

    int add3(int a, int b, int c) { return a * 100 + b * 10 + c; }

    int args(int n) {
      int acc = 0;
      for (int i = 0; i < n; i++) {
        int j = i + 1;
        int k = j * 2;
        acc = acc + add3(i, j, k);
        Node *t = new Node(j, k);
        acc = acc + t->w + t->x;
        delete t;
      }
      return acc;
    }

    int build(int a) {
      int b = a * 2;
      Node *t = new Node(a, b);
      return t->n + t->x + t->y + t->z + t->w;
    }

    int stencil(Cell *c) {
      int acc = 0;
      for (int r = 0; r < 3; r++) {
        c->f = (c->p + c->f) * 3 - c->p;
        acc = acc + c->f;
      }
      return acc;
    }

    Grid *grid(int hole) {
      Grid *g = new Grid();
      for (int i = 0; i < 3; i++) {
        g->cells[i] = new Cell();
        g->cells[i]->p = i * 7 + 1;
      }
      if (hole >= 0) g->cells[hole] = NULL;
      return g;
    }

    int stencil_at(Grid *g) {
      for (int i = 1; i < 2; i++)
        g->cells[i]->f = g->cells[i + 1]->p - g->cells[i - 1]->p;
      return g->cells[1]->f;
    }

    int negate(int n) {
      int x = 0;
      for (int i = 0; i < n; i++) {
        x = -5;
        x = x + i;
      }
      return x;
    }

    int put(Cell *o, int x) {
      o->n = 5;
      o->f = x;
      return o->f + o->n;
    }

    int relink(Cell *p, Cell *q) {
      p->next = q->next;
      if (p->next == NULL) return 0;
      return p->next->n;
    }

    int show(Cell *o) {
      int k = 2;
      print_int(o->n);
      return k;
    }

    int below(int j) {
      int i = 0;
      int acc = 0;
      while (i < j) {
        acc = acc + i;
        i++;
      }
      return acc;
    }

    int below10(int i) {
      int acc = 0;
      while (i < 10) {
        acc = acc + i;
        i++;
      }
      return acc;
    }
  |}

let t_unfolded_statements () =
  List.iter
    (fun (name, decl, call, want_error) ->
      let src =
        Printf.sprintf
          "%s\nint main() {\n  %s\n  print_int(%s);\n  return 0;\n}\n"
          unfolded_prelude decl call
      in
      let prog = Util.check_source src in
      let tree = Util.engines_agree name prog in
      (match (want_error, tree.result) with
      | None, Ok _ -> ()
      | None, Error e -> Alcotest.failf "%s: unexpected error %s" name e
      | Some want, Error e ->
          Util.check_string (name ^ ": the NULL receiver's error") want e
      | Some _, Ok _ ->
          Alcotest.failf "%s: the NULL receiver was never read" name);
      ignore
        (Util.engines_agree ~step_limit:(tree.steps - 1)
           (name ^ ", one step short")
           prog))
    (let node = "Node *p = new Node(6, 2);" and null = "Node *p = NULL;" in
     let no_obj = Some "runtime error: expected a class object"
     and null_call = Some "runtime error: method call on null pointer" in
     [
       ("i < p->n", node, "count(p)", None);
       ("i < p->n, NULL", null, "count(p)", no_obj);
       ("i < p->n op k", node, "count_k(p)", None);
       ("i < p->n op k, NULL", null, "count_k(p)", no_obj);
       ("this->m()", node, "p->calls()", None);
       ("this->m(), NULL", null, "p->calls()", null_call);
       ("return this->f", node, "p->get()", None);
       ("return this->f, NULL", null, "p->get()", null_call);
       ("constructor initializers", "", "build(3)", None);
       ("int-local arguments", "", "args(5)", None);
       ("PRNG step", node, "p->prng()", None);
       ("PRNG step, NULL", null, "p->prng()", null_call);
       ("c->f = (c->p + c->f) * 3 - c->p", "Cell *c = new Cell(); c->p = 2;",
        "stencil(c)", None);
       ("c->f = (c->p + c->f) * 3 - c->p, NULL", "Cell *c = NULL;",
        "stencil(c)", no_obj);
       ("g->cells[i]->f = g->cells[i+1]->p - g->cells[i-1]->p",
        "Grid *g = grid(-1);", "stencil_at(g)", None);
       ("g->cells[i]->f = g->cells[i+1]->p - g->cells[i-1]->p, NULL \
         destination", "Grid *g = grid(1);", "stencil_at(g)", no_obj);
       ("g->cells[i]->f = g->cells[i+1]->p - g->cells[i-1]->p, NULL source",
        "Grid *g = grid(2);", "stencil_at(g)", no_obj);
       ("x = -5", "", "negate(4)", None);
       ("this->x = this->y * 3 + 7 ^ 11", node, "p->mix()", None);
       ("this->x = this->y * 3 + 7 ^ 11, NULL", null, "p->mix()", null_call);
       ("o->n = 5; o->f = x", "Cell *o = new Cell();", "put(o, 9)", None);
       ("o->n = 5; o->f = x, NULL", "Cell *o = NULL;", "put(o, 9)", no_obj);
       ("this->f = x", node, "p->set(9)", None);
       ("this->f = x, NULL", null, "p->set(9)", null_call);
       ("p->next = q->next",
        "Cell *p = new Cell(); Cell *q = new Cell(); q->next = new Cell(); \
         q->next->n = 4;",
        "relink(p, q)", None);
       ("p->next = q->next, NULL p", "Cell *p = NULL; Cell *q = new Cell();",
        "relink(p, q)", no_obj);
       ("p->next = q->next, NULL q", "Cell *p = new Cell(); Cell *q = NULL;",
        "relink(p, q)", no_obj);
       ("print_int(o->n)", "Cell *o = new Cell(); o->n = 3;", "show(o)", None);
       ("print_int(o->n), NULL", "Cell *o = NULL;", "show(o)", no_obj);
       ("while (i < j)", "", "below(5)", None);
       ("while (i < 10)", "", "below10(3)", None);
     ])

(* -- escaped locals and unwinding (examples/corpus) ------------------------------ *)

(* The VM runs activations on per-depth pooled frames unless a body can
   take a local's address, and an exception leaves the pool depth
   wherever the raise left it. These corpus programs check both rules
   against the tree engine: pointers to locals read after later calls
   at the same depth, and a runtime error and a step-limit hit unwinding
   through callers whose stack objects' destructors make calls. *)

let corpus_source name =
  In_channel.with_open_bin
    (Filename.concat
       (Filename.dirname Sys.executable_name)
       ("../examples/corpus/" ^ name))
    In_channel.input_all

let corpus_engines_agree ?step_limit name =
  agree_on ?step_limit name (corpus_source name)

let t_escaped_locals () =
  Util.check_string "values the locals held when their calls returned"
    "exit 14\n101\n71\n201\n81\n301\n91\n1\n4\n9\n"
    (corpus_engines_agree "escape_locals.mcc")

let t_unwind_runtime_error () =
  Util.check_string "the callee's error"
    "runtime error: null pointer dereference"
    (corpus_engines_agree "unwind_error.mcc")

let t_unwind_step_limit () =
  let shown =
    corpus_engines_agree ~step_limit:20_000 "unwind_step_limit.mcc"
  in
  Util.check_bool "the step limit, hit again by the first destructor" true
    (Util.contains_sub shown
       ~sub:"raised while unwinding: resource limit: step limit exceeded")

(* A corpus program's output agrees under both engines, and every
   call-graph tier finds the same dead members, with which both engines
   agree on steps, allocations and the space snapshot too. *)
let t_every_tier ~file ~output ~dead () =
  Util.check_string "output" output (corpus_engines_agree file);
  let prog = Util.check_source (corpus_source file) in
  List.iter
    (fun call_graph ->
      let r =
        Deadmem.Liveness.analyze ~config:(Deadmem.Config.make call_graph) prog
      in
      Util.check_dead r dead;
      ignore
        (Util.engines_agree ~dead:(Deadmem.Liveness.dead_set r)
           (file ^ " under " ^ Callgraph.algorithm_to_string call_graph)
           prog))
    Callgraph.[ Cha; Rta; Pta; Pta1 ]

(* [abort()] ends a run with status 134 and the output so far wherever
   it is called: in main, in a global initializer (before main runs),
   and in a destructor while an error unwinds its scope. *)
let t_abort_everywhere () =
  List.iter
    (fun (name, src, want) ->
      Util.check_string name want (agree_on name src))
    [
      ( "abort in main",
        "int main() { print_int(1); abort(); print_int(2); return 0; }",
        "exit 134\n1" );
      ( "abort in a global initializer",
        "int f() { print_int(5); abort(); return 1; }\nint g = f();\n\
         int main() { print_int(7); return 0; }",
        "exit 134\n5" );
      ( "abort in a destructor while an error unwinds",
        "class G { public: ~G() { print_int(3); abort(); } };\n\
         int main() { G g; int z = 0; print_int(1); return 1 / z; }",
        "exit 134\n13" );
    ]

(* Every guest-sized array past [Sys.max_array_length] is the same
   resource limit in both engines, never an [Invalid_argument]. *)
let t_huge_arrays_are_limits () =
  let n = "100000000000000000" in
  let want =
    Printf.sprintf
      "resource limit: array of %s elements exceeds the maximum array length %d"
      n Sys.max_array_length
  in
  List.iter
    (fun (name, src) ->
      Util.check_string name want
        (agree_on name (Printf.sprintf src n)))
    [
      ("new int[]", "int main() { int *p = new int[%s]; return 0; }");
      ( "new A[]",
        "class A { public: int x; };\n\
         int main() { A *p = new A[%s]; return 0; }" );
      ("local array", "int main() { int a[%s]; return 0; }");
      ("global array", "int g[%s];\nint main() { return 0; }");
      ( "member array, stack object",
        "class A { public: int x[%s]; };\nint main() { A a; return 0; }" );
      ( "member array, new object",
        "class A { public: int x[%s]; };\n\
         int main() { A *a = new A(); return 0; }" );
      ( "stack array of objects",
        "class A { public: int x; };\nint main() { A a[%s]; return 0; }" );
      ( "member array of objects",
        "class B { public: int y; };\nclass A { public: B b[%s]; };\n\
         int main() { A a; return 0; }" );
    ]

(* -- compare-and-branch folds next to a join ------------------------------- *)

(* One program per compare-and-branch fold shape, each with a [c ? x : y]
   next to the comparison. A conditional ends in a join label, and a fold
   must not swallow it: in the boxed programs the conditional is the
   comparison's right (or left) operand, so its else arm ends in the
   [ILoad] or [IConst] that a fold would take and the label falls inside
   the run. A conditional is always boxed, so a typed run never holds a
   label; there it sits in a loop's init or the guarded statement.
   Each program runs under both engines, again one step short, and
   must dispatch the fold it is named after. *)
let fold_prelude =
  {|
    class N {
    public:
      int n; int k; double d;
      N(int a) : n(a), k(2), d(1.5) { }
      int upto(int c) {
        int s = 0;
        for (int i = c ? 0 : 1; i < this->n; i++) s = s + i;
        return s;
      }
      int small(int c) {
        int s = c ? 5 : 6;
        if (this->k < 3) s = s + (c ? 1 : 2);
        return s;
      }
    };
  |}

let fold_cases =
  let boxed body =
    "double d = 0.5; double e = 2.0; double x = 1.0; double y = 3.0;\n\
    \  double s = 0.0;\n  " ^ body ^ "\n  return (int)(s * 4.0 + d);"
  and typed body =
    "int s = 0; int i = c ? 0 : 1; int j = c ? 3 : 4;\n  " ^ body
    ^ "\n  return s;"
  in
  [
    ( "IJumpCmpFalse",
      boxed
        "if (d * 2.0 < (c ? x : y)) s = 1.0;\n\
        \  if (d < (c ? x : y)) s = s + 2.0;\n\
        \  if (d < (c ? 2.0 : 3.0)) s = s + 4.0;" );
    ("IJumpLocCmpFalse", boxed "if ((c ? x : y) < e) s = 1.0;");
    ("IJumpCmpConstFalseT", boxed "if ((c ? x : y) < 2.5) s = 1.0;");
    ( "IJumpLocCmpConstFalseT",
      boxed "while (d < 4.0) { d = d + (c ? x : y); }" );
    ( "ITickLoadFieldCmpLocFalseT",
      boxed "print_int(c);\n  if (p->d < e) s = c ? x : y;" );
    ("IJumpCmpFalseI", typed "if (i * 2 < j + 1) s = c ? 1 : 2;");
    ( "IJumpLL2FBCCmpFalseTI",
      typed "for (i = c ? 0 : 1; i < p->n - 1; i++) s = s + 2;" );
    ("IJumpCmpConstFalseTI", typed "if (i + j < 5) s = c ? 3 : 4;");
    ("ITickJumpLocFieldBCFalseI", typed "if (p->n < 5) s = c ? 1 : 2;");
    ( "IJumpLocFieldBCFalseI",
      typed "for (i = c ? 0 : 1; p->n < 7; p->n++) s = s + 1;" );
    ("ITickJumpLocFieldBCFalseI", typed "s = p->small(c);");
    ( "IJumpLocCmpFalseTI",
      typed "for (i = c ? 0 : 1; i < j; i++) s = s + 1;" );
    ( "IJumpLocFCmpFalseTI",
      typed "for (i = c ? 0 : 1; i < p->n; i++) s = s + 1;" );
    ("IJumpLocFCmpFalseTI", typed "s = p->upto(c);");
    ("ITickLoadFieldCmpLocFalseTI", typed "if (p->n < j) s = c ? 1 : 2;");
  ]

let t_folds_next_to_a_join () =
  List.iter
    (fun (fold, body) ->
      let src =
        Printf.sprintf
          "%s\nint f(int c, N* p) {\n  %s\n}\n\
           int main() {\n  N* p = new N(4);\n  print_int(f(0, p));\n\
          \  print_int(f(1, p));\n  return 0;\n}\n"
          fold_prelude body
      in
      let prog = Util.check_source src in
      let tree = Util.engines_agree fold prog in
      (match tree.result with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: unexpected error %s" fold e);
      ignore
        (Util.engines_agree ~step_limit:(tree.steps - 1)
           (fold ^ ", one step short")
           prog);
      let _, r = Runtime.Interp.run_profiled prog in
      Util.check_bool (fold ^ " dispatched") true
        (List.mem_assoc fold r.Runtime.Vm_profile.r_opcodes))
    fold_cases

(* A non-static method called through a plain function pointer runs on
   its caller's [this]: none from [main], where the method stops at its
   first use of [this] with the tree walker's error, and the caller's
   own receiver from inside a method. The VM reads the receiver of a
   member access or call from a frame slot and [this] as a value from
   the frame, so each use is a method of its own. Each runs after a
   statement that ticks, so a late or early error shows in the steps;
   [noisy] prints without [this], so a call that evaluates its argument
   before it reports the missing receiver differs in the steps too. *)
let funptr_method_prelude =
  {|
    int noisy() { print_int(9); return 3; }
    class A {
    public:
      int x; int y; double d;
      A() : x(1), y(2), d(0.5) { }
      int h() { return x; }
      virtual int v() { return y; }
      int k(int a) { return a + 1; }
      int get() { return x + this->y; }
      int store() { print_int(0); this->x = 5; return x; }
      int compound() { print_int(0); y += 2; return y; }
      int incr() { print_int(0); x++; return x; }
      int boxed() { print_int(0); d = 1.5; return (int)(d * 2.0); }
      int call() { print_int(0); return h(); }
      int virt() { print_int(0); return this->v(); }
      int local_arg() { int a = 4; return k(a); }
      int printing_arg() { print_int(0); return k(noisy()); }
      int value() { print_int(0); A *p = this; return p->y; }
      int guard() { int s = 0; if (this->y < 3) s = 1; return s + x; }
      int via(int w) {
        int (*f)() = &A::get;
        if (w == 1) f = &A::store;
        if (w == 2) f = &A::call;
        if (w == 3) f = &A::printing_arg;
        if (w == 4) f = &A::value;
        return f();
      }
    };
  |}

let t_funptr_method_receiver () =
  let agree name src =
    let prog = Util.check_source (funptr_method_prelude ^ src) in
    let tree = Util.engines_agree name prog in
    ignore
      (Util.engines_agree ~step_limit:(tree.steps - 1)
         (name ^ ", one step short")
         prog);
    tree
  in
  List.iter
    (fun m ->
      let name = "A::" ^ m ^ " from main" in
      let tree =
        agree name
          (Printf.sprintf
             "int main() {\n  int (*f)() = &A::%s;\n  print_int(f());\n  \
              return 0;\n}\n"
             m)
      in
      Util.check_string (name ^ ": the tree walker's error")
        "runtime error: 'this' outside a method" (Util.shown tree))
    [
      "get"; "store"; "compound"; "incr"; "boxed"; "call"; "virt";
      "local_arg"; "printing_arg"; "value"; "guard";
    ];
  let tree =
    agree "through a pointer from inside a method"
      "int main() {\n  A a;\n  A *p = new A();\n  p->y = 7;\n  \
       for (int w = 0; w < 5; w++) {\n    print_int(a.via(w));\n    \
       print_nl();\n    print_int(p->via(w));\n    print_nl();\n  }\n  \
       return 0;\n}\n"
  in
  Util.check_string "runs on the caller's receiver"
    "exit 0\n3\n8\n05\n05\n05\n05\n094\n094\n02\n07\n" (Util.shown tree);
  (* a receiver that is no object at all is not a missing [this]: a
     function that falls off its end yields void *)
  List.iter
    (fun (use, want) ->
      let tree =
        agree use
          (Printf.sprintf
             "A *lost() { }\nint main() {\n  print_int(%s);\n  return 0;\n}\n"
             use)
      in
      Util.check_string (use ^ ": the tree walker's error") want
        (Util.shown tree))
    [
      ("lost()->x", "runtime error: expected a class object");
      ("lost()->get()", "runtime error: 'this' outside a method");
    ]

let suite =
  [
    Util.test "benchmarks identical under both engines"
      t_benchmark_engine_differential;
    Util.test "one lowering serves both engines" t_shared_lowering;
    Util.test "locals whose address escapes keep their values"
      t_escaped_locals;
    Util.test "runtime error unwinding through scoped callers"
      t_unwind_runtime_error;
    Util.test "step limit unwinding through scoped callers" t_unwind_step_limit;
    Util.test "pointer chase in an if/else then-block"
      t_pointer_chase_in_then_block;
    Util.test "missing member: identical structured error"
      t_missing_member_error_parity;
    Util.test "step limit trips at the same tick" t_step_limit_same_tick;
    Util.test "abort() is status 134 in main, initializers and unwinding"
      t_abort_everywhere;
    Util.test "huge guest arrays are the same limit in both engines"
      t_huge_arrays_are_limits;
    (* function pointers as a global, a field set in a constructor
       initializer and a local returning a class pointer *)
    Util.test "function-pointer declarators in every position"
      (t_every_tier ~file:"declarators.mcc" ~output:"exit 0\n17\n10\n7\n12\n"
         ~dead:[ "Box::spare"; "Handler::unused" ]);
    (* a field whose only reads are calls through it stays live *)
    Util.test "calls through function-pointer fields"
      (t_every_tier ~file:"funptr_fields.mcc"
         ~output:"exit 0\n6\n8\n10\n13\n9\n16\n1001\n"
         ~dead:[ "Handler::unused" ]);
    Test_generated.engines_agree ~gen:Gen_mcc.(focused Control)
      "bytecode: nested control flow matches tree engine" ~count:150;
    Test_generated.engines_agree ~gen:Gen_mcc.(focused Logic)
      "bytecode: short-circuit evaluation matches tree engine" ~count:150;
    Util.test "statements the VM no longer folds" t_unfolded_statements;
    Util.test "statements over arrays of object pointers"
      t_object_array_statements;
    Util.test "compare-and-branch folds next to a join" t_folds_next_to_a_join;
    Util.test "methods called through plain function pointers"
      t_funptr_method_receiver;
  ]
