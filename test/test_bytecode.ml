(* Differential tests for the bytecode engine (PR 5).

   [Interp.run ~engine:Bytecode] must be observably identical to the
   resolved-tree walker it replaced. The benchmark differential replays
   every benchmark under both engines and compares everything the tree
   engine reports: output digest, return value, step and allocation
   counts, and the full profile snapshot.

   The qcheck properties then stress the parts the lowering changed the
   most: jump-target wiring (random nested if/while/for trees with
   break/continue — every mis-patched branch target either diverges the
   printed trace or the step count) and short-circuit evaluation
   (random &&/||/! trees over side-effecting probes, where evaluating
   one operand too many or too few is visible in the output).

   The error-parity cases pin the two failure channels: structured
   runtime errors must carry the tree engine's exact message, and
   resource limits must trip at the same tick — a program that needs
   exactly [n] steps succeeds under both engines with [step_limit = n]
   and raises [Limit_exceeded] with identical text at [n - 1]. *)

open QCheck

let allocs_counter = Telemetry.Counter.make "interp.allocations"

(* Run [prog] under [engine] observing the allocation counter, restoring
   the previous telemetry state afterwards. *)
let run_counted ~engine prog =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  let before = Telemetry.Counter.value allocs_counter in
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled was)
    (fun () ->
      let outcome = Runtime.Interp.run ~engine prog in
      (outcome, Telemetry.Counter.value allocs_counter - before))

let check_outcomes name (ot : Runtime.Interp.outcome) at
    (ob : Runtime.Interp.outcome) ab =
  let check what = Util.check_int (name ^ ": " ^ what) in
  check "return value" ot.return_value ob.return_value;
  Util.check_string (name ^ ": output md5")
    (Digest.to_hex (Digest.string ot.output))
    (Digest.to_hex (Digest.string ob.output));
  check "interp.steps" ot.steps ob.steps;
  check "interp.allocations" at ab;
  let st = ot.snapshot and sb = ob.snapshot in
  check "object_space" st.object_space sb.object_space;
  check "dead_space" st.dead_space sb.dead_space;
  check "high_water_mark" st.high_water_mark sb.high_water_mark;
  check "high_water_mark_reduced" st.high_water_mark_reduced
    sb.high_water_mark_reduced;
  check "num_objects" st.num_objects sb.num_objects;
  check "scalar_bytes" st.scalar_bytes sb.scalar_bytes;
  check "leaked_objects" st.leaked_objects sb.leaked_objects

let t_benchmark_engine_differential () =
  List.iter
    (fun (b : Benchmarks.Suite.t) ->
      let prog = Benchmarks.Suite.program b in
      let ot, at = run_counted ~engine:Runtime.Interp.Tree prog in
      let ob, ab = run_counted ~engine:Runtime.Interp.Bytecode prog in
      check_outcomes b.name ot at ob ab)
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
      let fresh = Runtime.Interp.run ~dead prog in
      let lowered = Runtime.Interp.lower prog in
      List.iter
        (fun (engine, tag) ->
          let o = Runtime.Interp.run ~engine ~dead ~lowered prog in
          check_outcomes
            (b.name ^ ", " ^ tag ^ " from one lowering")
            fresh 0 o 0)
        [
          (Runtime.Interp.Bytecode, "bytecode");
          (Runtime.Interp.Tree, "tree");
          (Runtime.Interp.Bytecode, "bytecode again");
        ])
    Benchmarks.Suite.all

(* -- jump-target wiring: random nested control flow ----------------------------- *)

(* A statement tree rendered into a [main] that traces its execution
   through [print_int]. While/for loops get a fresh bounded counter each
   so every generated program terminates; break/continue only appear
   inside a loop. The compare-and-branch fusion, the cascade folding and
   the post-patch peephole all rewrite branch operands, so the property
   that the printed trace and the step count survive lowering exercises
   every patch site. *)
type cstmt =
  | CTrace of int
  | CIf of int * cstmt list * cstmt list  (* if (acc % k == 0) ... else ... *)
  | CWhile of int * cstmt list  (* fresh counter, bound *)
  | CFor of int * cstmt list  (* fresh counter, bound *)
  | CBreakIf of int  (* inside a loop: if (acc % k == 0) break; *)
  | CContinueIf of int  (* inside a loop: if (acc % k == 0) continue; *)

let gen_cstmts =
  let open Gen in
  let leaf ~in_loop =
    if in_loop then
      frequency
        [
          (4, map (fun k -> CTrace k) (int_range 0 99));
          (1, map (fun k -> CBreakIf (k + 2)) (int_range 0 3));
          (1, map (fun k -> CContinueIf (k + 2)) (int_range 0 3));
        ]
    else map (fun k -> CTrace k) (int_range 0 99)
  in
  let rec stmt ~in_loop depth =
    if depth = 0 then leaf ~in_loop
    else
      frequency
        [
          (3, leaf ~in_loop);
          ( 2,
            let* k = int_range 2 5 in
            let* t = block ~in_loop (depth - 1) in
            let* e = block ~in_loop (depth - 1) in
            return (CIf (k, t, e)) );
          ( 2,
            let* bound = int_range 1 3 in
            let* body = block ~in_loop:true (depth - 1) in
            return (CWhile (bound, body)) );
          ( 1,
            let* bound = int_range 1 3 in
            let* body = block ~in_loop:true (depth - 1) in
            return (CFor (bound, body)) );
        ]
  and block ~in_loop depth =
    Gen.list_size (int_range 1 3) (stmt ~in_loop depth)
  in
  block ~in_loop:false 3

let render_cstmts stmts =
  let buf = Buffer.create 512 in
  let fresh = ref 0 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let rec emit s =
    match s with
    | CTrace k ->
        pr "  acc = acc * 7 + %d;\n" k;
        pr "  print_int(acc);\n"
    | CIf (k, t, e) ->
        pr "  if (acc %% %d == 0) {\n" k;
        List.iter emit t;
        pr "  } else {\n";
        List.iter emit e;
        pr "  }\n"
    | CWhile (bound, body) ->
        let v = !fresh in
        incr fresh;
        pr "  int w%d = 0;\n" v;
        pr "  while (w%d < %d) {\n" v bound;
        pr "    w%d = w%d + 1;\n" v v;
        List.iter emit body;
        pr "  }\n"
    | CFor (bound, body) ->
        let v = !fresh in
        incr fresh;
        pr "  for (int f%d = 0; f%d < %d; f%d = f%d + 1) {\n" v v bound v v;
        List.iter emit body;
        pr "  }\n"
    | CBreakIf k -> pr "  if (acc %% %d == 0) { break; }\n" k
    | CContinueIf k -> pr "  acc = acc + 1; if (acc %% %d == 0) { continue; }\n" k
  in
  Buffer.add_string buf "int main() {\n  int acc = 1;\n";
  List.iter emit stmts;
  Buffer.add_string buf "  return acc % 200;\n}\n";
  Buffer.contents buf

let engines_agree src =
  let prog = Util.check_source src in
  let ot, at = run_counted ~engine:Runtime.Interp.Tree prog in
  let ob, ab = run_counted ~engine:Runtime.Interp.Bytecode prog in
  ot.return_value = ob.return_value
  && String.equal ot.output ob.output
  && ot.steps = ob.steps && at = ab

let prop_nested_control_flow =
  Test.make ~name:"bytecode: nested control flow matches tree engine"
    ~count:150
    (make ~print:render_cstmts gen_cstmts)
    (fun stmts -> engines_agree (render_cstmts stmts))

(* -- short-circuit evaluation ---------------------------------------------------- *)

(* Random boolean trees over side-effecting probes: [probe] prints its
   id, so both which operands are evaluated and in what order are
   visible in the output. *)
type bexpr =
  | BProbe of int * bool
  | BAnd of bexpr * bexpr
  | BOr of bexpr * bexpr
  | BNot of bexpr
  | BCmp of int * int

let gen_bexpr =
  let open Gen in
  let leaf =
    oneof
      [
        map2 (fun id v -> BProbe (id, v)) (int_range 0 99) bool;
        map2 (fun a b -> BCmp (a, b)) (int_range 0 5) (int_range 0 5);
      ]
  in
  let rec expr depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          (2, map2 (fun a b -> BAnd (a, b)) (expr (depth - 1)) (expr (depth - 1)));
          (2, map2 (fun a b -> BOr (a, b)) (expr (depth - 1)) (expr (depth - 1)));
          (1, map (fun a -> BNot a) (expr (depth - 1)));
        ]
  in
  expr 4

let rec render_bexpr b =
  match b with
  | BProbe (id, v) -> Printf.sprintf "probe(%d, %d)" id (if v then 1 else 0)
  | BAnd (a, b) -> Printf.sprintf "(%s && %s)" (render_bexpr a) (render_bexpr b)
  | BOr (a, b) -> Printf.sprintf "(%s || %s)" (render_bexpr a) (render_bexpr b)
  | BNot a -> Printf.sprintf "(!%s)" (render_bexpr a)
  | BCmp (a, b) -> Printf.sprintf "(%d < %d)" a b

let render_bprog b =
  Printf.sprintf
    {|int probe(int id, int v) { print_int(id); return v; }
int main() {
  if (%s) { print_int(1000); } else { print_int(2000); }
  return 0;
}
|}
    (render_bexpr b)

let prop_short_circuit =
  Test.make ~name:"bytecode: short-circuit evaluation matches tree engine"
    ~count:200
    (make ~print:render_bprog gen_bexpr)
    (fun b -> engines_agree (render_bprog b))

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
  Util.check_bool "engines agree" true (engines_agree src);
  let _, r = Runtime.Interp.run_profiled (Util.check_source src) in
  Util.check_bool "the then-block exit is the fused jump" true
    (List.mem_assoc "ITickLoadFieldStoreJump" r.Runtime.Vm_profile.r_opcodes)

(* -- escaped locals and unwinding (examples/corpus) ------------------------------ *)

(* The VM runs activations on per-depth pooled frames unless a body can
   take a local's address, and an exception leaves the pool depth
   wherever the raise left it. These corpus programs check both rules
   against the tree engine: pointers to locals read after later calls
   at the same depth, and a runtime error and a step-limit hit unwinding
   through callers whose stack objects' destructors make calls. *)

let steps_counter = Telemetry.Counter.make "interp.steps"

let corpus_source name =
  In_channel.with_open_bin
    (Filename.concat
       (Filename.dirname Sys.executable_name)
       ("../examples/corpus/" ^ name))
    In_channel.input_all

let rec describe_exn = function
  | Runtime.Value.Runtime_error m -> "runtime error: " ^ m
  | Runtime.Value.Limit_exceeded m -> "resource limit: " ^ m
  | Fun.Finally_raised e -> "raised while unwinding: " ^ describe_exn e
  | e -> raise e

(* What a run shows: exit code and output, or the error text (a failed
   run's output is not returned by either engine), plus the steps and
   allocations it took, which the engines count even when a run fails. *)
let observe ~engine ?step_limit prog =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  let s0 = Telemetry.Counter.value steps_counter
  and a0 = Telemetry.Counter.value allocs_counter in
  let shown =
    Fun.protect
      ~finally:(fun () -> Telemetry.set_enabled was)
      (fun () ->
        match Runtime.Interp.run ~engine ?step_limit prog with
        | o -> Printf.sprintf "exit %d\n%s" o.return_value o.output
        | exception e -> describe_exn e)
  in
  ( shown,
    Telemetry.Counter.value steps_counter - s0,
    Telemetry.Counter.value allocs_counter - a0 )

let engines_agree_on ?step_limit name src =
  let prog = Util.check_source src in
  let st, nt, at = observe ~engine:Runtime.Interp.Tree ?step_limit prog in
  let sb, nb, ab = observe ~engine:Runtime.Interp.Bytecode ?step_limit prog in
  Util.check_string (name ^ ": outcome") st sb;
  Util.check_int (name ^ ": steps") nt nb;
  Util.check_int (name ^ ": allocations") at ab;
  st

let corpus_engines_agree ?step_limit name =
  engines_agree_on ?step_limit name (corpus_source name)

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

(* Function pointers as a global, a field set in a constructor
   initializer and a local returning a class pointer: every call-graph
   tier finds the same two dead members, and with them both engines agree
   on output, steps, allocations and the space snapshot. *)
let t_declarators () =
  Util.check_string "output" "exit 0\n17\n10\n7\n12\n"
    (corpus_engines_agree "declarators.mcc");
  let prog = Util.check_source (corpus_source "declarators.mcc") in
  List.iter
    (fun call_graph ->
      let r = Deadmem.Liveness.analyze ~config:(Deadmem.Config.make call_graph) prog in
      Util.check_dead r [ "Box::spare"; "Handler::unused" ];
      let dead = Deadmem.Liveness.dead_set r in
      let snapshot engine = (Runtime.Interp.run ~engine ~dead prog).snapshot in
      Util.check_bool
        (Callgraph.algorithm_to_string call_graph ^ ": snapshots agree")
        true
        (snapshot Runtime.Interp.Tree = snapshot Runtime.Interp.Bytecode))
    Callgraph.[ Cha; Rta; Pta; Pta1 ]

(* [abort()] ends a run with status 134 and the output so far wherever
   it is called: in main, in a global initializer (before main runs),
   and in a destructor while an error unwinds its scope. *)
let t_abort_everywhere () =
  List.iter
    (fun (name, src, want) ->
      Util.check_string name want (engines_agree_on name src))
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
        (engines_agree_on name (Printf.sprintf src n)))
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
    Util.test "function-pointer declarators in every position" t_declarators;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_nested_control_flow; prop_short_circuit ]
