(* Points-to analysis tests: the three-tier precision chain
   dead(CHA) ⊆ dead(RTA) ⊆ dead(PTA) over the whole benchmark suite
   (the soundness regression guard), plus unit tests for the PTA
   precision wins, the RTA fallback, havoc degradation, function
   pointers, virtual deletes, and two regression cases (array-element
   flow, base-constructor [this] escape). *)

open Sema.Typed_ast

let analyze_with alg prog =
  let config = { Deadmem.Config.paper with Deadmem.Config.call_graph = alg } in
  Deadmem.Liveness.analyze ~config prog

let build ?(algorithm = Callgraph.Pta) src =
  Callgraph.build ~algorithm (Util.check_source src)

let reachable cg cls m = Callgraph.reachable cg (Func_id.FMethod (cls, m))

(* -- the differential guard over the whole suite ------------------------------ *)

let t_differential () =
  let strictly_better = ref 0 in
  List.iter
    (fun (b : Benchmarks.Suite.t) ->
      let prog = Benchmarks.Suite.program b in
      let rc = analyze_with Callgraph.Cha prog in
      let rr = analyze_with Callgraph.Rta prog in
      let rp = analyze_with Callgraph.Pta prog in
      let dead r = Util.dead_names r in
      let subset a b = List.for_all (fun x -> List.mem x b) a in
      (* a more precise call graph may only find MORE dead members *)
      Util.check_bool
        (b.Benchmarks.Suite.name ^ ": dead(CHA) subset of dead(RTA)")
        true
        (subset (dead rc) (dead rr));
      Util.check_bool
        (b.Benchmarks.Suite.name ^ ": dead(RTA) subset of dead(PTA)")
        true
        (subset (dead rr) (dead rp));
      (* ... while reaching only FEWER functions *)
      let nodes r = Callgraph.num_nodes r.Deadmem.Liveness.callgraph in
      Util.check_bool
        (b.Benchmarks.Suite.name ^ ": nodes CHA >= RTA")
        true
        (nodes rc >= nodes rr);
      Util.check_bool
        (b.Benchmarks.Suite.name ^ ": nodes RTA >= PTA")
        true
        (nodes rr >= nodes rp);
      if nodes rp < nodes rr then incr strictly_better)
    Benchmarks.Suite.all;
  Util.check_bool "PTA strictly more precise on at least 2 benchmarks" true
    (!strictly_better >= 2)

(* -- precision: flow-based dispatch beats the instantiated cone ---------------- *)

let precision_src =
  {|class A { public: virtual int f() { return 1; } };
    class B : public A { public: B() : x(1) { } virtual int f() { return x; } int x; };
    class C : public A { public: C() : y(2) { } virtual int f() { return y; } int y; };
    int use(A *p) { return p->f(); }
    int main() {
      B *b = new B();
      C *c = new C();
      if (c == NULL) return 1;
      return use(b);
    }|}

let t_precision_dispatch () =
  (* C is instantiated but no C object ever reaches a dispatch site, so
     only PTA prunes C::f *)
  let pta = build precision_src in
  let rta = build ~algorithm:Callgraph.Rta precision_src in
  let cha = build ~algorithm:Callgraph.Cha precision_src in
  Util.check_bool "PTA: B::f reachable" true (reachable pta "B" "f");
  Util.check_bool "PTA: C::f pruned" false (reachable pta "C" "f");
  Util.check_bool "RTA: C::f kept" true (reachable rta "C" "f");
  Util.check_bool "CHA: C::f kept" true (reachable cha "C" "f")

let t_precision_dead_member () =
  (* pruning C::f turns the member it reads dead *)
  let prog = Util.check_source precision_src in
  let rp = analyze_with Callgraph.Pta prog in
  let rr = analyze_with Callgraph.Rta prog in
  Util.check_bool "PTA: C::y dead" true (Util.is_dead rp "C" "y");
  Util.check_bool "RTA: C::y live" false (Util.is_dead rr "C" "y");
  Util.check_bool "PTA: B::x live" false (Util.is_dead rp "B" "x")

let t_pta_solution_api () =
  let prog = Util.check_source precision_src in
  let sol = Pta.analyze prog in
  Util.check_bool "no havoc" false (Pta.havoc sol);
  Util.check_bool "B::f reached" true
    (FuncSet.mem (Func_id.FMethod ("B", "f")) (Pta.reachable sol));
  Util.check_bool "C::f not reached" false
    (FuncSet.mem (Func_id.FMethod ("C", "f")) (Pta.reachable sol));
  Util.check_bool "B instantiated" true (List.mem "B" (Pta.instantiated sol));
  Util.check_bool "C instantiated" true (List.mem "C" (Pta.instantiated sol))

(* -- fallback: unknown receivers degrade to the RTA cone ----------------------- *)

let fallback_src =
  {|class A { public: virtual int f() { return 1; } };
    class B : public A { public: virtual int f() { return 2; } };
    int cb(A *p) { return p->f(); }
    int main() {
      int (*g)(A *) = cb;
      B *b = new B();
      if (g == NULL) return 1;
      return b == NULL;
    }|}

let t_fallback_top_receiver () =
  (* cb is address-taken, so it is a root whose parameter is unknown:
     the dispatch in its body must fall back to the RTA cone, not
     silently resolve to nothing *)
  let pta = build fallback_src in
  Util.check_bool "PTA fallback keeps B::f" true (reachable pta "B" "f")

(* -- havoc: an unmodelable store degrades everything to RTA -------------------- *)

let havoc_src =
  {|class A { public: virtual int f() { return 1; } };
    class B : public A { public: virtual int f() { return 2; } };
    int main() {
      long raw = 64;
      A **slot = (A **)raw;
      B *b = new B();
      *slot = b;
      A *p = *slot;
      return p->f();
    }|}

let t_havoc_degrades_to_rta () =
  let prog = Util.check_source havoc_src in
  let sol = Pta.analyze prog in
  Util.check_bool "havoc raised" true (Pta.havoc sol);
  let pta = Callgraph.build ~algorithm:Callgraph.Pta prog in
  let rta = Callgraph.build ~algorithm:Callgraph.Rta prog in
  Util.check_bool "B::f still reachable" true (reachable pta "B" "f");
  Util.check_int "havoc: PTA collapses to RTA" (Callgraph.num_nodes rta)
    (Callgraph.num_nodes pta)

(* -- function pointers --------------------------------------------------------- *)

let funptr_src =
  {|int one() { return 1; }
    int two() { return 2; }
    int main() {
      int (*g)() = one;
      int (*h)() = two;
      if (h == NULL) return 9;
      return g();
    }|}

let t_funptr_edges () =
  (* both functions stay reachable (address-taken functions are §3.3
     roots in every tier), but only PTA knows the indirect call in main
     cannot target [two] *)
  let pta = build funptr_src in
  let rta = build ~algorithm:Callgraph.Rta funptr_src in
  let callees_of cg =
    Callgraph.callees cg (Func_id.FFree "main") |> FuncSet.elements
  in
  Util.check_bool "PTA: main calls one" true
    (List.mem (Func_id.FFree "one") (callees_of pta));
  Util.check_bool "PTA: main does not call two" false
    (List.mem (Func_id.FFree "two") (callees_of pta));
  Util.check_bool "RTA: main conservatively calls two" true
    (List.mem (Func_id.FFree "two") (callees_of rta));
  Util.check_bool "PTA: two still reachable (root)" true
    (Callgraph.reachable pta (Func_id.FFree "two"))

(* -- virtual delete ------------------------------------------------------------ *)

let vdelete_src =
  {|class A { public: virtual ~A() { } };
    class B : public A { public: virtual ~B() { } };
    class C : public A { public: virtual ~C() { } };
    int main() {
      A *p = new B();
      C *c = new C();
      delete p;
      return c == NULL;
    }|}

let t_virtual_delete () =
  let pta = build vdelete_src in
  let rta = build ~algorithm:Callgraph.Rta vdelete_src in
  let dtor cg cls = Callgraph.reachable cg (Func_id.FDtor cls) in
  Util.check_bool "PTA: ~B runs" true (dtor pta "B");
  Util.check_bool "PTA: ~C pruned (never deleted)" false (dtor pta "C");
  Util.check_bool "RTA: ~C kept" true (dtor rta "C")

(* -- regression: stores into array elements must flow -------------------------- *)

let array_src =
  {|class A { public: virtual int f() { return 1; } };
    class B : public A { public: virtual int f() { return 2; } };
    class Box {
    public:
      Box() { for (int i = 0; i < 4; i++) slots[i] = NULL; }
      A *slots[4];
    };
    int main() {
      Box *bx = new Box();
      bx->slots[0] = new B();
      A *p = bx->slots[0];
      return p->f();
    }|}

let t_array_element_flow () =
  let pta = build array_src in
  Util.check_bool "B::f reachable through array member" true
    (reachable pta "B" "f")

(* -- regression: [this] escaping from a base-class constructor ----------------- *)

let escape_src =
  {|class Reg;
    class Registry {
    public:
      Registry() : head(NULL) { }
      void add(Reg *r);
      Reg *head;
    };
    class Reg {
    public:
      Reg(Registry *rr) { rr->add(this); }
      virtual int go() { return 1; }
    };
    class Worker : public Reg {
    public:
      Worker(Registry *rr) : Reg(rr) { }
      virtual int go() { return 2; }
    };
    void Registry::add(Reg *r) { head = r; }
    int main() {
      Registry *rr = new Registry();
      Worker *w = new Worker(rr);
      if (w == NULL) return 9;
      return rr->head->go();
    }|}

let t_base_ctor_this_escape () =
  (* the Worker object registers itself from Reg's constructor: the
     derived identity must survive the escape so the dispatch through
     the registry still reaches the override *)
  let pta = build escape_src in
  Util.check_bool "Worker::go reachable" true (reachable pta "Worker" "go")

(* -- per-port results, pinned ----------------------------------------------- *)

(* For each port under every tier: (nodes, edges, dead members) of the
   call graph the verdict used, and, for PTA and PTA1, the deciding
   solution's (constraints, delta props, solver rounds). The subset
   chain above lets a change shift a verdict within the chain; these
   rows do not. *)
let pinned =
  let jikes =
    [ "AstField::javadoc_ref"; "AstMethod::line_table_ref";
      "JLexer::deprecated_count"; "JParser::n_errors";
      "SymbolTable::n_probes" ]
  in
  let npic = [ "Cell::debug_flux"; "FieldSolver::spectral_modes" ] in
  let lcom =
    [ "Expr::type_cache"; "Lexer::pushback"; "SymTab::hits"; "VM::trace_pc" ]
  in
  let taldict =
    [ "Histogram::last_update"; "TDictIterator::seen";
      "TDictStats::avg_chain_x100"; "TDictStats::dict";
      "TDictStats::max_chain"; "TDictStats::min_chain";
      "TDictionary::load_pct"; "TDictionary::mod_count";
      "TDictionary::stat_collisions"; "TObject::refcount";
      "TSortedDictionary::cmp_mode"; "TSortedDictionary::sorted" ]
  in
  let ixx =
    [ "Decl::repo_version"; "OpDecl::context_id"; "Scanner::include_depth" ]
  in
  let simulate =
    [ "RandomStream::antithetic"; "RandomStream::stream_id";
      "SimCalendar::max_length"; "SimCalendar::trace_level";
      "SimMonitor::enabled"; "SimMonitor::event_mask";
      "SimResource::capacity"; "SimResource::in_use";
      "SimResource::queue_len"; "StatCounter::batch_size";
      "StatCounter::sum_sq" ]
  in
  let sched =
    [ "Insn::debug_line"; "Insn::profile_count"; "RegInfo::coalesce_hint";
      "RegInfo::spill_cost" ]
  in
  let hotwire_cha =
    [ "Image::pixels"; "Renderer::aa_level"; "Renderer::clip_x";
      "Renderer::clip_y"; "Renderer::hit_test_slop"; "Slide::transition";
      "Style::cache_key"; "Style::dirty" ]
  in
  let hotwire =
    [ "Chart::legend_pos"; "Chart::n_series"; "Image::pixels";
      "Image::scale_pct"; "Renderer::aa_level"; "Renderer::clip_x";
      "Renderer::clip_y"; "Renderer::hit_test_slop"; "Slide::transition";
      "Style::cache_key"; "Style::dirty" ]
  in
  Callgraph.
    [
      ("jikes", Cha, (32, 45, jikes), None);
      ("jikes", Rta, (32, 45, jikes), None);
      ("jikes", Pta, (30, 41, jikes), Some (104, 213, 6));
      ("jikes", Pta1, (30, 41, jikes), Some (84, 252, 6));
      ("idl", Cha, (23, 41, [ "IRObject::repo_tag" ]), None);
      ("idl", Rta, (23, 41, [ "IRObject::repo_tag" ]), None);
      ("idl", Pta, (21, 33, [ "IRObject::repo_tag" ]), Some (58, 111, 3));
      ("idl", Pta1, (21, 33, [ "IRObject::repo_tag" ]), Some (62, 115, 3));
      ("npic", Cha, (16, 15, npic), None);
      ("npic", Rta, (16, 15, npic), None);
      ("npic", Pta, (16, 15, npic), Some (38, 46, 1));
      ("npic", Pta1, (16, 15, npic), Some (33, 46, 1));
      ("lcom", Cha, (38, 57, lcom), None);
      ("lcom", Rta, (38, 57, lcom), None);
      ("lcom", Pta, (36, 52, lcom), Some (83, 174, 9));
      ("lcom", Pta1, (36, 52, lcom), Some (60, 173, 9));
      ("taldict", Cha, (23, 30, taldict), None);
      ("taldict", Rta, (22, 28, taldict), None);
      ("taldict", Pta, (22, 28, taldict), Some (61, 61, 4));
      ("taldict", Pta1, (22, 28, taldict), Some (50, 64, 4));
      ("ixx", Cha, (28, 33, ixx), None);
      ("ixx", Rta, (28, 33, ixx), None);
      ("ixx", Pta, (26, 31, ixx), Some (57, 142, 4));
      ("ixx", Pta1, (26, 31, ixx), Some (45, 138, 4));
      ("simulate", Cha, (18, 18, simulate), None);
      ("simulate", Rta, (18, 18, simulate), None);
      ("simulate", Pta, (18, 18, simulate), Some (25, 49, 3));
      ("simulate", Pta1, (18, 18, simulate), Some (20, 52, 4));
      ("sched", Cha, (10, 10, sched), None);
      ("sched", Rta, (10, 10, sched), None);
      ("sched", Pta, (10, 10, sched), Some (52, 51, 6));
      ("sched", Pta1, (10, 10, sched), Some (52, 56, 6));
      ("hotwire", Cha, (25, 26, hotwire_cha), None);
      ("hotwire", Rta, (23, 24, hotwire), None);
      ("hotwire", Pta, (22, 23, hotwire), Some (52, 130, 3));
      ("hotwire", Pta1, (22, 23, hotwire), Some (51, 112, 5));
      ("deltablue", Cha, (63, 102, []), None);
      ("deltablue", Rta, (63, 102, []), None);
      ("deltablue", Pta, (56, 93, []), Some (169, 601, 3));
      ("deltablue", Pta1, (56, 93, []), Some (328, 762, 4));
      ("richards", Cha, (30, 44, []), None);
      ("richards", Rta, (30, 44, []), None);
      ("richards", Pta, (30, 44, []), Some (156, 762, 10));
      ("richards", Pta1, (30, 44, []), Some (558, 1712, 9));
    ]

let t_pinned_ports () =
  List.iter
    (fun (name, alg, shape, solver) ->
      let b =
        List.find (fun (b : Benchmarks.Suite.t) -> b.name = name)
          Benchmarks.Suite.all
      in
      let r = analyze_with alg (Benchmarks.Suite.program b) in
      let cg = r.Deadmem.Liveness.callgraph in
      let tag = name ^ " " ^ Callgraph.algorithm_to_string alg in
      Alcotest.(check (triple int int (list string)))
        (tag ^ ": nodes, edges, dead") shape
        (Callgraph.num_nodes cg, Callgraph.num_edges cg, Util.dead_names r);
      Alcotest.(check (option (triple int int int)))
        (tag ^ ": constraints, delta props, solver rounds") solver
        (Option.map
           (fun (s : Pta.stats) ->
             (s.p_constraints, s.p_delta_props, s.p_solver_iters))
           cg.Callgraph.pta_stats))
    pinned

(* -- explain names every receiver behind an edge ------------------------------ *)

let two_receivers_src =
  {|class A { public: virtual int f() { return 0; } };
class B : public A { public: B() : y(1) { } virtual int f() { return y; } int y; };
int main() {
  A *p = new B();
  A *q = new B();
  return p->f() + q->f();
}|}

let t_explain_every_receiver () =
  (* two call sites produce the one edge main -> B::f: both receivers'
     allocation sites are its provenance, not just the last one seen *)
  let config = { Deadmem.Config.paper with call_graph = Callgraph.Pta } in
  let _, r = Util.analyze ~config two_receivers_src in
  let out = Deadmem.Liveness.explain r ("B", "y") in
  List.iter
    (fun line ->
      Util.check_bool ("explain names the site on line " ^ line) true
        (Util.contains_sub ~sub:("new B at <string>:" ^ line ^ ":") out))
    [ "4"; "5" ]

let suite =
  [
    Util.test "dead(CHA) ⊆ dead(RTA) ⊆ dead(PTA) on the whole suite"
      t_differential;
    Util.test "flow-based dispatch prunes unreached receivers"
      t_precision_dispatch;
    Util.test "pruned dispatch turns members dead" t_precision_dead_member;
    Util.test "solution API: reachable, instantiated, havoc"
      t_pta_solution_api;
    Util.test "top receivers fall back to the RTA cone" t_fallback_top_receiver;
    Util.test "unmodelable store havocs back to RTA" t_havoc_degrades_to_rta;
    Util.test "function-pointer calls resolve flow-sensitively" t_funptr_edges;
    Util.test "virtual delete resolves from points-to sets" t_virtual_delete;
    Util.test "regression: array-element stores flow" t_array_element_flow;
    Util.test "regression: this escaping a base ctor" t_base_ctor_this_escape;
    Util.test "per-port results pinned, every tier" t_pinned_ports;
    Util.test "explain names every receiver behind an edge"
      t_explain_every_receiver;
  ]
