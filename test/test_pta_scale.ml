(* Tests for the scaled points-to tier: the sorted-array set layer
   against a reference implementation, the production solver against
   the naive reference solver, and the 1-CFA refinement's soundness and
   precision.

   - Ptset is checked against Stdlib.Set over random operation mixes,
     and a no-op union or diff must return its operand physically;
   - [Pta] must agree with [Pta_ref] on reachability, instantiation,
     address-taken functions, havoc, and the receiver classes and
     function-pointer targets of every expression, on the paper
     benchmarks, every inline points-to test program, and random
     synthetic programs;
   - 1-CFA must reach no function the reference does not, and inside
     the functions it reaches, wherever the reference knows an
     expression's receiver classes, 1-CFA must know a subset of them;
   - the four-tier chain dead(CHA) ⊆ dead(RTA) ⊆ dead(PTA) ⊆ dead(PTA1)
     must hold across the suite, and on one program cloning must
     strictly grow the dead list;
   - allocation-site cloning must not lose flow through copy-edge
     cycles (where solvers that collapse cycles classically go wrong);
   - on deltablue, cloning must strictly shrink [pta.fallback_sites]. *)

open Sema.Typed_ast
module IS = Set.Make (Int)

(* -- Ptset vs the reference implementation ------------------------------------- *)

type op = OUnion of int list | ODiff of int list | OAdd of int | OSing of int

let gen_op =
  let open QCheck.Gen in
  let small_list = list_size (int_range 0 8) (int_bound 40) in
  frequency
    [
      (3, map (fun l -> OUnion l) small_list);
      (2, map (fun l -> ODiff l) small_list);
      (3, map (fun x -> OAdd x) (int_bound 40));
      (1, map (fun x -> OSing x) (int_bound 40));
    ]

let prop_ptset_oracle =
  QCheck.Test.make ~count:200 ~name:"Ptset agrees with Set.Make(Int)"
    QCheck.(make Gen.(list_size (int_range 1 30) gen_op))
    (fun ops ->
      let inter l = List.fold_left (fun s x -> Ptset.add x s) Ptset.empty l in
      let apply (p, o) = function
        | OUnion l -> (Ptset.union p (inter l), IS.union o (IS.of_list l))
        | ODiff l -> (Ptset.diff p (inter l), IS.diff o (IS.of_list l))
        | OAdd x -> (Ptset.add x p, IS.add x o)
        | OSing x -> (Ptset.union p (Ptset.singleton x), IS.add x o)
      in
      let p, o = List.fold_left apply (Ptset.empty, IS.empty) ops in
      let sub = inter (List.filteri (fun i _ -> i mod 2 = 0) (IS.elements o)) in
      let others =
        inter (List.filter (fun x -> not (IS.mem x o)) (List.init 45 Fun.id))
      in
      Ptset.elements p = IS.elements o
      && Ptset.cardinal p = IS.cardinal o
      && IS.for_all (fun x -> Ptset.mem x p) o
      && Ptset.subset p (Ptset.add 99 p)
      (* a no-op union or diff hands back its operand, allocating
         nothing *)
      && Ptset.union p sub == p
      && Ptset.diff p others == p)

(* A reference cycle through a field — a 2-node copy cycle in the
   constraint graph — and a receiver that must still see both
   allocation sites. *)
let cycle_src =
  {|class Node {
    public:
      Node() : next(NULL), tag(0) { }
      Node *next;
      int tag;
      virtual int id() { return tag; }
    };
    class Special : public Node {
    public:
      virtual int id() { return 42; }
    };
    int main() {
      Node *a = new Node();
      Node *b = new Special();
      a->next = b;
      b->next = a;
      Node *p = a;
      Node *q = p->next;
      p->next = q;
      return q->id();
    }|}

(* A 4-node copy cycle a -> Shape::link -> c -> b -> a: locals reassigned
   in a loop (so none is substituted away) and a field hop. Each
   allocation reaches the other three nodes only around the cycle; [d]
   is off it and keeps its one class. *)
let copy_cycle_src =
  {|class Shape {
    public:
      Shape() : link(NULL) { }
      Shape *link;
      virtual int area() { return 0; }
    };
    class Square : public Shape { public: virtual int area() { return 4; } };
    class Tri : public Shape { public: virtual int area() { return 3; } };
    class Circle : public Shape { public: virtual int area() { return 7; } };
    int main() {
      Shape *a = new Square();
      Shape *b = new Tri();
      Shape *c = new Circle();
      Shape *d = NULL;
      d = new Shape();
      int n = d->area();
      while (n < 100) {
        b->link = a;
        a = b;
        b = c;
        c = a->link;
        n = n + a->area() + b->area() + c->area();
      }
      return n;
    }|}

(* The program where 1-CFA changes a dead list: [id] merges both
   allocation sites for the context-insensitive tiers, so [x->f()] may
   reach [B::f] and [B::b_only] is read; cloning [id] per call site
   gives [x] only the [A] site, and [B::f] becomes unreachable. *)
let onecfa_id_src =
  {|class Base {
    public:
      virtual int f() { return 0; }
    };
    class A : public Base {
    public:
      A() : a_only(1) { }
      int a_only;
      virtual int f() { return a_only; }
    };
    class B : public Base {
    public:
      B() : b_only(2) { }
      int b_only;
      virtual int f() { return b_only; }
    };
    Base *id(Base *p) { return p; }
    int main() {
      Base *x = id(new A());
      Base *y = id(new B());
      return x->f();
    }|}

(* Locals that local copy substitution must keep apart from their
   initializer, one per exclusion: each is written after its
   declaration (through a [T*&] formal, through [&], through a [T*&]
   local, by assignment), is declared twice, or shadows a parameter.
   Every one is followed by a virtual call on the local and on its
   initializer, whose receiver sets differ unless the write is lost or
   leaks into the initializer. *)
let copy_writes_src =
  {|class Base { public: virtual int f() { return 0; } };
    class B : public Base { public: virtual int f() { return 1; } };
    class C : public Base { public: virtual int f() { return 2; } };
    class D : public Base { public: virtual int f() { return 3; } };
    void set(Base *&p) { p = new C(); }
    int shadow(Base *p) {
      int n = p->f();
      { Base *p = new D(); n = n + p->f(); }
      return n;
    }
    int main() {
      Base *s1 = new B();
      Base *x = s1;
      set(x);
      int n = x->f() + s1->f();
      Base *s2 = new B();
      Base *y = s2;
      Base **py = &y;
      *py = new C();
      n = n + y->f() + s2->f();
      Base *s3 = new B();
      Base *z = s3;
      Base *&r = z;
      r = new C();
      n = n + z->f() + s3->f();
      Base *s4 = new B();
      Base *w = s4;
      w = new C();
      n = n + w->f() + s4->f();
      Base *s5 = new B();
      { Base *u = s5; n = n + u->f() + s5->f(); }
      { Base *u = new C(); n = n + u->f(); }
      return n + shadow(new B());
    }|}

(* -- Pta against the naive reference solver, per expression ------------------- *)

let gen_synth_params =
  let open QCheck.Gen in
  let* seed = int_bound 1000 in
  let* classes = int_range 1 4 in
  let* sites = int_range 1 6 in
  let* chains = int_range 1 3 in
  let* chain_len = int_range 2 12 in
  return { Benchmarks.Synth.seed; classes; sites; chains; chain_len }

let ports () =
  List.map
    (fun (b : Benchmarks.Suite.t) ->
      (b.Benchmarks.Suite.name, Benchmarks.Suite.program b))
    Benchmarks.Suite.all

(* Every inline test program of the points-to suites, checked fresh. *)
let inline_programs () =
  List.map
    (fun (name, src) -> (name, Util.check_source src))
    [
      ("precision", Test_pta.precision_src);
      ("fallback", Test_pta.fallback_src);
      ("havoc", Test_pta.havoc_src);
      ("funptr", Test_pta.funptr_src);
      ("vdelete", Test_pta.vdelete_src);
      ("array", Test_pta.array_src);
      ("escape", Test_pta.escape_src);
      ("two_receivers", Test_pta.two_receivers_src);
      ("cycle", cycle_src);
      ("copy_cycle", copy_cycle_src);
      ("onecfa_id", onecfa_id_src);
      ("copy_writes", copy_writes_src);
    ]

(* Every expression occurrence of the program: global initializers and
   the initializers and body of every function [keep] admits. *)
let all_exprs ?(keep = fun _ -> true) prog =
  let collect acc e = e :: acc in
  List.fold_left
    (fun acc (g : global) ->
      match g.g_init with Some e -> fold_expr collect acc e | None -> acc)
    (FuncMap.fold
       (fun id fn acc -> if keep id then fold_func_exprs collect acc fn else acc)
       prog.funcs [])
    prog.globals

let sorted xs = Option.map (List.sort compare) xs

let show_answer show = function
  | None -> "unknown"
  | Some xs -> "{" ^ String.concat ", " (List.map show xs) ^ "}"

(* The first disagreement between the reference solver and [Pta]
   (Insensitive), or [None]. *)
let ref_mismatch prog =
  let r = Pta_ref.analyze prog and p = Pta.analyze prog in
  let at (e : texpr) what a b =
    Some
      (Printf.sprintf "%s at %s: reference %s, Pta %s" what
         (Frontend.Source.span_to_string e.tloc)
         a b)
  in
  let site e =
    let rc = sorted (Pta_ref.receiver_classes r e)
    and pc = sorted (Pta.receiver_classes p e) in
    let rf = sorted (Pta_ref.funptr_targets r e)
    and pf = sorted (Pta.funptr_targets p e) in
    if rc <> pc then
      at e "receiver_classes" (show_answer Fun.id rc) (show_answer Fun.id pc)
    else if rf <> pf then
      at e "funptr_targets"
        (show_answer Func_id.to_string rf)
        (show_answer Func_id.to_string pf)
    else None
  in
  if not (FuncSet.equal (Pta_ref.reachable r) (Pta.reachable p)) then
    Some "reachable"
  else if
    List.sort compare (Pta_ref.instantiated r)
    <> List.sort compare (Pta.instantiated p)
  then Some "instantiated"
  else if not (FuncSet.equal (Pta_ref.address_taken r) (Pta.address_taken p))
  then Some "address_taken"
  else if Pta_ref.havoc r <> Pta.havoc p then Some "havoc"
  else List.find_map site (all_exprs prog)

let check_agrees (name, prog) =
  Alcotest.(check (option string)) (name ^ ": Pta = reference") None
    (ref_mismatch prog)

let t_ref_differential_ports () = List.iter check_agrees (ports ())
let t_ref_differential_inline () = List.iter check_agrees (inline_programs ())

let prop_ref_differential =
  QCheck.Test.make ~count:30
    ~name:"synthetic programs: Pta = reference solver per expression"
    (QCheck.make gen_synth_params)
    (fun params ->
      match ref_mismatch (Benchmarks.Synth.program params) with
      | None -> true
      | Some m -> QCheck.Test.fail_report m)

(* 1-CFA refines the reference: it reaches no function the reference
   does not, and inside the functions it reaches, wherever the reference
   knows a receiver's classes, 1-CFA knows them too and names no
   others. Outside them 1-CFA answers [None] by contract (an expression
   it proved unreachable has no points-to set), so the per-site check
   stops there. The first place 1-CFA leaves the reference, or [None]. *)
let onecfa_mismatch prog =
  let r = Pta_ref.analyze prog and p1 = Pta.analyze ~mode:Pta.OneCfa prog in
  let reached = Pta.reachable p1 in
  let site (e : texpr) =
    match Pta_ref.receiver_classes r e with
    | None -> None
    | Some cs ->
        let ok =
          match Pta.receiver_classes p1 e with
          | Some cs1 -> List.for_all (fun c -> List.mem c cs) cs1
          | None -> false
        in
        if ok then None
        else
          Some
            (Printf.sprintf "1-CFA at %s leaves the reference's %s"
               (Frontend.Source.span_to_string e.tloc)
               (show_answer Fun.id (Some cs)))
  in
  if not (FuncSet.subset reached (Pta_ref.reachable r)) then
    Some "reachable(1-CFA) is not within reachable(reference)"
  else
    List.find_map site (all_exprs ~keep:(fun id -> FuncSet.mem id reached) prog)

let t_onecfa_within_ref () =
  List.iter
    (fun (name, prog) ->
      Alcotest.(check (option string)) (name ^ ": 1-CFA within the reference")
        None (onecfa_mismatch prog))
    (ports () @ inline_programs ())

(* -- the four-tier precision chain --------------------------------------------- *)

let analyze_with alg prog =
  let config = { Deadmem.Config.paper with Deadmem.Config.call_graph = alg } in
  Deadmem.Liveness.analyze ~config prog

let t_four_tier_chain () =
  List.iter
    (fun (b : Benchmarks.Suite.t) ->
      let prog = Benchmarks.Suite.program b in
      let dead alg = Util.dead_names (analyze_with alg prog) in
      let subset a b = List.for_all (fun x -> List.mem x b) a in
      let dc = dead Callgraph.Cha
      and dr = dead Callgraph.Rta
      and dp = dead Callgraph.Pta
      and d1 = dead Callgraph.Pta1 in
      let name part = b.Benchmarks.Suite.name ^ ": " ^ part in
      Util.check_bool (name "dead(CHA) ⊆ dead(RTA)") true (subset dc dr);
      Util.check_bool (name "dead(RTA) ⊆ dead(PTA)") true (subset dr dp);
      Util.check_bool (name "dead(PTA) ⊆ dead(PTA1)") true (subset dp d1))
    Benchmarks.Suite.all;
  (* no port separates PTA from PTA1; this program does *)
  let prog = Util.check_source onecfa_id_src in
  let dead alg = Util.dead_names (analyze_with alg prog) in
  List.iter
    (fun (tier, alg) ->
      Alcotest.(check (list string)) ("onecfa_id: dead(" ^ tier ^ ")") []
        (dead alg))
    [ ("CHA", Callgraph.Cha); ("RTA", Callgraph.Rta); ("PTA", Callgraph.Pta) ];
  Alcotest.(check (list string)) "onecfa_id: dead(PTA1)" [ "B::b_only" ]
    (dead Callgraph.Pta1)

(* -- a deterministic twin of the synth_pta workload ------------------------- *)

(* One generated program at the top of the synth_pta size ranges: its
   chain locals are single-definition copies, so local copy substitution
   decides the solver counters pinned here, and the reference solver
   must still agree with [Pta] on every expression. *)
let synth_twin =
  {
    Benchmarks.Synth.seed = 7;
    classes = 32;
    sites = 48;
    chains = 12;
    chain_len = 400;
  }

let t_synth_twin () =
  let prog = Benchmarks.Synth.program synth_twin in
  let r = analyze_with Callgraph.Pta prog in
  let pads = List.init 32 (fun k -> Printf.sprintf "Node%d::pad%d" k k) in
  Alcotest.(check (list string)) "dead members" (List.sort compare pads)
    (Util.dead_names r);
  Alcotest.(check (option (triple int int int)))
    "constraints, delta props, solver rounds" (Some (275, 2888, 53))
    (Option.map
       (fun (s : Pta.stats) ->
         (s.p_constraints, s.p_delta_props, s.p_solver_iters))
       r.Deadmem.Liveness.callgraph.Callgraph.pta_stats);
  check_agrees ("synth twin", prog)

(* -- dispatch work grows with sites plus classes ---------------------------- *)

(* One receiver over [classes] subclasses of [N], each overriding
   [id], followed by [calls] virtual calls on it. *)
let one_receiver_src ~classes ~calls =
  let b = Buffer.create 4096 in
  Buffer.add_string b "class N { public: virtual int id() { return 0; } };\n";
  for c = 0 to classes - 1 do
    Printf.bprintf b
      "class N%d : public N { public: virtual int id() { return %d; } };\n" c
      (c + 1)
  done;
  Buffer.add_string b "N* pick(int k) {\n";
  for c = 0 to classes - 1 do
    Printf.bprintf b "  if (k == %d) return new N%d();\n" c c
  done;
  Buffer.add_string b "  return new N();\n}\n";
  Buffer.add_string b "int main() {\n  N* p = pick(3);\n  int s = 0;\n";
  for _ = 1 to calls do
    Buffer.add_string b "  s = s + p->id();\n"
  done;
  Buffer.add_string b "  return s;\n}\n";
  Buffer.contents b

(* Minor words of [f ()], with telemetry off. *)
let words f =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled false;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) @@ fun () ->
  let w0 = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. w0

(* Minor words of a second [Pta.analyze] (the first warms up). *)
let solve_words prog =
  ignore (words (fun () -> Pta.analyze prog));
  words (fun () -> Pta.analyze prog)

(* Calls on one receiver share its dispatch: the words 128 more calls
   add must not grow with the number of receiver classes. Resolving and
   binding every class once per call made the increment 4.2x larger at
   32 classes than at 8. *)
let t_dispatch_sites_plus_classes () =
  let increment classes =
    let words calls =
      solve_words (Util.check_source (one_receiver_src ~classes ~calls))
    in
    words 256 -. words 128
  in
  let few = increment 8 and many = increment 32 in
  Util.check_bool
    (Printf.sprintf
       "128 more calls add %.0f words at 32 classes, %.0f at 8: within 10%%"
       many few)
    true
    (Float.abs (many -. few) <= 0.1 *. few)

(* Minor words of the PTA call-graph build beyond its [Pta.analyze],
   and of the RTA build, after a warming build. *)
let build_words prog =
  ignore (words (fun () -> Callgraph.build ~algorithm:Callgraph.Pta prog));
  let solve = words (fun () -> Pta.analyze ~roots:[ main_id ] prog) in
  let pta = words (fun () -> Callgraph.build ~algorithm:Callgraph.Pta prog) in
  let rta = words (fun () -> Callgraph.build ~algorithm:Callgraph.Rta prog) in
  (pta -. solve, rta)

(* The call graph offers a receiver's cone once per group of a caller's
   sites with one dispatch, static class and receiver answer, so the
   words 128 more calls add must not grow with the number of receiver
   classes, in either tier, and must stay below what walking the cone
   once per site cost at 8 classes: 21,902 words under PTA and 10,496
   under RTA (46,478 and 25,856 at 32 classes). *)
let t_callgraph_sites_plus_classes () =
  let increment classes =
    let words calls =
      build_words (Util.check_source (one_receiver_src ~classes ~calls))
    in
    let p1, r1 = words 128 and p2, r2 = words 256 in
    (p2 -. p1, r2 -. r1)
  in
  let pta_few, rta_few = increment 8 and pta_many, rta_many = increment 32 in
  List.iter
    (fun (tier, few, many, ceiling) ->
      Util.check_bool
        (Printf.sprintf
           "%s: 128 more calls add %.0f words at 32 classes, %.0f at 8: \
            within 10%%"
           tier many few)
        true
        (Float.abs (many -. few) <= 0.1 *. few);
      Util.check_bool
        (Printf.sprintf "%s: at most %.0f words (%.0f, %.0f)" tier ceiling few
           many)
        true
        (Float.max few many <= ceiling))
    [
      ("PTA", pta_few, pta_many, 21_902.);
      ("RTA", rta_few, rta_many, 10_496.);
    ]

(* -- copy cycles under cloning ------------------------------------------------- *)

let t_cycle_under_cloning () =
  (* the a->b->a reference cycle is a copy cycle; with per-site clones,
     flow around it must still bring both allocation sites to the
     receiver, so the dispatch through the cycle keeps Special::id
     reachable *)
  List.iter
    (fun alg ->
      let cg = Callgraph.build ~algorithm:alg (Util.check_source cycle_src) in
      Util.check_bool "Special::id survives the cycle" true
        (Callgraph.reachable cg (Func_id.FMethod ("Special", "id"))))
    [ Callgraph.Pta; Callgraph.Pta1 ];
  (* and the refinement may only shrink the dead set, never flip a live
     member dead *)
  let prog = Util.check_source cycle_src in
  let dp = Util.dead_names (analyze_with Callgraph.Pta prog) in
  let d1 = Util.dead_names (analyze_with Callgraph.Pta1 prog) in
  Util.check_bool "dead(PTA) ⊆ dead(PTA1) on the cycle" true
    (List.for_all (fun x -> List.mem x d1) dp)

(* -- 1-CFA strictly shrinks the fallback gauge on deltablue -------------------- *)

let t_deltablue_fallback_shrink () =
  let prog = Benchmarks.Suite.program Benchmarks.Suite.deltablue in
  let fallback mode =
    (Pta.stats (Pta.analyze ~mode prog)).Pta.p_fallback_sites
  in
  let plain = fallback Pta.Insensitive in
  let refined = fallback Pta.OneCfa in
  Util.check_bool
    (Printf.sprintf "fallback sites shrink strictly (%d -> %d)" plain refined)
    true
    (refined < plain)

(* -- solver statistics surface ------------------------------------------------- *)

let t_stats_populated () =
  let prog = Benchmarks.Suite.program Benchmarks.Suite.deltablue in
  let cg = Callgraph.build ~algorithm:Callgraph.Pta1 prog in
  match cg.Callgraph.pta_stats with
  | None -> Alcotest.fail "PTA1 build must expose solver stats"
  | Some s ->
      Util.check_bool "delta propagations counted" true (s.Pta.p_delta_props > 0);
      Util.check_bool "solver rounds counted" true (s.Pta.p_solver_iters > 0);
      Util.check_bool "contexts counted" true (s.Pta.p_contexts > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_ptset_oracle;
    Util.test "ports: Pta = reference solver per expression"
      t_ref_differential_ports;
    Util.test "inline programs: Pta = reference solver per expression"
      t_ref_differential_inline;
    QCheck_alcotest.to_alcotest prop_ref_differential;
    Util.test "synth_pta twin: counters, dead list, reference agreement"
      t_synth_twin;
    Util.test "1-CFA stays inside the reference per receiver site"
      t_onecfa_within_ref;
    Util.test "dead(CHA) ⊆ dead(RTA) ⊆ dead(PTA) ⊆ dead(PTA1) on the suite"
      t_four_tier_chain;
    Util.test "copy cycles stay sound under cloning" t_cycle_under_cloning;
    Util.test "1-CFA strictly shrinks deltablue's fallback sites"
      t_deltablue_fallback_shrink;
    Util.test "PTA1 surfaces solver statistics" t_stats_populated;
    Util.test "dispatch words grow with sites plus classes, not their product"
      t_dispatch_sites_plus_classes;
    Util.test "call-graph words grow with sites plus classes"
      t_callgraph_sites_plus_classes;
  ]
