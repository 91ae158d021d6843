(* Allocation pins for the runtime layers.

   Minor words allocated by [Resolve.program], [Bytecode.compile] and
   [Bytecode.execute] are a deterministic function of the program and
   the compiler that built this code, so they are pinned exactly per
   port, like the dispatch counts in test_vm_profile.ml. A change that
   moves a number must explain it; a compiler or stdlib bump re-pins
   them.

   The fused-loop tests check the property the pins are there to keep:
   the hot fused loop instructions allocate nothing per dispatch, so a
   program's execute words do not grow with its iteration count. The
   call test checks the same of a call's frame: its words do not grow
   with the callee's locals and operand stacks. The frontend pins
   measure lex, parse and type-check on the generated points-to
   programs, and the call-graph pins measure the builds on the same
   programs. *)

open Runtime

let check_int = Util.check_int

let words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, int_of_float (Gc.minor_words () -. w0))

(* Telemetry spans allocate when enabled; measure with it off. *)
let telemetry_off f =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled false;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) f

let make_vm ?dead cp =
  Bytecode.make_vm ?dead ~step_limit:Interp.default_step_limit
    ~call_depth_limit:Interp.default_call_depth_limit
    ~heap_object_limit:Interp.default_heap_object_limit cp

(* The paper's run of one port: a freshly typed AST, its paper dead
   set, then the three runtime layers in order. *)
let layer_words (b : Benchmarks.Suite.t) =
  let prog = Sema.Type_check.check_source b.source in
  let dead =
    Deadmem.Liveness.dead_set
      (Deadmem.Liveness.analyze ~config:Deadmem.Config.paper prog)
  in
  let rp, resolve = words (fun () -> Resolve.program prog) in
  let cp, compile = words (fun () -> Bytecode.compile rp) in
  let vm = make_vm ~dead cp in
  let _, execute = words (fun () -> Bytecode.execute vm) in
  (resolve, compile, execute)

(* (port, resolve, compile, execute) minor words. Execute before the
   per-class size memo and the allocation-free ILoopScan/IRpnStoreI
   arms, for the record: jikes 2930621, idl 610932, npic 5335627,
   lcom 1163094, taldict 143144, ixx 1021692, simulate 2443809,
   sched 8931241, hotwire 67297, deltablue 293801, richards 605269
   (23546527 in all). Before the per-depth activation pools, execute
   was: deltablue 285541, hotwire 45323, idl 384776, ixx 634036,
   jikes 1682149, lcom 743231, npic 2362957, richards 571131,
   sched 4549565, simulate 1714909, taldict 137830 (13111448 in all);
   compile was one word a body less (the [b_escapes] flag). Before the
   id-indexed allocation journal, execute was: deltablue 165292,
   hotwire 29568, idl 227116, ixx 365246, jikes 1050324, lcom 435366,
   npic 1340479, richards 335974, sched 2851735, simulate 985090,
   taldict 72956 (7859146 in all). Resolve and compile words moved when
   the int-bank retyping left [Resolve.program] for an analysis the
   compiler runs: resolve was deltablue 45313, hotwire 29059, idl 27328,
   ixx 22338, jikes 44692, lcom 32397, npic 16322, richards 27965,
   sched 19119, simulate 21205, taldict 25647 (311385 in all), and
   compile 16731, 10044, 9680, 9423, 20439, 14064, 8265, 12181, 9339,
   10367, 10620 (131153); together 442538, then 395608. Resolve moved
   again when member lookup lost its memo (a plain walk that allocates
   a pair per defining class found): deltablue 29107, hotwire 17619,
   idl 17037, ixx 13503, jikes 28045, lcom 19847, richards 16787,
   taldict 15515 before; npic, sched and simulate did not move. Resolve
   and compile each lost 8 words on every port when a disabled
   [Telemetry.Span.with_] stopped going through [Fun.protect]. Compile
   grew when twin instructions became one instruction with a flag
   operand, a word more per emitted or fused instruction that carries
   one: it was
   deltablue 26080, hotwire 17707, idl 16501, ixx 14797, jikes 30231,
   lcom 21466, npic 12060, richards 18894, sched 13624, simulate 15727,
   taldict 17037 (204124 in all, now 210805: +3.3%). Resolve lost 5
   words and execute 8 to 24 on every port when the build stopped
   compiling modules with -opaque, so that [Value] and [Resolve]'s
   helpers inline into their callers: resolve was deltablue 27212,
   hotwire 16765, idl 16301, ixx 12845, jikes 26457, lcom 18667,
   npic 9763, richards 16511, sched 11761, simulate 12388, taldict 14815,
   and execute 164579, 28217, 218081, 335954, 956721, 403261, 1235034,
   333424, 2603425, 923009, 72362 (7274067 in all, then 7273925).
   Execute lost 2 words per int-member store and per method call when
   the member-store lvalues ([ILocFieldI], [ILoadLocFieldI],
   [IThisLocFieldI]) stopped boxing a fresh [VObj] of the object they
   checked and a frame started keeping its caller's receiver value
   instead of a fresh [Some]: it was deltablue 164567, hotwire 28203,
   idl 218069, ixx 335942, jikes 956697, lcom 403245, npic 1235024,
   richards 333412, sched 2603415, simulate 922997, taldict 72354
   (7273925 in all, now 6829033). Compile moved when five one-statement
   superinstructions went: npic 12534, sched 14199. *)
let pinned_words =
  [
    ("deltablue", 27207, 27048, 152233);
    ("hotwire", 16760, 18076, 27249);
    ("idl", 16296, 16903, 208227);
    ("ixx", 12840, 15220, 319470);
    ("jikes", 26452, 31256, 899637);
    ("lcom", 18662, 22127, 381685);
    ("npic", 9758, 12504, 1150784);
    ("richards", 16506, 19578, 306564);
    ("sched", 11756, 14203, 2478795);
    ("simulate", 12383, 16267, 837921);
    ("taldict", 14810, 17597, 66468);
  ]

let t_port_words_pinned () =
  check_int "every port pinned" (List.length Benchmarks.Suite.all)
    (List.length pinned_words);
  telemetry_off (fun () ->
      List.iter
        (fun (name, resolve, compile, execute) ->
          let b = Benchmarks.Suite.find_exn name in
          let r, c, e = layer_words b in
          check_int (name ^ " resolve words") resolve r;
          check_int (name ^ " compile words") compile c;
          check_int (name ^ " execute words") execute e)
        pinned_words)

(* -- fused loops ------------------------------------------------------------ *)

(* Execute words of [src], plus the profiled per-opcode dispatch
   counts, so a test can confirm its loop really fused. *)
let execute_words src =
  telemetry_off (fun () ->
      let prog = Sema.Type_check.check_source src in
      let cp = Bytecode.compile (Resolve.program prog) in
      let _, w = words (fun () -> Bytecode.execute (make_vm cp)) in
      let _, r = Interp.run_profiled prog in
      let count op =
        Option.value ~default:0 (List.assoc_opt op r.Vm_profile.r_opcodes)
      in
      (w, count))

(* Each pass of the outer loop enters the inner scan loop afresh, and
   the inner loop compiles to one [ILoopScan] dispatch, which walks the
   whole three-node list itself. *)
let scan_src n =
  Printf.sprintf
    {|struct Node { Node *from; Node *next; int hits; };
int main() {
  Node *target = new Node();
  Node *head = NULL;
  for (int k = 0; k < 3; k++) { Node *n = new Node(); n->next = head; head = n; }
  int r = 0;
  while (r < %d) {
    Node *e = head;
    while (e != NULL) {
      if (e->from == target) { e->hits = e->hits + 1; }
      e = e->next;
    }
    r = r + 1;
  }
  return 0;
}|}
    n

(* Two loops whose bodies are one fused int-rpn store each: the first
   with the statement tick folded in ([ITickRpnStoreI]), the second
   storing through an indexed member ([IRpnStoreI]). *)
let rpn_src n =
  Printf.sprintf
    {|struct Cell { int potential; int field; };
struct Grid { Cell *cells[3]; };
int main() {
  Grid *g = new Grid();
  for (int i = 0; i < 3; i++) g->cells[i] = new Cell();
  Cell *c = g->cells[1];
  int r = 0;
  while (r < %d) {
    c->field = (c->potential + c->field) * 3 - c->potential;
    r = r + 1;
  }
  for (int p = 0; p < %d; p++) {
    for (int i = 1; i < 2; i++)
      g->cells[i]->field = g->cells[i + 1]->potential - g->cells[i - 1]->potential;
  }
  return 0;
}|}
    n n

let t_loop_scan_no_alloc () =
  let w1, n1 = execute_words (scan_src 100) in
  let w2, n2 = execute_words (scan_src 10_000) in
  (* one guard evaluation per node plus the failing one, per entry *)
  check_int "100 passes scan the list" (4 * 100) (n1 "ILoopScan");
  check_int "10000 passes scan the list" (4 * 10_000) (n2 "ILoopScan");
  check_int "execute words do not grow with the passes" w1 w2

let t_rpn_store_no_alloc () =
  let w1, n1 = execute_words (rpn_src 100) in
  let w2, n2 = execute_words (rpn_src 10_000) in
  List.iter
    (fun op ->
      check_int (op ^ " fused, 100 passes") 100 (n1 op);
      check_int (op ^ " fused, 10000 passes") 10_000 (n2 op))
    [ "ITickRpnStoreI"; "IRpnStoreI" ];
  check_int "execute words do not grow with the passes" w1 w2

(* -- calls -------------------------------------------------------------------- *)

(* Execute words of [calls] calls of [callee], plus its profiled call
   count. [small] has no locals; [big] has int and boxed locals (one of
   them a float) and deep expressions, so its frame and operand stacks
   are several times [small]'s. Arguments are constants and neither
   method returns a value, so the call sites box nothing. *)
let call_words meth args calls =
  let src =
    Printf.sprintf
      {|struct Leaf {
  int hits;
  Leaf *self;
  void small() { hits = hits + 1; }
  void big(int a, int b) {
    int x = a * 2 + b;
    int y = (x + a) * (b + 3) - (x - b) * 2;
    int z = x + y;
    Leaf *l1 = self;
    Leaf *l2 = l1->self;
    double f = 1.5;
    l2->hits = l2->hits + ((x + (y + (z + (a + (b + 1))))) %% 7);
  }
};
int main() {
  Leaf *leaf = new Leaf();
  leaf->self = leaf;
  for (int i = 0; i < %d; i++) leaf->%s(%s);
  return 0;
}|}
      calls meth args
  in
  telemetry_off (fun () ->
      let prog = Sema.Type_check.check_source src in
      let cp = Bytecode.compile (Resolve.program prog) in
      let _, w = words (fun () -> Bytecode.execute (make_vm cp)) in
      let _, r = Interp.run_profiled prog in
      let row =
        List.find
          (fun (f : Vm_profile.func_row) -> f.fr_name = "Leaf::" ^ meth)
          r.Vm_profile.r_functions
      in
      (w, row.fr_calls))

(* A call takes its operand stacks and, when its body never takes a
   local's address, its locals from the VM's per-depth pools, so what a
   call allocates does not depend on its frame: 10,000 more calls cost
   the same words for [small] and [big]. The 27 words a call are the
   dispatch loop's closure (23) and the frame record (4); the arrays the
   pools replaced grew with the frame. It was 31 while the frame wrapped
   its receiver in a fresh [Some] (2) and each callee's member store
   pushed a fresh [VObj] (2). *)
let t_call_no_frame_alloc () =
  let per_call meth args =
    let w1, c1 = call_words meth args 100 in
    let w2, c2 = call_words meth args 10_100 in
    check_int (meth ^ ": 100 calls ran") 100 c1;
    check_int (meth ^ ": 10100 calls ran") 10_100 c2;
    check_int (meth ^ ": whole words per call") 0 ((w2 - w1) mod 10_000);
    (w2 - w1) / 10_000
  in
  let small = per_call "small" "" in
  check_int "words per call, whatever the frame" small (per_call "big" "3, 4");
  check_int "words per call" 27 small

(* -- frontend ------------------------------------------------------------------ *)

(* Minor words of lex, parse and type-check, run as bench/e2e's
   synth_pta op runs them, on the pinned stress program and on the
   synth_pta twin of test_pta_scale.ml. Measuring only: DESIGN.md §4k
   and §4l say what the lexer's words are made of. (tokens, lex, parse,
   typecheck) per program. Before the flat span, the interned
   identifiers and the in-order list, lex was 16429470 (stress) and
   1515762 (twin); parse and typecheck did not move. Before member
   lookup lost its memo, typecheck was 8243787 (stress) and 767811
   (twin). Before the one declarator reader (no per-statement closures
   in [starts_declaration] and the local declarator loop), parse was
   3287262 (stress) and 305496 (twin). Lex, parse and typecheck each
   lost 8 words when a disabled [Telemetry.Span.with_] stopped going
   through [Fun.protect]. Before one hashed scope table replaced the
   list of per-scope maps, typecheck was 8184211 (stress) and 761542
   (twin). Before a method call stopped copying its lookup's (class,
   method) pair, typecheck was 3982821 (stress) and 445460 (twin).
   Before the lexer's [peek] served shared [Some c] values, lex was
   13303086 (stress) and 1228047 (twin), 33.8 words a token; before the
   parser walked the token list in place instead of copying it into an
   array, parse was 2956798 (stress) and 276294 (twin); before the
   build stopped compiling modules with -opaque, 2956784 and 276280.
   Before functions were checked in source order (a walk of the
   top-level declarations instead of the free functions' name map and
   then the classes), typecheck was 3972519 (stress) and 444599
   (twin). Before the lexer built its tokens without a closure per
   token ([mk], [two_char]), lex was 6131600 (stress) and 574321
   (twin). *)
let synth_twin =
  {
    Benchmarks.Synth.seed = 7;
    classes = 32;
    sites = 48;
    chains = 12;
    chain_len = 400;
  }

let pinned_frontend =
  [
    ("stress", Benchmarks.Synth.stress, (393363, 5903576, 2650788, 3972721));
    ("synth_pta twin", synth_twin, (36650, 553901, 248236, 444351));
  ]

(* Live words of [tokenize]'s result ([Obj.reachable_words]): per token
   a 3-word list cell, the 3-word [spanned] record and its 8-word flat
   span, plus one [IDENT] block and string per distinct name. It was
   7846186 (stress) and 729181 (twin), 19.9 words a token, with two
   [pos] records a span, a string per identifier occurrence and the
   reversed list. (tokens, words) per program. *)
let pinned_stream =
  [
    ("stress", Benchmarks.Synth.stress, (393363, 5513372));
    ("synth_pta twin", synth_twin, (36650, 515668));
  ]

let t_stream_words_pinned () =
  List.iter
    (fun (name, params, (tokens, live)) ->
      let toks =
        Frontend.Lexer.tokenize ~file:"<synth>" (Benchmarks.Synth.source params)
      in
      check_int (name ^ " tokens") tokens (List.length toks);
      check_int (name ^ " live stream words") live
        (Obj.reachable_words (Obj.repr toks));
      Util.check_bool (name ^ " at most 14.1 words a token") true
        (float_of_int live <= 14.1 *. float_of_int tokens))
    pinned_stream

let t_frontend_words_pinned () =
  telemetry_off (fun () ->
      List.iter
        (fun (name, params, (tokens, lex, parse, typecheck)) ->
          let src = Benchmarks.Synth.source params in
          let toks, l =
            words (fun () -> Frontend.Lexer.tokenize ~file:"<synth>" src)
          in
          let ast, p = words (fun () -> Frontend.Parser.parse_tokens toks) in
          let _, t = words (fun () -> Sema.Type_check.check_program ast) in
          check_int (name ^ " tokens") tokens (List.length toks);
          check_int (name ^ " lex words") lex l;
          Util.check_bool (name ^ " at most 17 lex words a token") true
            (float_of_int l <= 17. *. float_of_int tokens);
          check_int (name ^ " parse words") parse p;
          check_int (name ^ " typecheck words") typecheck t)
        pinned_frontend)

(* One function of [n] chained pointer locals, [int* v1 = v0;] and on. *)
let locals_src n =
  let b = Buffer.create (n * 20) in
  Buffer.add_string b "int main() {\n  int* v0 = NULL;\n";
  for i = 1 to n - 1 do
    Printf.bprintf b "  int* v%d = v%d;\n" i (i - 1)
  done;
  Buffer.add_string b "  return 0;\n}\n";
  Buffer.contents b

(* Declaring a local and finding one cost the same words whatever the
   scope's size. With a persistent map per scope, each declaration
   copied a path that grew with the scope: 122.4 words a local between
   256 and 512 locals, 150.3 between 2,048 and 4,096. *)
let t_typecheck_words_per_local () =
  telemetry_off (fun () ->
      let typecheck n =
        let ast = Frontend.Parser.parse ~file:"<locals>" (locals_src n) in
        snd (words (fun () -> Sema.Type_check.check_program ast))
      in
      let per_local lo hi =
        float_of_int (typecheck hi - typecheck lo) /. float_of_int (hi - lo)
      in
      let small = per_local 256 512 and large = per_local 2048 4096 in
      Util.check_bool
        (Printf.sprintf
           "%.1f words a local between 256 and 512 locals, %.1f between \
            2048 and 4096: within 5%%"
           small large)
        true
        (Float.abs (large -. small) <= 0.05 *. small))

(* -- call graph ------------------------------------------------------------------ *)

(* Minor words of [Callgraph.build] on the same two programs: under PTA
   less [Pta.analyze]'s own words (what the build adds to the solve),
   and the whole RTA build, after a warming PTA build. Before the
   one-pass build (each dispatch site resolved once), measured the same
   way: stress 29725232 and 7725429, twin 1774427 and 744341; before
   member lookup lost its memo, 17093323 and 947427, 681457 and
   124082. Each lost 8 words when a disabled [Telemetry.Span.with_]
   stopped going through [Fun.protect]. Before the solution answered
   each node list's query once (and untracked call results lost their
   nodes), the PTA column was 17093171 and 681293. Before a caller's
   sites with one dispatch, static class and receiver answer shared
   one walk of the cone, stress was 1490268 and 947270, twin 162285
   and 123913. Before the build stopped compiling modules with -opaque,
   stress was 787302 and 460660, twin 101113 and 73659. *)
let pinned_callgraph =
  [
    ("stress", Benchmarks.Synth.stress, (786025, 459375));
    ("synth_pta twin", synth_twin, (100396, 72934));
  ]

let t_callgraph_words_pinned () =
  telemetry_off (fun () ->
      List.iter
        (fun (name, params, (pta, rta)) ->
          let prog = Benchmarks.Synth.program params in
          ignore (Callgraph.build ~algorithm:Callgraph.Pta prog);
          let _, solve =
            words (fun () -> Pta.analyze ~roots:[ Sema.Typed_ast.main_id ] prog)
          in
          let _, p = words (fun () -> Callgraph.build ~algorithm:Callgraph.Pta prog) in
          let _, r = words (fun () -> Callgraph.build ~algorithm:Callgraph.Rta prog) in
          check_int (name ^ " PTA build words beyond the solve") pta (p - solve);
          check_int (name ^ " RTA build words") rta r)
        pinned_callgraph)

let suite =
  [
    Util.test "resolve/compile/execute words of the 11 ports pinned"
      t_port_words_pinned;
    Util.test "ILoopScan allocates nothing per dispatch" t_loop_scan_no_alloc;
    Util.test "IRpnStoreI allocates nothing per dispatch" t_rpn_store_no_alloc;
    Util.test "a call allocates no frame arrays" t_call_no_frame_alloc;
    Util.test "lex/parse/typecheck words of the synth programs pinned"
      t_frontend_words_pinned;
    Util.test "live token stream words of the synth programs pinned"
      t_stream_words_pinned;
    Util.test "call-graph build words of the synth programs pinned"
      t_callgraph_words_pinned;
    Util.test "typecheck words per local do not grow with the scope"
      t_typecheck_words_per_local;
  ]
