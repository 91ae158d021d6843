(* Allocation pins for the runtime layers.

   Minor words allocated by [Resolve.program], [Bytecode.compile] and
   [Bytecode.execute] are a deterministic function of the program and
   the compiler that built this code, so they are pinned exactly per
   port, like the dispatch counts in test_vm_profile.ml. A change that
   moves a number must explain it; a compiler or stdlib bump re-pins
   them.

   The fused-loop tests check the property the pins are there to keep:
   the hot fused loop instructions allocate nothing per dispatch, so a
   program's execute words do not grow with its iteration count. *)

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
   (23546527 in all). *)
let pinned_words =
  [
    ("deltablue", 45313, 16683, 285541);
    ("hotwire", 29059, 10015, 45323);
    ("idl", 27328, 9655, 384776);
    ("ixx", 22338, 9399, 634036);
    ("jikes", 44692, 20403, 1682149);
    ("lcom", 32397, 14030, 743231);
    ("npic", 16322, 8251, 2362957);
    ("richards", 27965, 12153, 571131);
    ("sched", 19119, 9327, 4549565);
    ("simulate", 21205, 10346, 1714909);
    ("taldict", 25647, 10591, 137830);
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

let suite =
  [
    Util.test "resolve/compile/execute words of the 11 ports pinned"
      t_port_words_pinned;
    Util.test "ILoopScan allocates nothing per dispatch" t_loop_scan_no_alloc;
    Util.test "IRpnStoreI allocates nothing per dispatch" t_rpn_store_no_alloc;
  ]
