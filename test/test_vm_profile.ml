(* VM hot-site profiler tests: the counting invariants that make the
   report trustworthy, and the stability of its two renderings.

   The core invariant: [r_opcodes] and [r_functions] are two groupings
   of the same per-site dispatch counters, so both sum to
   [r_dispatches]; [r_steps] is the interpreter's own step counter,
   carried alongside for cross-checking (dispatches and steps diverge
   only through superinstruction fusion). A profiled run must also be
   observationally identical to an unprofiled one. *)

module I = Runtime.Interp
module VP = Runtime.Vm_profile
module J = Telemetry.Json

let check_int = Util.check_int
let check_bool = Util.check_bool
let check_string = Util.check_string

let run_profiled ?step_limit src =
  I.run_profiled ?step_limit (Sema.Type_check.check_source src)

let loopy_src =
  {|
int helper(int n) {
  int acc = 0;
  int i = 0;
  while (i < n) {
    acc = acc + i;
    i = i + 1;
  }
  return acc;
}
int main() {
  int total = 0;
  int j = 0;
  while (j < 50) {
    total = total + helper(j);
    j = j + 1;
  }
  print_int(total);
  return 0;
}
|}

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs

let t_counts_consistent () =
  let outcome, r = run_profiled loopy_src in
  check_int "profiled run agrees with steps counter" outcome.I.steps r.VP.r_steps;
  check_bool "dispatched something" true (r.VP.r_dispatches > 0);
  check_int "opcode counts sum to dispatches" r.VP.r_dispatches
    (sum snd r.VP.r_opcodes);
  check_int "function instr counts sum to dispatches" r.VP.r_dispatches
    (sum (fun f -> f.VP.fr_instrs) r.VP.r_functions);
  (* fusion means dispatches never exceed steps on straight-line code,
     but each grouping must stay internally consistent regardless *)
  List.iter
    (fun (op, c) ->
      check_bool ("opcode count positive: " ^ op) true (c > 0))
    r.VP.r_opcodes;
  check_bool "opcodes sorted descending" true
    (let rec mono = function
       | (_, a) :: ((_, b) :: _ as rest) -> a >= b && mono rest
       | _ -> true
     in
     mono r.VP.r_opcodes)

let t_functions_and_calls () =
  let _, r = run_profiled loopy_src in
  let find name =
    List.find_opt (fun f -> f.VP.fr_name = name) r.VP.r_functions
  in
  (match find "helper" with
  | Some f ->
      check_int "helper called 50 times" 50 f.VP.fr_calls;
      check_bool "helper dispatched instructions" true (f.VP.fr_instrs > 0)
  | None -> Alcotest.fail "helper missing from the function table");
  match find "main" with
  | Some f -> check_int "main called once" 1 f.VP.fr_calls
  | None -> Alcotest.fail "main missing from the function table"

(* Constructor bodies run outside the call protocol ([new], stack
   objects, base subobjects); each run still counts as a call. *)
let t_constructor_calls () =
  let n = 37 in
  let src =
    Printf.sprintf
      {|struct Base { int b; Base(int x) { b = x; } };
struct Derived : Base { int d; Derived(int x) : Base(x) { d = x + 1; } };
int main() {
  int total = 0;
  for (int i = 0; i < %d; i++) {
    Derived *p = new Derived(i);
    total = total + p->d;
    delete p;
  }
  print_int(total);
  return 0;
}|}
      n
  in
  let _, r = run_profiled src in
  let calls name =
    match List.find_opt (fun f -> f.VP.fr_name = name) r.VP.r_functions with
    | Some f -> f.VP.fr_calls
    | None -> Alcotest.failf "%s missing from the function table" name
  in
  check_int "derived constructor runs" n (calls "Derived::Derived/1");
  check_int "base constructor runs" n (calls "Base::Base/1");
  check_int "main called once" 1 (calls "main")

let t_loop_sites_found () =
  let _, r = run_profiled loopy_src in
  check_bool "back-branch sites recorded" true (r.VP.r_sites <> []);
  check_bool "a loop site lives in helper or main" true
    (List.exists
       (fun s -> s.VP.sr_func = "helper" || s.VP.sr_func = "main")
       r.VP.r_sites);
  List.iter
    (fun s -> check_bool "site count positive" true (s.VP.sr_count > 0))
    r.VP.r_sites;
  (* the hottest site belongs to the inner loop: it runs ~50x more *)
  match r.VP.r_sites with
  | hot :: _ -> check_string "hottest site is the inner loop" "helper" hot.VP.sr_func
  | [] -> ()

let t_profiled_run_identical () =
  let prog = Sema.Type_check.check_source loopy_src in
  let plain = I.run prog in
  let profiled, _ = I.run_profiled prog in
  check_int "same return value" plain.I.return_value profiled.I.return_value;
  check_string "same output" plain.I.output profiled.I.output;
  check_int "same step count" plain.I.steps profiled.I.steps

(* [run_profiled] needs the compiled program before the run, to size
   the profiler; it must hand that lowering to the run, not compile the
   program a second time. *)
let compiled_counter = Telemetry.Counter.make "bytecode.instructions_compiled"

let t_profiled_compiles_once () =
  let prog = Sema.Type_check.check_source loopy_src in
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) @@ fun () ->
  let compiled f =
    let c0 = Telemetry.Counter.value compiled_counter in
    ignore (f ());
    Telemetry.Counter.value compiled_counter - c0
  in
  let one =
    compiled (fun () -> Runtime.Bytecode.compile (Runtime.Resolve.program prog))
  in
  check_bool "the program compiles to instructions" true (one > 0);
  check_int "run_profiled compiles the program once" one
    (compiled (fun () -> I.run_profiled prog))

let t_limits_respected () =
  (* a profiled run under a step limit raises exactly like a plain one *)
  check_bool "step limit enforced while profiling" true
    (match run_profiled ~step_limit:100 loopy_src with
    | exception Runtime.Value.Limit_exceeded _ -> true
    | _ -> false)

let t_json_rendering () =
  let _, r = run_profiled loopy_src in
  let v =
    match J.parse (VP.to_json r) with
    | Ok v -> v
    | Error m -> Alcotest.failf "profile json does not parse: %s" m
  in
  let num field =
    match J.member field v with
    | Some (J.Num f) -> int_of_float f
    | _ -> Alcotest.failf "missing numeric field %s" field
  in
  check_int "json steps" r.VP.r_steps (num "steps");
  check_int "json dispatches" r.VP.r_dispatches (num "dispatches");
  List.iter
    (fun field ->
      check_bool ("json has " ^ field) true (J.member field v <> None))
    [ "opcodes"; "functions"; "hot_sites" ];
  match J.member "functions" v with
  | Some (J.Arr fns) ->
      check_int "json function rows" (List.length r.VP.r_functions)
        (List.length fns)
  | _ -> Alcotest.fail "functions is not an array"

let t_text_rendering () =
  let _, r = run_profiled loopy_src in
  let text = VP.to_text ~top:5 r in
  List.iter
    (fun sub ->
      check_bool ("text mentions " ^ sub) true (Util.contains_sub ~sub text))
    [ "hot opcodes"; "hot functions"; "hot loops"; "helper" ]

(* Dispatch counts of the 11 paper ports, pinned. Steps are the
   language's tick semantics; dispatches and the typed share are what the
   fusion rules buy. Deleting an opcode or rule that a port's hot path
   depends on changes these numbers even though every output and step
   count stays the same, so this is the test that notices a lost
   superinstruction. Update a row only together with the change to the
   compiler that explains it. npic was 1331281 (typed 1106154) and
   sched 1676727 (936144) before five superinstructions that each fused
   one statement of one of them went, and the 11 ports summed 5298781
   (npic 1617681, sched 2121943) before nine statement and pair folds
   went (DESIGN.md §4i). Before the int-RPN store walk and nine rare
   pair fusions went, the ports summed 6310424 dispatches (deltablue
   48042 / typed 17984, hotwire 9608 / 4368, idl 77655 / 34696, ixx
   117999 / 53865, jikes 608167 / 309726, lcom 162553 / 77421, npic
   1929205 / 1639118, richards 156843 / 46113, sched 2693541 / 1646770,
   simulate 471102 / 213251, taldict 35709 / 20578); 9099130 before the
   typed store-plus-tick fusion went (idl 81879, jikes 623813, lcom
   169247, npic 4383536, sched 2956692, simulate 495788), with typed
   dispatches unmoved. Each row's comment holds its dispatches / typed
   dispatches from before [this] became a frame slot, when member
   accesses and calls on [this] had their own instructions: 9099274 in
   all, 8817481 now. *)
let pinned_dispatches =
  [
    ("deltablue", 22047, 47511, 18729);  (* was 49758 / 19140 *)
    ("hotwire", 2423, 9364, 4113);  (* was 9825 / 4385 *)
    ("idl", 26115, 75107, 33110);  (* was 81749 / 37532 *)
    ("ixx", 49278, 114546, 51087);  (* was 122575 / 56851 *)
    ("jikes", 459845, 589315, 309030);  (* was 623258 / 319590 *)
    ("lcom", 61204, 158182, 74370);  (* was 169594 / 80325 *)
    ("npic", 967396, 4305553, 4068424);  (* was 4383537 / 4086424 *)
    ("richards", 61628, 154438, 43775);  (* was 167470 / 49867 *)
    ("sched", 2161560, 2860756, 1822184);  (* was 2957172 / 1862712 *)
    ("simulate", 174307, 467631, 211788);  (* was 495789 / 225867 *)
    ("taldict", 18454, 35078, 22439);  (* was 38547 / 23293 *)
  ]

let t_port_dispatches_pinned () =
  check_int "every port pinned" (List.length Benchmarks.Suite.all)
    (List.length pinned_dispatches);
  List.iter
    (fun (name, steps, dispatches, typed) ->
      match Benchmarks.Suite.find name with
      | None -> Alcotest.failf "unknown benchmark %s" name
      | Some b ->
          let _, r = I.run_profiled (Benchmarks.Suite.program b) in
          check_int (name ^ " steps") steps r.VP.r_steps;
          check_int (name ^ " dispatches") dispatches r.VP.r_dispatches;
          check_int (name ^ " typed dispatches") typed r.VP.r_typed)
    pinned_dispatches

let suite =
  [
    Util.test "profiler: opcode and function counts sum to dispatches"
      t_counts_consistent;
    Util.test "profiler: per-function call counts" t_functions_and_calls;
    Util.test "profiler: constructor runs count as calls" t_constructor_calls;
    Util.test "profiler: back-branch loop sites" t_loop_sites_found;
    Util.test "profiler: profiled run observationally identical"
      t_profiled_run_identical;
    Util.test "profiler: run_profiled compiles the program once"
      t_profiled_compiles_once;
    Util.test "profiler: resource limits still enforced" t_limits_respected;
    Util.test "profiler: json report parses and agrees" t_json_rendering;
    Util.test "profiler: text report sections" t_text_rendering;
    Util.test "profiler: dispatch counts of the 11 ports pinned"
      t_port_dispatches_pinned;
  ]
