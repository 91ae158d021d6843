(* Tests of the dead-member elimination transformation: the paper's claim
   is that dead data members "can be removed from the application without
   affecting program behavior" — so we remove them and check exactly that:
   same output, same exit code, smaller objects. *)

open Deadmem
open Sema

let strip ?config source =
  Eliminate.strip_program ?config ~source ~file:"strip.mcc" ()

let run_typed prog = Runtime.Interp.run prog

let t_figure1_strip () =
  let source =
    {|class N { public: int mn1; int mn2; };
      class A {
      public:
        virtual int f(){ return ma1; }
        int ma1; int ma2; int ma3;
      };
      class B : public A {
      public:
        virtual int f(){ return mb1; }
        int mb1; N mb2; int mb3; int mb4;
      };
      class C : public A {
      public:
        virtual int f(){ return mc1; }
        int mc1;
      };
      int foo(int *x){ return (*x) + 1; }
      int main(){
        A a; B b; C c;
        A *ap;
        a.ma3 = b.mb3 + 1;
        int i = 10;
        if (i < 20){ ap = &a; } else { ap = &b; }
        return ap->f() + b.mb2.mn1 + foo(&b.mb4);
      }|}
  in
  let _, retyped, removed = strip source in
  Alcotest.(check (list string))
    "removed exactly the dead members"
    [ "A::ma2"; "A::ma3"; "N::mn2" ]
    (List.sort compare (List.map Member.to_string (Member.Set.elements removed)));
  let original = Util.run source in
  let stripped = run_typed retyped in
  Util.check_int "same return value" original.Runtime.Interp.return_value
    stripped.Runtime.Interp.return_value;
  (* objects got smaller: A lost two of three ints *)
  let a_before =
    Layout.object_size (Util.check_source source).Typed_ast.table "A"
  in
  let a_after = Layout.object_size retyped.Typed_ast.table "A" in
  Util.check_bool "A shrank" true (a_after < a_before)

let t_side_effects_preserved () =
  (* [a.dead = f()] must keep calling f *)
  let source =
    {|class A { public: int dead_m; };
      int calls;
      int f() { calls = calls + 1; return calls; }
      int main() {
        A a;
        a.dead_m = f();
        a.dead_m = f();
        return calls;
      }|}
  in
  let _, retyped, removed = strip source in
  Util.check_int "member removed" 1 (Member.Set.cardinal removed);
  let stripped = run_typed retyped in
  Util.check_int "f still called twice" 2 stripped.Runtime.Interp.return_value

let t_ctor_initializers_dropped () =
  let source =
    {|class A {
      public:
        A(int x) : live_m(x), dead_m(x * 2) { }
        int live_m;
        int dead_m;
      };
      int main() { A a(21); return a.live_m; }|}
  in
  let _, retyped, removed = strip source in
  Util.check_bool "dead_m removed" true
    (Member.Set.mem ("A", "dead_m") removed);
  let stripped = run_typed retyped in
  Util.check_int "behaviour preserved" 21 stripped.Runtime.Interp.return_value

let t_unreachable_functions_dropped () =
  let source =
    {|class A { public: int m; };
      int uses_dead(A *a) { return a->m; }  // unreachable: would break after removal
      int main() { A a; return 0; }|}
  in
  let stripped_ast, retyped, removed = strip source in
  Util.check_bool "m removed" true (Member.Set.mem ("A", "m") removed);
  Util.check_bool "unreachable function dropped" false
    (List.exists
       (function
         | Frontend.Ast.TFunc f -> f.Frontend.Ast.fn_name = "uses_dead"
         | _ -> false)
       stripped_ast);
  Util.check_int "still runs" 0 (run_typed retyped).Runtime.Interp.return_value

let t_unreachable_virtual_stubbed () =
  (* the unreachable override must survive (class interface) but its body
     must no longer mention the removed member *)
  let source =
    {|class A { public: virtual int f() { return 1; } };
      class C : public A {
      public:
        virtual int f() { return mc1; }
        int mc1;
      };
      int main() { A a; A *ap = &a; return ap->f(); }|}
  in
  let _, retyped, removed = strip source in
  Util.check_bool "mc1 removed" true (Member.Set.mem ("C", "mc1") removed);
  Util.check_int "behaviour preserved" 1 (run_typed retyped).Runtime.Interp.return_value

let t_class_typed_members_kept () =
  (* class-typed dead members are conservatively kept: their constructors
     could have effects *)
  let source =
    {|class Noisy { public: Noisy() { print_str("side effect"); } int x; };
      class A { public: Noisy dead_obj; int dead_scalar; };
      int main() { A a; return 0; }|}
  in
  let _, retyped, removed = strip source in
  Util.check_bool "scalar removed" true (Member.Set.mem ("A", "dead_scalar") removed);
  Util.check_bool "class-typed member kept" false
    (Member.Set.mem ("A", "dead_obj") removed);
  Util.check_string "constructor effect preserved" "side effect"
    (run_typed retyped).Runtime.Interp.output

let t_union_members_kept () =
  let source =
    {|union U { int a; float b; };
      int main() { U u; u.a = 1; return 0; }|}
  in
  let _, _, removed = strip source in
  Util.check_int "union members kept" 0 (Member.Set.cardinal removed)

let t_source_roundtrip () =
  let source =
    {|class A { public: int live_m; int dead_m; };
      int main() { A a; a.live_m = 4; a.dead_m = 9; return a.live_m; }|}
  in
  let text, removed = Eliminate.strip_to_source ~source ~file:"rt.mcc" () in
  Util.check_int "one member removed" 1 (Member.Set.cardinal removed);
  Util.check_bool "dead member gone from source" false
    (Util.contains_sub ~sub:"dead_m" text);
  (* the emitted source must itself compile and run identically *)
  let reparsed = Util.run text in
  Util.check_int "round-tripped behaviour" 4 reparsed.Runtime.Interp.return_value

(* The flagship check: behaviour preservation on every paper benchmark. *)
let t_benchmark_preservation (b : Benchmarks.Suite.t) () =
  let _, retyped, removed =
    Eliminate.strip_program ~source:b.Benchmarks.Suite.source
      ~file:(b.Benchmarks.Suite.name ^ ".mcc") ()
  in
  let original = Util.run b.Benchmarks.Suite.source in
  let stripped = run_typed retyped in
  Util.check_string
    (b.Benchmarks.Suite.name ^ ": output preserved")
    original.Runtime.Interp.output stripped.Runtime.Interp.output;
  Util.check_int
    (b.Benchmarks.Suite.name ^ ": exit code preserved")
    original.Runtime.Interp.return_value stripped.Runtime.Interp.return_value;
  (* space must shrink exactly when scalar dead members exist *)
  let before = original.Runtime.Interp.snapshot.Runtime.Profile.object_space in
  let after = stripped.Runtime.Interp.snapshot.Runtime.Profile.object_space in
  if Member.Set.is_empty removed then
    Util.check_int (b.Benchmarks.Suite.name ^ ": space unchanged") before after
  else
    (* removal can be absorbed by alignment padding (e.g. a 4-byte member
       inside an 8-aligned subobject), so shrinkage is not always strict *)
    Util.check_bool
      (Printf.sprintf "%s: object space did not grow (%d -> %d)"
         b.Benchmarks.Suite.name before after)
      true (after <= before);
  (* Table 2 cross-check: the HWM-without-dead-members column, which
     [Profile]'s layout model computes in a run with the dead set, is the
     high-water mark the stripped program measures *)
  let dead = Deadmem.Liveness.dead_set (snd (Util.analyze b.Benchmarks.Suite.source)) in
  let modelled = Util.run ~dead b.Benchmarks.Suite.source in
  Util.check_int
    (b.Benchmarks.Suite.name ^ ": HWM w/o dead = stripped program's HWM")
    modelled.Runtime.Interp.snapshot.Runtime.Profile.high_water_mark_reduced
    stripped.Runtime.Interp.snapshot.Runtime.Profile.high_water_mark

(* -- printed source ---------------------------------------------------------

   The printer's output must read back as the same program, and so must
   the stripped source [deadmem strip] prints: both are checked by
   running them. The corpus programs are the well-formed ones; the
   step-limit one runs under the limit the engine differential uses. *)

let corpus_programs =
  [
    ("declarators.mcc", None);
    ("escape_locals.mcc", None);
    ("late_dispatch.mcc", None);
    ("scalar_delete.mcc", None);
    ("unwind_error.mcc", None);
    ("unwind_step_limit.mcc", Some 20_000);
    ("valid.mcc", None);
  ]

(* What a run shows: exit code and output, or the error that stopped it. *)
let shown ~engine ?step_limit prog =
  match Runtime.Interp.run ~engine ?step_limit prog with
  | o -> Printf.sprintf "exit %d\n%s" o.return_value o.output
  | exception e -> Test_bytecode.describe_exn e

let t_printed_source_runs ?step_limit name source () =
  let source = source () in
  let printed = Frontend.Ast_printer.program_to_string (Util.parse source) in
  let original = Util.check_source source in
  let reparsed = Util.check_source printed in
  List.iter
    (fun (engine, tag) ->
      Util.check_string
        (Printf.sprintf "%s: printed source under %s" name tag)
        (shown ~engine ?step_limit original)
        (shown ~engine ?step_limit reparsed))
    [ (Runtime.Interp.Tree, "tree"); (Runtime.Interp.Bytecode, "bytecode") ]

let t_stripped_source_runs ?step_limit name source () =
  let source = source () in
  let text, _ = Eliminate.strip_to_source ~source ~file:name () in
  Util.check_string
    (name ^ ": stripped source prints what the original prints")
    (shown ~engine:Runtime.Interp.Bytecode ?step_limit
       (Util.check_source source))
    (shown ~engine:Runtime.Interp.Bytecode ?step_limit
       (Util.check_source text))

(* (name, source, step limit); corpus files are read when a test runs *)
let source_programs =
  List.map
    (fun (name, step_limit) ->
      (name, (fun () -> Test_bytecode.corpus_source name), step_limit))
    corpus_programs
  @ List.map
      (fun (b : Benchmarks.Suite.t) -> (b.name, (fun () -> b.source), None))
      Benchmarks.Suite.all

let suite =
  [
    Util.test "Figure 1 elimination" t_figure1_strip;
    Util.test "side effects preserved" t_side_effects_preserved;
    Util.test "ctor initializers dropped" t_ctor_initializers_dropped;
    Util.test "unreachable functions dropped" t_unreachable_functions_dropped;
    Util.test "unreachable virtual methods stubbed" t_unreachable_virtual_stubbed;
    Util.test "class-typed members kept" t_class_typed_members_kept;
    Util.test "union members kept" t_union_members_kept;
    Util.test "source round-trip" t_source_roundtrip;
  ]
  @ List.map
      (fun (b : Benchmarks.Suite.t) ->
        Util.test (b.name ^ ": behaviour preserved after elimination")
          (t_benchmark_preservation b))
      Benchmarks.Suite.all
  @ List.concat_map
      (fun (name, source, step_limit) ->
        [
          Util.test (name ^ ": printed source runs the same")
            (t_printed_source_runs ?step_limit name source);
          Util.test (name ^ ": stripped source runs the same")
            (t_stripped_source_runs ?step_limit name source);
        ])
      source_programs
