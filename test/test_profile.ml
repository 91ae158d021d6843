(* Profiler tests: the dynamic measurements of Table 2 / Figure 4. *)

open Sema

let snap ?dead src = (Util.run ?dead src).Runtime.Interp.snapshot

let t_single_alloc () =
  let s = snap "struct S { int a; int b; };\nint main() { S *p = new S(); delete p; return 0; }" in
  Util.check_int "object space" 8 s.Runtime.Profile.object_space;
  Util.check_int "num objects" 1 s.Runtime.Profile.num_objects;
  Util.check_int "hwm" 8 s.Runtime.Profile.high_water_mark;
  Util.check_int "leaks" 0 s.Runtime.Profile.leaked_objects

let t_hwm_vs_total () =
  (* sequential alloc/free: total = n * size, hwm = one object *)
  let s =
    snap
      "struct S { int a; int b; };\n\
       int main() { for (int i = 0; i < 10; i++) { S *p = new S(); delete p; } return 0; }"
  in
  Util.check_int "total" 80 s.Runtime.Profile.object_space;
  Util.check_int "hwm" 8 s.Runtime.Profile.high_water_mark

let t_hwm_equals_total_when_leaked () =
  let s =
    snap
      "struct S { int a; };\n\
       int main() { for (int i = 0; i < 5; i++) { S *p = new S(); if (p == NULL) return 1; } return 0; }"
  in
  Util.check_int "total" 20 s.Runtime.Profile.object_space;
  Util.check_int "hwm == total" 20 s.Runtime.Profile.high_water_mark;
  Util.check_int "leaks" 5 s.Runtime.Profile.leaked_objects

let t_stack_objects_counted () =
  let s = snap "struct S { int a; };\nint main() { S s1; S s2; return 0; }" in
  Util.check_int "stack objects counted" 2 s.Runtime.Profile.num_objects;
  Util.check_int "freed at scope exit" 0 s.Runtime.Profile.leaked_objects

let t_dead_space_accounting () =
  let src =
    "struct S { int live1; int dead1; int dead2; };\n\
     int main() { S *p = new S(); p->dead1 = 1; p->dead2 = 2; return p->live1; }"
  in
  let dead = Member.Set.of_list [ ("S", "dead1"); ("S", "dead2") ] in
  let s = snap ~dead src in
  Util.check_int "object space" 12 s.Runtime.Profile.object_space;
  Util.check_int "dead space" 8 s.Runtime.Profile.dead_space;
  Util.check_int "reduced hwm" 4 s.Runtime.Profile.high_water_mark_reduced;
  Util.check_bool "dead pct" true
    (abs_float (Runtime.Profile.dead_space_pct s -. 66.66) < 1.0);
  Util.check_bool "hwm reduction pct" true
    (abs_float (Runtime.Profile.hwm_reduction_pct s -. 66.66) < 1.0)

let t_dead_space_in_arrays () =
  let src =
    "struct S { int a; int b; };\n\
     int main() { S *arr = new S[10]; if (arr == NULL) return 1; return 0; }"
  in
  let dead = Member.Set.of_list [ ("S", "b") ] in
  let s = snap ~dead src in
  Util.check_int "array object space" 80 s.Runtime.Profile.object_space;
  Util.check_int "array dead space" 40 s.Runtime.Profile.dead_space

let t_scalar_allocs_separate () =
  let s = snap "int main() { int *p = new int[100]; free(p); return 0; }" in
  Util.check_int "no class objects" 0 s.Runtime.Profile.object_space;
  Util.check_int "scalar bytes tracked" 400 s.Runtime.Profile.scalar_bytes

let t_empty_dead_set_no_reduction () =
  let s = snap "struct S { int a; };\nint main() { S s; return s.a; }" in
  Util.check_int "no dead space" 0 s.Runtime.Profile.dead_space;
  Util.check_int "hwm unchanged" s.Runtime.Profile.high_water_mark
    s.Runtime.Profile.high_water_mark_reduced

let t_reduced_hwm_independent_peak () =
  (* the reduced high-water mark is tracked as its own running maximum *)
  let src =
    {|struct Fat { int live; int dead_a[7]; };
      struct Slim { int live; };
      int main() {
        // peak 1: one Fat object (32 bytes; 4 after dead removal)
        Fat *f = new Fat();
        if (f->live < 0) return 1;
        delete f;
        // peak 2: six Slim objects (24 bytes; 24 after removal)
        Slim *s[6];
        for (int i = 0; i < 6; i++) s[i] = new Slim();
        int total = 0;
        for (int i = 0; i < 6; i++) total += s[i]->live;
        for (int i = 0; i < 6; i++) delete s[i];
        return total;
      }|}
  in
  let dead = Member.Set.of_list [ ("Fat", "dead_a") ] in
  let s = snap ~dead src in
  (* full HWM is peak 1 (32 > 24); reduced HWM is peak 2 (24 > 4):
     the two maxima occur at different execution points, as the paper
     notes they may *)
  Util.check_int "full hwm at peak 1" 32 s.Runtime.Profile.high_water_mark;
  Util.check_int "reduced hwm at peak 2" 24 s.Runtime.Profile.high_water_mark_reduced

(* The journal a bytecode run of [prog] leaves behind. *)
let bytecode_journal ?dead prog =
  let vm =
    Runtime.Bytecode.make_vm ?dead ~step_limit:Runtime.Interp.default_step_limit
      ~call_depth_limit:Runtime.Interp.default_call_depth_limit
      ~heap_object_limit:Runtime.Interp.default_heap_object_limit
      (Runtime.Bytecode.compile (Runtime.Resolve.program prog))
  in
  ignore (Runtime.Bytecode.execute vm);
  Runtime.Bytecode.profile vm

let t_per_class_allocs () =
  let prog =
    Util.check_source
      "struct A { int x; };\nstruct B { int y; int z; };\nstruct C { int w; };\n\
       int main() { A a; B *b1 = new B(); B *b2 = new B(); free(b1); free(b2);\n\
       C *cs = new C[3]; C *none = new C[0]; C stack[2];\n\
       delete[] cs; delete[] none; return 0; }"
  in
  (* (class, objects, bytes): freeing does not take objects back out,
     and a zero-length array is journalled as 0 objects of 0 bytes *)
  let rows = Runtime.Profile.per_class_allocs (bytecode_journal prog) in
  Alcotest.(check (list (triple string int int)))
    "rows" [ ("A", 1, 4); ("B", 2, 16); ("C", 5, 20) ] rows

(* -- journal edge cases, under both engines ---------------------------------- *)

(* The snapshot of [src] under both engines, which must agree. *)
let snap_both ?dead src =
  let prog = Util.check_source src in
  let run engine = (Runtime.Interp.run ~engine ?dead prog).Runtime.Interp.snapshot in
  let t = run Runtime.Interp.Tree and b = run Runtime.Interp.Bytecode in
  Util.check_bool "tree and bytecode snapshots agree" true (t = b);
  b

let check_journal what ~hwm ~hwm_reduced ~leaked (s : Runtime.Profile.snapshot) =
  Util.check_int (what ^ ": hwm") hwm s.high_water_mark;
  Util.check_int (what ^ ": reduced hwm") hwm_reduced s.high_water_mark_reduced;
  Util.check_int (what ^ ": leaked objects") leaked s.leaked_objects

(* [new A\[0\]] is a live allocation of 0 bytes: its [delete\[\]] must
   free it, so it is not counted as leaked. *)
let t_zero_length_array () =
  let s =
    snap_both
      "struct A { int x; };\n\
       int main() { A *z = new A[0]; A *p = new A(); delete[] z; return p->x; }"
  in
  Util.check_int "objects" 1 s.num_objects;
  check_journal "new A[0]" ~hwm:4 ~hwm_reduced:4 ~leaked:1 s

(* A second [delete] of the same object frees nothing more. *)
let t_double_delete () =
  let dead = Member.Set.of_list [ ("B", "w") ] in
  let s =
    snap_both ~dead
      "struct A { int x; };\nstruct B { int y; int w; };\n\
       int main() { A *p = new A(); A *q = new A(); delete p; delete p;\n\
       B *r = new B(); r->w = 1; return q->x + r->y; }"
  in
  check_journal "double delete" ~hwm:12 ~hwm_reduced:8 ~leaked:2 s

(* Freeing a member subobject frees nothing: its id was never
   journalled. The second one's id lies past every journalled id. *)
let t_free_unjournalled_id () =
  let s =
    snap_both
      "struct In { int v; In *self() { return this; } };\n\
       struct Out { In in; int w; };\n\
       int main() { Out *o = new Out(); In *i = o->in.self(); delete i;\n\
       Out arr[300]; In *j = arr[299].in.self(); free(j); return o->w; }"
  in
  check_journal "member subobject" ~hwm:2408 ~hwm_reduced:2408 ~leaked:1 s

(* [delete\[\]] of a scalar array frees no class object: scalar arrays
   are not journalled, so both Big objects of
   examples/corpus/scalar_delete.mcc are live at the end. *)
let t_scalar_delete () =
  let s = snap_both (Test_bytecode.corpus_source "scalar_delete.mcc") in
  Util.check_int "objects" 2 s.num_objects;
  Util.check_int "scalar bytes" 16 s.scalar_bytes;
  check_journal "scalar delete[]" ~hwm:32 ~hwm_reduced:32 ~leaked:2 s

(* The journal lays out each class once and then reuses the answer:
   journalling a class again must add exactly what a fresh layout says
   one object of it weighs. Checked on every class each port
   instantiates, under the port's paper dead set. *)
let t_size_memo_matches_layout () =
  List.iter
    (fun (b : Benchmarks.Suite.t) ->
      let prog = Util.check_source b.source in
      let dead =
        Deadmem.Liveness.dead_set
          (Deadmem.Liveness.analyze ~config:Deadmem.Config.paper prog)
      in
      let classes =
        List.map (fun (c, _, _) -> c)
          (Runtime.Profile.per_class_allocs (bytecode_journal ~dead prog))
      in
      Util.check_bool (b.name ^ " instantiates classes") true (classes <> []);
      let table = prog.Typed_ast.table in
      let p = Runtime.Profile.create ~dead table in
      let id = ref 0 in
      List.iter
        (fun cls ->
          let size = Layout.object_size table cls in
          let reduced = Layout.object_size ~dead table cls in
          let dead_bytes = Layout.dead_member_bytes ~dead table cls in
          (* once to lay the class out, then again from the memo *)
          List.iter
            (fun count ->
              let s0 = Runtime.Profile.snapshot p in
              Runtime.Profile.record_alloc p ~id:!id ~cls ~count;
              incr id;
              let s1 = Runtime.Profile.snapshot p in
              let what f = Printf.sprintf "%s %s x%d %s" b.name cls count f in
              Util.check_int (what "size") (size * count)
                (s1.Runtime.Profile.object_space - s0.Runtime.Profile.object_space);
              Util.check_int (what "dead bytes") (dead_bytes * count)
                (s1.Runtime.Profile.dead_space - s0.Runtime.Profile.dead_space);
              (* nothing is freed, so the reduced high-water mark is the
                 running reduced total *)
              Util.check_int (what "reduced size") (reduced * count)
                (s1.Runtime.Profile.high_water_mark_reduced
                - s0.Runtime.Profile.high_water_mark_reduced))
            [ 1; 3 ])
        classes)
    Benchmarks.Suite.all

let suite =
  [
    Util.test "single allocation" t_single_alloc;
    Util.test "high-water mark vs total" t_hwm_vs_total;
    Util.test "hwm equals total when leaked" t_hwm_equals_total_when_leaked;
    Util.test "stack objects counted" t_stack_objects_counted;
    Util.test "dead space accounting" t_dead_space_accounting;
    Util.test "dead space in arrays" t_dead_space_in_arrays;
    Util.test "scalar allocations separate" t_scalar_allocs_separate;
    Util.test "empty dead set" t_empty_dead_set_no_reduction;
    Util.test "independent hwm peaks" t_reduced_hwm_independent_peak;
    Util.test "per-class allocation summary" t_per_class_allocs;
    Util.test "new A[0] then delete[]" t_zero_length_array;
    Util.test "double delete frees once" t_double_delete;
    Util.test "free of a never-journalled id" t_free_unjournalled_id;
    Util.test "delete[] of a scalar array frees no object" t_scalar_delete;
    Util.test "journal sizes memoized per class match the layout"
      t_size_memo_matches_layout;
  ]
