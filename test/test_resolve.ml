(* Differential tests for the resolve pass (PR 3).

   The slot-addressed interpreter must be observably identical to the
   tree-walking interpreter it replaced. [Golden_runs] records, for every
   benchmark, the outcome the pre-slotting interpreter produced: stdout
   digest, exit value, step and allocation counts, the full profile
   snapshot and the dead-member set. The differential test replays each
   benchmark on the current interpreter and compares everything.

   The qcheck-style cases then stress the parts whose addressing changed
   the most: virtual dispatch through the precomputed per-name tables
   (random override patterns down a class chain), virtual-base slot
   sharing, member pointers through the per-class slot hashtable, and the
   structured missing-member error on unsafe downcasts. *)

open QCheck

let t_benchmark_differential () =
  List.iter
    (fun (g : Golden_runs.golden) ->
      let b = Benchmarks.Suite.find_exn g.g_name in
      let prog = Benchmarks.Suite.program b in
      let result =
        Deadmem.Liveness.analyze ~config:Deadmem.Config.paper prog
      in
      let dead_names =
        Deadmem.Liveness.dead_members result
        |> List.map Sema.Member.to_string
        |> List.sort compare
      in
      Alcotest.(check (list string))
        (g.g_name ^ ": dead members") g.g_dead_members dead_names;
      let dead =
        Sema.Member.Set.of_list (Deadmem.Liveness.dead_members result)
      in
      let o = Util.observe ~dead prog in
      let outcome =
        match o.result with Ok r -> r | Error e -> Alcotest.fail e
      in
      let check what = Util.check_int (g.g_name ^ ": " ^ what) in
      check "return value" g.g_return outcome.return_value;
      check "output length" g.g_output_len (String.length outcome.output);
      Util.check_string
        (g.g_name ^ ": output md5")
        g.g_output_md5
        (Digest.to_hex (Digest.string outcome.output));
      check "interp.steps" g.g_steps outcome.steps;
      check "interp.allocations" g.g_allocations o.allocations;
      let s = outcome.snapshot in
      check "object_space" g.g_object_space s.object_space;
      check "dead_space" g.g_dead_space s.dead_space;
      check "high_water_mark" g.g_hwm s.high_water_mark;
      check "high_water_mark_reduced" g.g_hwm_reduced s.high_water_mark_reduced;
      check "num_objects" g.g_num_objects s.num_objects;
      check "scalar_bytes" g.g_scalar_bytes s.scalar_bytes;
      check "leaked_objects" g.g_leaked s.leaked_objects)
    Golden_runs.all

(* -- virtual dispatch through the precomputed tables ---------------------------- *)

(* A chain C0 <- C1 <- ... with a random subset of classes overriding a
   virtual method; instantiating a random class and calling through a
   base pointer must reach the most-derived override at or below it. *)
type chain = { depth : int; overrides : bool list; instantiate : int }

let gen_chain =
  let open Gen in
  let* depth = int_range 1 5 in
  let* overrides = list_repeat depth bool in
  let* instantiate = int_bound depth in
  return { depth; overrides; instantiate }

let render_chain { depth; overrides; instantiate } =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "class C0 { public: virtual int tag() { return 0; } };\n";
  List.iteri
    (fun i ov ->
      let n = i + 1 in
      Buffer.add_string buf
        (Printf.sprintf "class C%d : public C%d { public:\n" n (n - 1));
      if ov then
        Buffer.add_string buf
          (Printf.sprintf "  virtual int tag() { return %d; }\n" n);
      Buffer.add_string buf "};\n")
    overrides;
  ignore depth;
  Buffer.add_string buf
    (Printf.sprintf
       "int main() { C%d obj; C0 *p = &obj; return p->tag(); }\n" instantiate);
  Buffer.contents buf

let expected_tag { overrides; instantiate; _ } =
  let rec best i acc = function
    | [] -> acc
    | ov :: rest ->
        if i > instantiate then acc
        else best (i + 1) (if ov then i else acc) rest
  in
  best 1 0 overrides

let prop_virtual_dispatch =
  Test.make ~name:"resolve: vtables pick the most-derived override" ~count:150
    (make ~print:render_chain gen_chain)
    (fun ch ->
      let outcome =
        Runtime.Interp.run (Util.check_source (render_chain ch))
      in
      outcome.return_value = expected_tag ch)

let t_virtual_base_slot_shared () =
  (* a member inherited through a shared virtual base has one slot per
     complete object: a write through one path reads back through the
     other *)
  Util.check_int "diamond: one slot for the shared base member" 21
    (Runtime.Interp.run
       (Util.check_source
          {|class VB { public: int v; VB() { v = 1; } };
            class L : public virtual VB { public: int l; };
            class R : public virtual VB { public: int r; };
            class D : public L, public R { public: int d; };
            int set_l(L *x) { x->v = 21; return 0; }
            int get_r(R *x) { return x->v; }
            int main() { D d; set_l(&d); return get_r(&d); }|}))
      .return_value

let t_virtual_call_on_virtual_base () =
  (* dispatch through a virtual-base pointer still sees the dynamic
     class's override *)
  Util.check_int "virtual call through virtual base" 7
    (Runtime.Interp.run
       (Util.check_source
          {|class VB { public: virtual int id() { return 1; } };
            class L : public virtual VB { };
            class R : public virtual VB { };
            class D : public L, public R { public: virtual int id() { return 7; } };
            int main() { D d; VB *p = &d; return p->id(); }|}))
      .return_value

let t_member_pointer_slots () =
  (* member pointers resolve their slot from the dynamic class at use
     time; a base member pointer applied to a derived object must reach
     the shared slot *)
  Util.check_int "member pointer through derived object" 11
    (Runtime.Interp.run
       (Util.check_source
          {|class A { public: int m; };
            class B : public A { public: int n; };
            int main() {
              B b;
              int A::*pm = &A::m;
              b.*pm = 11;
              return b.m;
            }|}))
      .return_value

let t_overridden_member_call_static () =
  (* non-virtual methods stay statically bound after resolution *)
  Util.check_int "non-virtual call statically bound" 1
    (Runtime.Interp.run
       (Util.check_source
          {|class A { public: int f() { return 1; } };
            class B : public A { public: int f() { return 2; } };
            int main() { B b; A *p = &b; return p->f(); }|}))
      .return_value

(* -- structured missing-member error -------------------------------------------- *)

let t_missing_field_slot_error () =
  (* an unsafe cross-cast followed by a member access names both the
     dynamic class and the (defining class, member) key in the error,
     instead of a bare lookup failure *)
  match
    Runtime.Interp.run
      (Util.check_source
         {|class A { public: int x; };
           class B { public: int y; };
           int main() { A a; a.x = 1; B *p = (B*)&a; return p->y; }|})
  with
  | exception Runtime.Value.Runtime_error m ->
      Util.check_bool "names the dynamic class" true
        (Util.contains_sub ~sub:"object of class A" m);
      Util.check_bool "names the member" true
        (Util.contains_sub ~sub:"B::y" m)
  | _ -> Alcotest.fail "expected a runtime error"

let t_missing_member_pointer_error () =
  match
    Runtime.Interp.run
      (Util.check_source
         {|class A { public: int x; };
           class B { public: int y; };
           int main() {
             A a;
             B *p = (B*)&a;
             int B::*pm = &B::y;
             return p->*pm;
           }|})
  with
  | exception Runtime.Value.Runtime_error m ->
      Util.check_bool "names class and member" true
        (Util.contains_sub ~sub:"object of class A has no member B::y" m)
  | _ -> Alcotest.fail "expected a runtime error"

let suite =
  [
    Util.test "benchmarks match pre-slotting goldens" t_benchmark_differential;
    Util.test "virtual base member shares one slot" t_virtual_base_slot_shared;
    Util.test "virtual call through virtual base" t_virtual_call_on_virtual_base;
    Util.test "member pointers use dynamic-class slots" t_member_pointer_slots;
    Util.test "non-virtual calls statically bound" t_overridden_member_call_static;
    Util.test "missing field slot: structured error" t_missing_field_slot_error;
    Util.test "missing member pointer target: structured error"
      t_missing_member_pointer_error;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_virtual_dispatch ]
