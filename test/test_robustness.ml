(* Robustness tests: the keep-going pipeline must turn every malformed
   input into structured diagnostics — never an uncaught exception — and
   its degradation must stay conservative (members mentioned only in
   broken code remain live).

   Three layers:
   - a hand-written crash corpus of pathological inputs;
   - a QCheck mutation generator that corrupts the real benchmark
     sources (deletions, duplications, truncations, garbage insertions);
   - unit tests for the diagnostics collector, the conservative
     degradation, and the interpreter's resource guards. *)

open QCheck
module Source = Frontend.Source
module D = Source.Diagnostics

(* Run the full keep-going pipeline; any escaping exception is a bug. *)
let resilient src =
  let diags = D.create () in
  let prog, unknown =
    Sema.Type_check.check_source_resilient ~file:"input.mcc" ~diags src
  in
  (diags, prog, unknown)

let analyze_resilient src =
  let diags, prog, unknown = resilient src in
  (diags, Deadmem.Liveness.analyze ~unknown prog)

(* -- crash corpus ---------------------------------------------------------- *)

let corpus =
  [
    ("empty", "");
    ("only garbage", "@@@ $$$ ???");
    ("control bytes", "\000\001\127int main() { return 0; }");
    ("unterminated comment", "int main() { return 0; } /* never closed");
    ("unterminated string", "int main() { print_str(\"oops; return 0; }");
    ("unterminated char", "int main() { char c = 'x; return 0; }");
    ( "bad numeric literals",
      "int main() { int a = 99999999999999999999; int b = \
       0x1FFFFFFFFFFFFFFFFF; double c = 1e+; return 0; }" );
    ("missing semicolon", "struct A { int x\n};\nint main() { return 0; }");
    ("unbalanced braces", "int main() { { { return 0; }");
    ("stray close brace", "}}} int main() { return 0; }");
    ("bad declarator", "int 42x = 3;\nint main() { return 0; }");
    ("unknown type", "Frob f;\nint main() { return 0; }");
    ("unknown base", "class A : public Missing { };\nint main() { return 0; }");
    ("duplicate class", "class A { };\nclass A { };\nint main() { return 0; }");
    ( "duplicate member",
      "class A { public: int x; int x; };\nint main() { return 0; }" );
    ( "orphan out-of-line method",
      "int Nope::f() { return 1; }\nint main() { return 0; }" );
    ("no main", "class A { public: int x; };");
    ( "bad ctor initializer",
      "class A { public: int x; A() : nothere(3) { } };\nint main() { A a; \
       return 0; }" );
    ( "global class object",
      "class A { public: int x; };\nA g;\nint main() { return 0; }" );
    ( "class value parameter",
      "class A { public: int x; };\nint f(A a) { return a.x; }\nint main() { \
       return 0; }" );
    ("deep parens", "int main() { return " ^ String.make 100_000 '(' ^ "0; }");
    ( "deep braces",
      "int main() { " ^ String.make 50_000 '{' ^ " return 0; }" );
    ( "three distinct errors",
      "struct G { int a\n};\nint f( { return 1; }\nint g() { return wat; \
       }\nint main() { return 0; }" );
  ]

let t_corpus_never_raises () =
  List.iter
    (fun (name, src) ->
      match analyze_resilient src with
      | diags, _ ->
          Util.check_bool
            (Printf.sprintf "%s: has structured errors" name)
            true (D.has_errors diags)
      | exception e ->
          Alcotest.failf "corpus %S: uncaught %s" name (Printexc.to_string e))
    corpus

let t_multi_error_accumulation () =
  let src =
    "struct G { int a\n};\nint f( { return 1; }\nint g() { return wat; }\n\
     int main() { return 0; }"
  in
  let diags, _, _ = resilient src in
  let n = D.error_count diags in
  if n < 3 then
    Alcotest.failf "expected at least 3 accumulated errors, got %d" n;
  (* distinct messages, not the same error re-reported *)
  let msgs =
    D.to_list diags
    |> List.map (fun d -> d.Source.message)
    |> List.sort_uniq compare
  in
  if List.length msgs < 3 then
    Alcotest.failf "expected 3 distinct messages, got %d" (List.length msgs)

(* Recovery must not cost diagnostics on *valid* input: the resilient
   pipeline and the strict pipeline agree on every benchmark. *)
let t_resilient_matches_strict_on_valid () =
  List.iter
    (fun (b : Benchmarks.Suite.t) ->
      let diags, prog, unknown = resilient b.source in
      Util.check_bool
        (Printf.sprintf "%s: no errors" b.name)
        false (D.has_errors diags);
      Util.check_int (Printf.sprintf "%s: no unknown regions" b.name) 0
        (List.length unknown);
      let strict = Sema.Type_check.check_source b.source in
      let d1 = Util.dead_names (Deadmem.Liveness.analyze ~unknown prog) in
      let d2 = Util.dead_names (Deadmem.Liveness.analyze strict) in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: same dead set" b.name)
        d2 d1)
    Benchmarks.Suite.all

(* -- conservative degradation ---------------------------------------------- *)

let t_unknown_region_keeps_members_live () =
  (* [spare] is only mentioned inside a function that fails to check; the
     clean version of the program proves it would otherwise be dead *)
  let clean =
    "struct G { int used; int spare; };\nint main() { G g; g.used = 1; \
     return g.used; }"
  in
  let broken =
    "struct G { int used; int spare; };\nint touch(G* g) { return g->spare \
     + oops; }\nint main() { G g; g.used = 1; return g.used; }"
  in
  let _, r_clean = analyze_resilient clean in
  Util.check_bool "clean: spare is dead" true
    (Deadmem.Liveness.is_dead r_clean ("G", "spare"));
  let diags, r_broken = analyze_resilient broken in
  Util.check_bool "broken: has errors" true (D.has_errors diags);
  Util.check_int "broken: one unknown region" 1
    (List.length r_broken.Deadmem.Liveness.unknown);
  Util.check_bool "broken: spare stays live" false
    (Deadmem.Liveness.is_dead r_broken ("G", "spare"))

let t_unparsed_region_keeps_members_live () =
  (* the reference to [spare] sits in a declaration that does not even
     parse; the identifiers of the skipped tokens must still count *)
  let broken =
    "struct G { int used; int spare; };\nint touch(G* g) { return \
     g->spare + ; }\nint main() { G g; g.used = 1; return g.used; }"
  in
  let diags, r = analyze_resilient broken in
  Util.check_bool "has errors" true (D.has_errors diags);
  Util.check_bool "spare stays live" false
    (Deadmem.Liveness.is_dead r ("G", "spare"))

(* -- diagnostics collector ------------------------------------------------- *)

let span_at line =
  {
    Source.file = "f.mcc";
    start_line = line;
    start_col = 1;
    start_offset = line;
    end_line = line;
    end_col = 1;
    end_offset = line + 1;
  }

let t_collector_cap () =
  let d = D.create ~max_errors_per_file:3 () in
  for i = 1 to 10 do
    D.error d ~at:(span_at i) "error %d" i
  done;
  Util.check_int "all errors counted" 10 (D.error_count d);
  Util.check_int "beyond-cap errors suppressed" 7 (D.suppressed_count d);
  Util.check_int "stored up to the cap" 3 (List.length (D.to_list d));
  Util.check_bool "has_errors" true (D.has_errors d)

let t_collector_sorted_stable () =
  let d = D.create () in
  D.error d ~at:(span_at 9) "third";
  D.warning d ~at:(span_at 2) "warn at 2";
  D.error d ~at:(span_at 2) "error at 2";
  D.note d ~at:(span_at 2) "note at 2";
  D.error d ~at:(span_at 1) "first";
  let order = List.map (fun x -> x.Source.message) (D.to_list d) in
  Alcotest.(check (list string))
    "position-sorted, severity breaks ties"
    [ "first"; "error at 2"; "warn at 2"; "note at 2"; "third" ]
    order

let t_json_escaping () =
  Util.check_string "escapes specials" "a\\\"b\\\\c\\nd\\u0001"
    (Source.json_escape "a\"b\\c\nd\001");
  let d =
    { Source.severity = Source.Error; message = "bad \"x\""; at = span_at 1 }
  in
  let j = Source.diagnostic_to_json d in
  Util.check_bool "json has escaped quote" true
    (Util.contains_sub ~sub:{|bad \"x\"|} j);
  Util.check_bool "json has file" true
    (Util.contains_sub ~sub:{|"file":"f.mcc"|} j)

(* -- interpreter resource guards ------------------------------------------- *)

let t_call_depth_guard () =
  let p =
    Util.check_source
      "int f(int n) { return f(n + 1); }\nint main() { return f(0); }"
  in
  match Runtime.Interp.run ~call_depth_limit:256 p with
  | exception Runtime.Value.Limit_exceeded m ->
      Util.check_bool "mentions call depth" true
        (Util.contains_sub ~sub:"call depth" m)
  | _ -> Alcotest.fail "expected the call-depth guard to fire"

let t_object_limit_guard () =
  let p =
    Util.check_source
      "class A { public: int x; };\nint main() { while (1) { A *a = new \
       A(); } return 0; }"
  in
  match Runtime.Interp.run ~heap_object_limit:64 p with
  | exception Runtime.Value.Limit_exceeded m ->
      Util.check_bool "mentions object limit" true
        (Util.contains_sub ~sub:"object limit" m)
  | _ -> Alcotest.fail "expected the object guard to fire"

let t_limits_in_snapshot () =
  let outcome =
    Runtime.Interp.run ~step_limit:5000 ~call_depth_limit:77
      ~heap_object_limit:99
      (Util.check_source "int main() { return 0; }")
  in
  match outcome.Runtime.Interp.snapshot.Runtime.Profile.limits with
  | None -> Alcotest.fail "snapshot must carry the limits"
  | Some l ->
      Util.check_int "step limit" 5000 l.Runtime.Profile.l_step_limit;
      Util.check_int "call depth limit" 77 l.Runtime.Profile.l_call_depth_limit;
      Util.check_int "object limit" 99 l.Runtime.Profile.l_heap_object_limit

let t_scalar_size_total () =
  Util.check_bool "named type has no scalar size" true
    (Layout.scalar_size (Frontend.Ast.TNamed "X") = None);
  Util.check_bool "array type has no scalar size" true
    (Layout.scalar_size (Frontend.Ast.TArr (Frontend.Ast.TInt, 4)) = None);
  Util.check_bool "int is 4 bytes" true
    (Layout.scalar_size Frontend.Ast.TInt = Some 4)

(* -- mutation property ------------------------------------------------------ *)

type mutation =
  | Delete of int * int
  | Duplicate of int * int
  | ReplaceChar of int * char
  | Truncate of int
  | Insert of int * string

let garbage =
  [ "}"; "{"; ";"; "class"; "::"; "@"; "\""; "/*"; "'"; "int"; "~"; "#if" ]

let gen_mutation =
  let open Gen in
  let pos = int_bound 100_000 in
  oneof
    [
      (let* a = pos and* l = int_bound 200 in
       return (Delete (a, l)));
      (let* a = pos and* l = int_bound 200 in
       return (Duplicate (a, l)));
      (let* a = pos and* c = printable in
       return (ReplaceChar (a, c)));
      (let* a = pos in
       return (Truncate a));
      (let* a = pos and* s = oneofl garbage in
       return (Insert (a, s)));
    ]

let clamp lo hi v = max lo (min hi v)

let apply_mutation src m =
  let n = String.length src in
  if n = 0 then src
  else
    match m with
    | Delete (at, len) ->
        let at = clamp 0 (n - 1) at in
        let len = clamp 0 (n - at) len in
        String.sub src 0 at ^ String.sub src (at + len) (n - at - len)
    | Duplicate (at, len) ->
        let at = clamp 0 (n - 1) at in
        let len = clamp 0 (n - at) len in
        String.sub src 0 (at + len) ^ String.sub src at (n - at)
    | ReplaceChar (at, c) ->
        let at = clamp 0 (n - 1) at in
        let b = Bytes.of_string src in
        Bytes.set b at c;
        Bytes.to_string b
    | Truncate at -> String.sub src 0 (clamp 0 n at)
    | Insert (at, s) ->
        let at = clamp 0 n at in
        String.sub src 0 at ^ s ^ String.sub src at (n - at)

let gen_mutated =
  let open Gen in
  let* bench = oneofl Benchmarks.Suite.all in
  let* muts = list_size (int_range 1 4) gen_mutation in
  return (bench.Benchmarks.Suite.name, List.fold_left apply_mutation bench.source muts)

let print_mutated (name, src) =
  Printf.sprintf "mutant of %s (%d bytes): %s" name (String.length src)
    (if String.length src <= 400 then src else String.sub src 0 400 ^ "...")

let prop_mutations_never_crash =
  Test.make ~name:"robustness: mutated benchmarks never crash the pipeline"
    ~count:150
    (make ~print:print_mutated gen_mutated)
    (fun (_, src) ->
      match analyze_resilient src with
      | _, _ -> true
      | exception _ -> false)

let suite =
  [
    Util.test "crash corpus never raises" t_corpus_never_raises;
    Util.test "multiple errors accumulate" t_multi_error_accumulation;
    Util.test "resilient = strict on valid input"
      t_resilient_matches_strict_on_valid;
    Util.test "unknown region keeps members live"
      t_unknown_region_keeps_members_live;
    Util.test "unparsed region keeps members live"
      t_unparsed_region_keeps_members_live;
    Util.test "collector caps errors per file" t_collector_cap;
    Util.test "collector output sorted and stable" t_collector_sorted_stable;
    Util.test "JSON diagnostics escape specials" t_json_escaping;
    Util.test "call-depth guard fires" t_call_depth_guard;
    Util.test "object-count guard fires" t_object_limit_guard;
    Util.test "snapshot records the limits" t_limits_in_snapshot;
    Util.test "scalar_size is total" t_scalar_size_total;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_mutations_never_crash ]
