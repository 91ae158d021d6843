(* Telemetry subsystem: instrument semantics (monotone counters, disabled
   no-op, reset), snapshot formats (metrics JSON round-trip, Chrome trace
   validity), and liveness provenance — the data behind `deadmem explain`
   — on the paper's Figure 1 program. *)

module T = Telemetry
module L = Deadmem.Liveness

(* Every test leaves the collector the way the rest of the suite expects
   it: disabled and empty. *)
let with_telemetry f =
  T.reset ();
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    f

(* -- instrument semantics ---------------------------------------------------- *)

let t_counter_monotone () =
  with_telemetry @@ fun () ->
  let c = T.Counter.make "test.monotone" in
  T.Counter.add c 5;
  Util.check_int "add" 5 (T.Counter.value c);
  T.Counter.add c (-3);
  Util.check_int "negative delta ignored" 5 (T.Counter.value c);
  T.Counter.add c 0;
  Util.check_int "zero delta ignored" 5 (T.Counter.value c);
  T.Counter.incr c;
  Util.check_int "incr" 6 (T.Counter.value c)

let t_counter_make_idempotent () =
  with_telemetry @@ fun () ->
  let a = T.Counter.make "test.same" and b = T.Counter.make "test.same" in
  T.Counter.incr a;
  T.Counter.incr b;
  Util.check_int "same cell" 2 (T.Counter.value a)

let t_disabled_noop () =
  T.reset ();
  T.set_enabled false;
  let c = T.Counter.make "test.disabled" in
  let g = T.Gauge.make "test.disabled_gauge" in
  T.Counter.add c 7;
  T.Gauge.set g 7;
  let v = T.Span.with_ "test.disabled_span" (fun () -> 41 + 1) in
  Util.check_int "with_ still returns the value" 42 v;
  Util.check_int "disabled counter never moves" 0 (T.Counter.value c);
  Util.check_bool "disabled: no counters in snapshot" true (T.counters () = []);
  Util.check_bool "disabled: no gauges in snapshot" true (T.gauges () = []);
  Util.check_bool "disabled: no spans recorded" true (T.Span.completed () = [])

(* The disabled path is one boolean load and allocates nothing: 10,000
   calls of each instrument take no more minor words than zero calls do
   (the same loop around the same measurement). *)
let noop () = ()

let t_disabled_allocates_nothing () =
  T.reset ();
  T.set_enabled false;
  let c = T.Counter.make "test.zero_words"
  and g = T.Gauge.make "test.zero_words_gauge"
  and h = T.Histogram.make "test.zero_words_hist" in
  let words n call =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      call ()
    done;
    int_of_float (Gc.minor_words () -. w0)
  in
  List.iter
    (fun (name, call) ->
      let zero = words 0 call and many = words 10_000 call in
      if many > zero then
        Alcotest.failf "%s: 10,000 disabled calls allocate %d minor words, zero calls %d"
          name many zero)
    [
      ("Counter.incr", fun () -> T.Counter.incr c);
      ("Counter.add", fun () -> T.Counter.add c 3);
      ("Gauge.set", fun () -> T.Gauge.set g 3);
      ("Histogram.observe", fun () -> T.Histogram.observe h 3);
      ("Span.with_", fun () -> T.Span.with_ "test.zero_words_span" noop);
    ]

let t_reset_keeps_registrations () =
  with_telemetry @@ fun () ->
  let c = T.Counter.make "test.reset" in
  T.Counter.add c 3;
  ignore (T.Span.with_ "test.reset_span" (fun () -> ()));
  T.reset ();
  Util.check_int "counter cleared" 0 (T.Counter.value c);
  Util.check_bool "spans cleared" true (T.Span.completed () = []);
  T.Counter.incr c;
  Util.check_int "registration survives reset" 1 (T.Counter.value c);
  Util.check_bool "still in snapshot after reset" true
    (List.mem_assoc "test.reset" (T.counters ()))

let t_gauge_untouched_omitted () =
  with_telemetry @@ fun () ->
  let _never = T.Gauge.make "test.never_set" in
  let g = T.Gauge.make "test.set_once" in
  T.Gauge.set g 0;
  Util.check_bool "untouched gauge omitted" false
    (List.mem_assoc "test.never_set" (T.gauges ()));
  Util.check_bool "touched gauge kept even at zero" true
    (List.mem_assoc "test.set_once" (T.gauges ()))

(* -- histograms --------------------------------------------------------------- *)

module H = T.Histogram

(* Snapshot equality modulo the name (merge keeps the left name). *)
let same_snap (a : H.snap) (b : H.snap) =
  a.H.h_count = b.H.h_count && a.H.h_sum = b.H.h_sum && a.H.h_max = b.H.h_max
  && a.H.h_buckets = b.H.h_buckets

let t_hist_observe_snapshot () =
  with_telemetry @@ fun () ->
  let h = H.make "test.hist" in
  List.iter (H.observe h) [ 0; 1; 5; 5; 100; 10_000 ];
  let s = H.snapshot h in
  Util.check_int "count" 6 s.H.h_count;
  Util.check_int "sum" 10_111 s.H.h_sum;
  Util.check_int "max exact" 10_000 s.H.h_max;
  Util.check_int "p100 is the exact max" 10_000 (H.quantile s 1.0);
  Util.check_bool "mean" true (abs_float (H.mean s -. 10_111.0 /. 6.0) < 1e-9)

let t_hist_disabled_noop () =
  T.reset ();
  T.set_enabled false;
  let h = H.make "test.hist_disabled" in
  H.observe h 42;
  Util.check_int "disabled: nothing recorded" 0 (H.snapshot h).H.h_count;
  Util.check_bool "disabled: not in registry snapshot" true
    (T.histograms () = [])

let t_hist_quantiles_known_distribution () =
  let s = H.of_values ~name:"t" (List.init 1000 (fun i -> i + 1)) in
  Util.check_int "count" 1000 s.H.h_count;
  let p50 = H.quantile s 0.5 and p90 = H.quantile s 0.9 in
  (* a bucket's upper bound overshoots its values by < 25% *)
  Util.check_bool "p50 in [500, 625)" true (p50 >= 500 && p50 < 625);
  Util.check_bool "p90 in [900, 1125)" true (p90 >= 900 && p90 < 1125);
  Util.check_int "p100 exact" 1000 (H.quantile s 1.0);
  Util.check_int "p0 positive" 1 (H.quantile s 0.0)

(* merge: associative and commutative, with of_values as the oracle *)
let values_gen = QCheck.Gen.(list_size (int_bound 40) (int_bound 200_000))

let snap_of vs = H.of_values ~name:"t" vs

let prop_hist_merge_assoc_comm =
  QCheck.Test.make ~count:100 ~name:"histogram merge assoc + comm"
    QCheck.(
      make
        Gen.(triple values_gen values_gen values_gen))
    (fun (xs, ys, zs) ->
      let a = snap_of xs and b = snap_of ys and c = snap_of zs in
      same_snap (H.merge (H.merge a b) c) (H.merge a (H.merge b c))
      && same_snap (H.merge a b) (H.merge b a)
      && same_snap (H.merge a (H.empty_snap "t")) a
      && same_snap (H.merge a b) (snap_of (xs @ ys)))

let prop_hist_quantile_monotone =
  QCheck.Test.make ~count:100 ~name:"histogram quantiles monotone, bounded"
    QCheck.(make values_gen)
    (fun vs ->
      let s = snap_of vs in
      let qs = [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
      let estimates = List.map (H.quantile s) qs in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono estimates
      && List.for_all (fun e -> e <= s.H.h_max) estimates
      && (vs = [] || H.quantile s 1.0 = List.fold_left max 0 (List.map (max 0) vs)))

let prop_hist_bucket_overshoot =
  QCheck.Test.make ~count:200 ~name:"histogram bucket overshoot < 25%"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun v ->
      let s = snap_of [ v ] in
      match s.H.h_buckets with
      | [ (i, 1) ] ->
          let ub = H.bucket_upper i in
          ub >= v && float_of_int ub <= (float_of_int v *. 1.25) +. 1.0
      | _ -> false)

(* concurrent observers: the quiescent snapshot equals the offline oracle *)
let prop_hist_concurrent_observe =
  QCheck.Test.make ~count:20 ~name:"histogram snapshot consistent across domains"
    QCheck.(make values_gen)
    (fun vs ->
      T.reset ();
      T.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          T.set_enabled false;
          T.reset ())
        (fun () ->
          let h = H.make "test.hist_domains" in
          let n = List.length vs in
          let arr = Array.of_list vs in
          let chunk k =
            (* domain k observes indices k, k+4, k+8, … *)
            let rec go i = if i < n then (H.observe h arr.(i); go (i + 4)) in
            go k
          in
          let doms = List.init 3 (fun k -> Domain.spawn (fun () -> chunk (k + 1))) in
          chunk 0;
          List.iter Domain.join doms;
          same_snap (H.snapshot h) (snap_of vs)))

let t_span_trace_tag () =
  with_telemetry @@ fun () ->
  ignore (T.Span.with_ ~trace:"t-42" "test.traced" (fun () -> ()));
  ignore (T.Span.with_ "test.untraced" (fun () -> ()));
  let by_name n =
    List.find (fun (s : T.Span.completed) -> s.T.Span.sp_name = n)
      (T.Span.completed ())
  in
  Util.check_bool "trace recorded" true
    ((by_name "test.traced").T.Span.sp_trace = Some "t-42");
  Util.check_bool "absent when untagged" true
    ((by_name "test.untraced").T.Span.sp_trace = None)

(* -- snapshot formats -------------------------------------------------------- *)

let json_exn s =
  match T.Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "JSON did not parse: %s" e

let t_metrics_json_roundtrip () =
  with_telemetry @@ fun () ->
  let _ = Util.analyze Test_liveness.figure1 in
  let j = json_exn (T.metrics_json ()) in
  let counter name =
    match T.Json.(Option.bind (member "counters" j) (member name)) with
    | Some v -> T.Json.to_int v
    | None -> None
  in
  (match counter "lexer.tokens" with
  | Some n -> Util.check_bool "lexer.tokens positive" true (n > 0)
  | None -> Alcotest.fail "counters.lexer.tokens missing");
  (match counter "sema.classes" with
  | Some n -> Util.check_int "sema.classes" 4 n
  | None -> Alcotest.fail "counters.sema.classes missing");
  (match T.Json.(Option.bind (member "gauges" j) (member "liveness.dead_members")) with
  | Some v -> Util.check_bool "dead_members gauge" true (T.Json.to_int v = Some 3)
  | None -> Alcotest.fail "gauges.liveness.dead_members missing");
  match Option.bind (T.Json.member "spans" j) T.Json.to_list with
  | Some (_ :: _) -> ()
  | Some [] -> Alcotest.fail "spans empty"
  | None -> Alcotest.fail "spans missing"

let t_trace_json_valid () =
  with_telemetry @@ fun () ->
  let _ = Util.analyze Test_liveness.figure1 in
  let j = json_exn (T.trace_json ()) in
  let events =
    match T.Json.to_list j with
    | Some l -> l
    | None -> Alcotest.fail "trace is not a JSON array"
  in
  Util.check_bool "at least one event" true (events <> []);
  let names =
    List.map
      (fun e ->
        (match Option.bind (T.Json.member "ph" e) T.Json.to_string with
        | Some "X" -> ()
        | _ -> Alcotest.fail "event ph is not \"X\"");
        (match Option.bind (T.Json.member "ts" e) T.Json.to_int with
        | Some _ -> ()
        | None -> Alcotest.fail "event ts missing");
        (match Option.bind (T.Json.member "dur" e) T.Json.to_int with
        | Some _ -> ()
        | None -> Alcotest.fail "event dur missing");
        match Option.bind (T.Json.member "name" e) T.Json.to_string with
        | Some n -> n
        | None -> Alcotest.fail "event name missing")
      events
  in
  (* one span per pipeline phase of analyze *)
  List.iter
    (fun phase ->
      Util.check_bool (phase ^ " span present") true (List.mem phase names))
    [ "lex"; "parse"; "typecheck"; "callgraph"; "liveness" ]

let t_metrics_json_histograms () =
  with_telemetry @@ fun () ->
  let h = H.make "test.mj_hist" in
  List.iter (H.observe h) [ 1; 2; 3; 500 ];
  let j = json_exn (T.metrics_json ()) in
  (match T.Json.(Option.bind (member "histograms" j) (member "test.mj_hist")) with
  | Some hist ->
      Util.check_bool "count" true
        (T.Json.(Option.bind (member "count" hist) to_int) = Some 4);
      Util.check_bool "max exact" true
        (T.Json.(Option.bind (member "max" hist) to_int) = Some 500);
      List.iter
        (fun q ->
          Util.check_bool (q ^ " present") true (T.Json.member q hist <> None))
        [ "p50"; "p90"; "p99"; "buckets" ]
  | None -> Alcotest.fail "histograms.test.mj_hist missing");
  Util.check_bool "spans_dropped exported" true
    (T.Json.member "spans_dropped" j <> None);
  Util.check_bool "span_cap exported" true (T.Json.member "span_cap" j <> None)

let t_prometheus_text () =
  with_telemetry @@ fun () ->
  let c = T.Counter.make "test.prom_counter" in
  T.Counter.add c 3;
  let h = H.make "test.prom_hist.us" in
  List.iter (H.observe h) [ 1; 10; 100 ];
  let text = T.prometheus_text () in
  Util.check_bool "counter sample" true
    (Util.contains_sub ~sub:"# TYPE deadmem_test_prom_counter counter\ndeadmem_test_prom_counter 3\n" text);
  Util.check_bool "histogram TYPE line" true
    (Util.contains_sub ~sub:"# TYPE deadmem_test_prom_hist_us histogram" text);
  Util.check_bool "+Inf bucket closes the series" true
    (Util.contains_sub ~sub:{|deadmem_test_prom_hist_us_bucket{le="+Inf"} 3|} text);
  Util.check_bool "sum sample" true
    (Util.contains_sub ~sub:"deadmem_test_prom_hist_us_sum 111\n" text);
  Util.check_bool "count sample" true
    (Util.contains_sub ~sub:"deadmem_test_prom_hist_us_count 3\n" text);
  (* every non-comment line is "name[{labels}] value" with an integer value *)
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then begin
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "unparseable exposition line: %s" line
        | Some i -> (
            let name = String.sub line 0 i in
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            Util.check_bool ("prefixed: " ^ name) true
              (String.length name > 8 && String.sub name 0 8 = "deadmem_");
            match int_of_string_opt v with
            | Some _ -> ()
            | None -> Alcotest.failf "non-integer sample value: %s" line)
      end)
    (String.split_on_char '\n' text)

let t_json_parser_rejects_garbage () =
  Util.check_bool "trailing garbage" true
    (Result.is_error (T.Json.parse "{} x"));
  Util.check_bool "unterminated" true (Result.is_error (T.Json.parse "[1,"));
  Util.check_bool "empty" true (Result.is_error (T.Json.parse "  "))

(* -- liveness provenance (the data behind `deadmem explain`) ------------------ *)

let rule_of result cls name =
  Option.map (fun r -> r.L.pv_rule) (L.provenance result (cls, name))

let t_figure1_live_provenance () =
  let _, r = Util.analyze Test_liveness.figure1 in
  (* truly-live members and the paper rule that marks each *)
  List.iter
    (fun (cls, name, rule) ->
      (match rule_of r cls name with
      | Some got ->
          Util.check_string
            (Printf.sprintf "%s::%s rule" cls name)
            (L.rule_name rule) (L.rule_name got)
      | None ->
          Alcotest.failf "%s::%s is live but has no provenance" cls name);
      match L.provenance r (cls, name) with
      | Some { L.pv_loc = Some _; _ } -> ()
      | Some { L.pv_loc = None; _ } ->
          Alcotest.failf "%s::%s has no source location" cls name
      | None -> assert false)
    [
      ("A", "ma1", L.RRead);
      ("N", "mn1", L.RRead);
      ("B", "mb2", L.RRead);
      ("B", "mb4", L.RAddressTaken) (* foo(&b.mb4) *);
      ("B", "mb1", L.RRead) (* conservatively live: read in B::f *);
      ("B", "mb3", L.RRead);
      ("C", "mc1", L.RRead);
    ]

let t_figure1_dead_no_provenance () =
  let _, r = Util.analyze Test_liveness.figure1 in
  List.iter
    (fun (cls, name) ->
      Util.check_bool
        (Printf.sprintf "%s::%s has no derivation" cls name)
        true
        (L.provenance r (cls, name) = None);
      Util.check_bool "explain says DEAD" true
        (Util.contains_sub ~sub:"DEAD" (L.explain r (cls, name))))
    [ ("A", "ma2"); ("A", "ma3"); ("N", "mn2") ]

let t_explain_call_path () =
  let _, r = Util.analyze Test_liveness.figure1 in
  let text = L.explain r ("A", "ma1") in
  Util.check_bool "names the rule" true (Util.contains_sub ~sub:"rule: read" text);
  Util.check_bool "names the function" true
    (Util.contains_sub ~sub:"in: A::f" text);
  Util.check_bool "call path from main" true
    (Util.contains_sub ~sub:"call path: main -> A::f" text);
  Util.check_bool "known member" true (L.known_member r ("A", "ma1"));
  Util.check_bool "unknown member" false (L.known_member r ("A", "zz"))

let t_rule_volatile_write () =
  let _, r =
    Util.analyze
      "class A { public: volatile int v; int w; };\n\
       int main() { A a; a.v = 1; a.w = 1; return 0; }"
  in
  Util.check_bool "volatile-write rule" true
    (rule_of r "A" "v" = Some L.RVolatileWrite);
  Util.check_bool "plain write: no derivation" true (rule_of r "A" "w" = None)

let t_rule_pointer_to_member () =
  let _, r =
    Util.analyze
      {|class A { public: int m; int n; };
        int main() { A a; int A::*pm = &A::m; return a.*pm; }|}
  in
  Util.check_bool "pointer-to-member rule" true
    (rule_of r "A" "m" = Some L.RPointerToMember)

let t_rule_unsafe_cast () =
  let _, r =
    Util.analyze
      {|class A { public: int a; };
        class X { public: int x; };
        int main() { A a; X *p = (X*)&a; if (p == NULL) return 1; return 0; }|}
  in
  match L.provenance r ("A", "a") with
  | Some { L.pv_rule = L.RUnsafeCast; pv_via = Some _; _ } -> ()
  | Some { L.pv_rule; _ } ->
      Alcotest.failf "expected unsafe-cast, got %s" (L.rule_name pv_rule)
  | None -> Alcotest.fail "cross-cast source member has no provenance"

let t_marks_counters_track_provenance () =
  with_telemetry @@ fun () ->
  let _, r = Util.analyze Test_liveness.figure1 in
  let marks =
    List.filter
      (fun (name, _) ->
        String.length name > 15 && String.sub name 0 15 = "liveness.marks.")
      (T.counters ())
  in
  let total = List.fold_left (fun acc (_, v) -> acc + v) 0 marks in
  Util.check_int "one first-mark per live member"
    (List.length (L.live_members r))
    total

let suite =
  [
    Util.test "counters are monotone" t_counter_monotone;
    Util.test "Counter.make is idempotent" t_counter_make_idempotent;
    Util.test "disabled telemetry is a no-op" t_disabled_noop;
    Util.test "disabled telemetry allocates nothing" t_disabled_allocates_nothing;
    Util.test "reset keeps registrations" t_reset_keeps_registrations;
    Util.test "untouched gauges omitted" t_gauge_untouched_omitted;
    Util.test "histogram observe/snapshot/quantile" t_hist_observe_snapshot;
    Util.test "histogram disabled is a no-op" t_hist_disabled_noop;
    Util.test "histogram quantiles on a known distribution"
      t_hist_quantiles_known_distribution;
    QCheck_alcotest.to_alcotest prop_hist_merge_assoc_comm;
    QCheck_alcotest.to_alcotest prop_hist_quantile_monotone;
    QCheck_alcotest.to_alcotest prop_hist_bucket_overshoot;
    QCheck_alcotest.to_alcotest prop_hist_concurrent_observe;
    Util.test "span trace tags recorded" t_span_trace_tag;
    Util.test "metrics JSON exports histograms and span caps"
      t_metrics_json_histograms;
    Util.test "prometheus exposition parses" t_prometheus_text;
    Util.test "metrics JSON round-trips" t_metrics_json_roundtrip;
    Util.test "trace JSON is valid Chrome trace" t_trace_json_valid;
    Util.test "JSON parser rejects garbage" t_json_parser_rejects_garbage;
    Util.test "Figure 1: live members name paper rules" t_figure1_live_provenance;
    Util.test "Figure 1: dead members have no derivation"
      t_figure1_dead_no_provenance;
    Util.test "explain prints rule, site and call path" t_explain_call_path;
    Util.test "volatile-write rule recorded" t_rule_volatile_write;
    Util.test "pointer-to-member rule recorded" t_rule_pointer_to_member;
    Util.test "unsafe-cast rule recorded with via class" t_rule_unsafe_cast;
    Util.test "mark counters equal live members" t_marks_counters_track_provenance;
  ]
