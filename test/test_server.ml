(* Server tests: the JSONL protocol, the supervised worker pool, and the
   dispatcher's robustness contract — every non-blank frame gets exactly
   one structured JSON response, whatever the client sends.

   Layers:
   - protocol unit tests (parsing, validation, response shape);
   - supervisor unit tests (overload shedding, restart-on-poison,
     quarantine, graceful drain);
   - dispatcher semantics through [Serve.execute] and
     [Serve.handle_line]: deadlines (in-queue and mid-run), resource
     limits, engine error parity, caching, fault injection;
   - the serve crash corpus (examples/corpus/serve/), in-process;
   - a QCheck fuzzer over the request protocol. *)

open QCheck
module P = Server.Protocol
module Serve = Server.Serve
module Sup = Server.Supervisor
module J = Telemetry.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* -- helpers ---------------------------------------------------------------- *)

let test_cfg =
  {
    Serve.default_config with
    Serve.jobs = 1;
    queue_cap = 8;
    default_deadline_ms = 10_000;
    max_request_bytes = 4096;
  }

let parse_ok line =
  match P.parse_request ~max_depth:64 line with
  | Ok r -> r
  | Error (_, _, msg) -> Alcotest.failf "unexpected parse error: %s" msg

let parse_err line =
  match P.parse_request ~max_depth:64 line with
  | Ok _ -> Alcotest.failf "parsed, expected an error: %s" line
  | Error (id, kind, _) -> (id, kind)

let json_of resp =
  match J.parse resp with
  | Ok v -> v
  | Error m -> Alcotest.failf "response is not JSON (%s): %s" m resp

(* response → (ok, error kind when not ok) *)
let shape resp =
  let v = json_of resp in
  match J.member "ok" v with
  | Some (J.Bool true) -> (true, None)
  | Some (J.Bool false) -> (
      match J.member "error" v with
      | Some err -> (
          match J.member "kind" err with
          | Some (J.Str k) -> (false, Some k)
          | _ -> Alcotest.failf "error without kind: %s" resp)
      | None -> Alcotest.failf "ok:false without error: %s" resp)
  | _ -> Alcotest.failf "response without ok: %s" resp

let resp_id resp =
  match J.member "id" (json_of resp) with
  | Some (J.Str s) -> Some s
  | _ -> None

let exec ?(cfg = test_cfg) line =
  Serve.execute cfg (parse_ok line) ~enqueued:(Unix.gettimeofday ())

(* In-process harness: a live server pool plus a response collector that
   lets tests await the 1-response-per-frame contract. *)
type harness = {
  h_t : Serve.t;
  h_mu : Mutex.t;
  mutable h_responses : string list;  (* newest first *)
}

let make_harness ?(cfg = test_cfg) () =
  { h_t = Serve.create cfg; h_mu = Mutex.create (); h_responses = [] }

let feed h line =
  Serve.handle_line h.h_t
    ~respond:(fun s ->
      Mutex.protect h.h_mu (fun () -> h.h_responses <- s :: h.h_responses))
    line

let count h = Mutex.protect h.h_mu (fun () -> List.length h.h_responses)

let responses h = Mutex.protect h.h_mu (fun () -> List.rev h.h_responses)

(* Wait until [n] responses arrived; a stuck daemon fails loudly instead
   of hanging the suite. *)
let await ?(timeout = 30.) h n =
  let deadline = Unix.gettimeofday () +. timeout in
  while count h < n && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if count h < n then
    Alcotest.failf "timed out: %d of %d responses after %.0fs" (count h) n
      timeout

let stop h = Serve.drain_pool h.h_t

let loop_src = "int main() { while (1) { } return 0; }"

(* -- protocol --------------------------------------------------------------- *)

let t_parse_minimal () =
  let r = parse_ok {|{"id":"1","cmd":"health"}|} in
  check_string "id" "1" (Option.get r.P.req_id);
  check_string "op" "health" (P.op_name r.P.op)

let t_parse_integer_id () =
  let r = parse_ok {|{"id":7,"cmd":"stats"}|} in
  check_string "id" "7" (Option.get r.P.req_id)

let t_parse_huge_numbers () =
  (* int_of_float is unspecified past the int range: a 1e30 id must be
     a protocol error, not a garbage echo that breaks correlation *)
  let id, kind = parse_err {|{"id":1e30,"cmd":"health"}|} in
  check_bool "no garbage id echoed" true (id = None);
  check_string "huge id is a protocol error" "protocol" (P.kind_name kind);
  let _, kind = parse_err {|{"cmd":"run","source":"x","step_limit":1e300}|} in
  check_string "huge limit is a protocol error" "protocol" (P.kind_name kind);
  (* boundary: 2^53 is the last float that exactly represents its int *)
  let r = parse_ok {|{"id":9007199254740992,"cmd":"health"}|} in
  check_string "2^53 converts exactly" "9007199254740992"
    (Option.get r.P.req_id);
  let _, kind = parse_err {|{"id":9007199254740994,"cmd":"health"}|} in
  check_string "past 2^53 rejected" "protocol" (P.kind_name kind)

let t_parse_full () =
  let r =
    parse_ok
      {|{"id":"x","cmd":"run","source":"int main(){return 0;}","engine":"tree","deadline_ms":250,"step_limit":100,"conservative":true,"library_classes":["List","String"],"callgraph":"pta"}|}
  in
  check_bool "engine" true (r.P.engine = Runtime.Interp.Tree);
  check_int "deadline" 250 (Option.get r.P.deadline_ms);
  check_int "step limit" 100 (Option.get r.P.step_limit);
  check_bool "conservative" true r.P.conservative;
  check_bool "pta" true (r.P.callgraph = Callgraph.Pta);
  check_int "library classes" 2 (List.length r.P.library_classes)

let t_parse_errors () =
  let cases =
    [
      ("not json", "garbage", P.Parse);
      ("non-object", "[1,2]", P.Protocol);
      ("missing cmd", {|{"id":"a"}|}, P.Protocol);
      ("unknown cmd", {|{"id":"a","cmd":"frobnicate"}|}, P.Protocol);
      ("cmd not string", {|{"cmd":3}|}, P.Protocol);
      ("unknown field", {|{"cmd":"health","nope":1}|}, P.Protocol);
      ("bad type", {|{"cmd":"analyze","source":42}|}, P.Protocol);
      ("missing source", {|{"cmd":"analyze"}|}, P.Protocol);
      ("missing member", {|{"cmd":"explain","source":"x"}|}, P.Protocol);
      ("negative limit", {|{"cmd":"run","source":"x","step_limit":-1}|},
       P.Protocol);
      ("bad callgraph", {|{"cmd":"check","source":"x","callgraph":"psychic"}|},
       P.Protocol);
    ]
  in
  List.iter
    (fun (name, line, want) ->
      let _, kind = parse_err line in
      check_string name (P.kind_name want) (P.kind_name kind))
    cases

let t_parse_error_keeps_id () =
  (* shape errors still recover the id so the client can correlate *)
  let id, _ = parse_err {|{"id":"req-9","cmd":"analyze"}|} in
  check_string "id recovered" "req-9" (Option.get id)

let t_parse_depth_bomb () =
  let bomb =
    {|{"id":"d","cmd":"health","x":|} ^ String.make 500 '[' ^ "1"
    ^ String.make 500 ']' ^ "}"
  in
  let _, kind = parse_err bomb in
  check_string "depth bomb is a parse error" "parse" (P.kind_name kind)

let t_responses_are_json () =
  List.iter
    (fun resp -> ignore (json_of resp))
    [
      P.ok_response ~id:"a" ~op:P.Analyze [ ("n", "1") ];
      P.ok_response ~op:P.Health [];
      P.error_response ~id:{|we"ird\id|} P.Parse "bad \"quotes\" and \\ stuff";
      P.error_response ~extra:[ ("queue_cap", "4") ] P.Overloaded "full";
    ]

(* -- supervisor ------------------------------------------------------------- *)

let t_sup_processes_all () =
  let done_ = Atomic.make 0 in
  let pool =
    Sup.create ~jobs:2 ~queue_cap:64
      ~describe:(fun i -> string_of_int i)
      ~on_poison:(fun _ _ -> ())
      ~process:(fun _ -> Atomic.incr done_)
  in
  for i = 1 to 20 do
    check_bool "accepted" true (Sup.submit pool i = Sup.Accepted)
  done;
  Sup.drain pool;
  check_int "all jobs processed" 20 (Atomic.get done_);
  check_int "no workers left" 0 (Sup.worker_count pool)

let t_sup_overload_and_drain_reject () =
  let pool =
    Sup.create ~jobs:1 ~queue_cap:2
      ~describe:(fun _ -> "job")
      ~on_poison:(fun _ _ -> ())
      ~process:(fun _ -> Thread.delay 0.2)
  in
  let results = List.init 8 (fun i -> Sup.submit pool i) in
  check_bool "some jobs shed" true (List.mem Sup.Overloaded results);
  check_bool "some jobs accepted" true (List.mem Sup.Accepted results);
  Sup.drain pool;
  check_bool "rejects after drain" true (Sup.submit pool 9 = Sup.Draining)

let t_sup_restart_and_quarantine () =
  let processed = Atomic.make 0 in
  let pool =
    Sup.create ~jobs:1 ~queue_cap:8
      ~describe:(fun s -> s)
      ~on_poison:(fun _ _ -> ())
      ~process:(fun s ->
        if s = "poison" then failwith "boom" else Atomic.incr processed)
  in
  check_bool "poison accepted" true (Sup.submit pool "poison" = Sup.Accepted);
  (* the replacement worker must process jobs submitted after the death *)
  let deadline = Unix.gettimeofday () +. 30. in
  while Sup.restarts pool < 1 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  check_int "one restart" 1 (Sup.restarts pool);
  check_bool "ok accepted" true (Sup.submit pool "ok" = Sup.Accepted);
  Sup.drain pool;
  check_int "survivor processed" 1 (Atomic.get processed);
  match Sup.quarantined pool with
  | [ (job, exn) ] ->
      check_string "quarantined job" "poison" job;
      check_bool "exception recorded" true
        (Util.contains_sub ~sub:"boom" exn)
  | q -> Alcotest.failf "expected one quarantined job, got %d" (List.length q)

(* -- dispatcher semantics ---------------------------------------------------- *)

let t_exec_deadline_cancels_loop () =
  let t0 = Unix.gettimeofday () in
  let resp =
    exec
      (Printf.sprintf
         {|{"id":"dl","cmd":"run","source":%s,"deadline_ms":300}|}
         (P.jstr loop_src))
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let ok, kind = shape resp in
  check_bool "not ok" false ok;
  check_string "limit kind" "limit" (Option.get kind);
  check_bool "mentions deadline" true
    (Util.contains_sub ~sub:"deadline" resp);
  check_bool "cancelled promptly" true (elapsed < 10.)

let t_exec_deadline_expired_in_queue () =
  let req =
    parse_ok
      (Printf.sprintf {|{"id":"q","cmd":"run","source":%s,"deadline_ms":100}|}
         (P.jstr loop_src))
  in
  (* enqueued long ago: must be answered without running at all *)
  let t0 = Unix.gettimeofday () in
  let resp = Serve.execute test_cfg req ~enqueued:(t0 -. 5.) in
  let elapsed = Unix.gettimeofday () -. t0 in
  let ok, kind = shape resp in
  check_bool "not ok" false ok;
  check_string "limit kind" "limit" (Option.get kind);
  check_bool "mentions queue" true (Util.contains_sub ~sub:"queue" resp);
  check_bool "never ran" true (elapsed < 1.)

let t_exec_zero_deadline_disables () =
  let resp =
    exec
      {|{"id":"z","cmd":"run","source":"int main() { return 5; }","deadline_ms":0}|}
  in
  let ok, _ = shape resp in
  check_bool "ok" true ok

(* The paper's resource guards surface as structured [limit] errors, and
   the error strings are engine-independent — byte-identical responses
   from the tree walker and the bytecode VM. *)
let t_exec_engine_error_parity () =
  let cases =
    [
      ("step limit", loop_src, {|"step_limit":5000|});
      ( "call depth",
        "int f(int n) { return f(n + 1); }\nint main() { return f(0); }",
        {|"call_depth_limit":64|} );
      ( "heap objects",
        "class A { public: int x; };\n\
         int main() { while (1) { A* a = new A(); } return 0; }",
        {|"heap_object_limit":1000|} );
      ("div by zero", "int main() { int z = 0; return 1 / z; }", {|"profile":false|});
      ( "null deref",
        "class A { public: int x; };\nint main() { A *a = NULL; return a->x; }",
        {|"profile":false|} );
    ]
  in
  List.iter
    (fun (name, src, extra) ->
      (* pin the trace id: a generated one would differ per request and
         break the byte-identical comparison for server metadata *)
      let line engine =
        Printf.sprintf
          {|{"id":"p","cmd":"run","trace_id":"tp","source":%s,"engine":"%s",%s}|}
          (P.jstr src) engine extra
      in
      let tree = exec (line "tree") and bc = exec (line "bytecode") in
      check_string (name ^ ": engines agree") tree bc;
      let ok, kind = shape tree in
      check_bool (name ^ ": is an error") false ok;
      check_bool
        (name ^ ": limit or runtime kind")
        true
        (match Option.get kind with "limit" | "runtime" -> true | _ -> false))
    cases

(* A step limit hit under scopes holding stack objects unwinds through
   destructors that make calls, so a destructor fails while the limit
   error unwinds and the error arrives wrapped in [Fun.Finally_raised].
   It is still the program's resource limit, not a worker crash. *)
let t_exec_limit_through_destructors () =
  let src = Test_bytecode.corpus_source "unwind_step_limit.mcc" in
  let resp =
    exec
      (Printf.sprintf {|{"id":"u","cmd":"run","source":%s,"step_limit":20000}|}
         (P.jstr src))
  in
  let ok, kind = shape resp in
  check_bool "not ok" false ok;
  check_string "limit kind" "limit" (Option.get kind);
  check_bool "names the step limit" true
    (Util.contains_sub ~sub:"resource limit: step limit exceeded" resp)

let t_exec_diagnostics () =
  let broken = "class A { int x; ;;; garbage\nint main( { return }" in
  let resp =
    exec (Printf.sprintf {|{"id":"d","cmd":"analyze","source":%s}|} (P.jstr broken))
  in
  let ok, kind = shape resp in
  check_bool "not ok" false ok;
  check_string "diagnostics kind" "diagnostics" (Option.get kind);
  (* keep_going degrades instead of failing *)
  let resp =
    exec
      (Printf.sprintf {|{"id":"k","cmd":"analyze","keep_going":true,"source":%s}|}
         (P.jstr broken))
  in
  let ok, _ = shape resp in
  check_bool "keep-going ok" true ok;
  (* check treats diagnostics as data *)
  let resp =
    exec (Printf.sprintf {|{"id":"c","cmd":"check","source":%s}|} (P.jstr broken))
  in
  let ok, _ = shape resp in
  check_bool "check ok" true ok;
  check_bool "check reports errors" true
    (match J.member "result" (json_of resp) with
    | Some r -> (
        match J.member "clean" r with Some (J.Bool b) -> not b | _ -> false)
    | None -> false)

let t_exec_explain () =
  let src = "class A { public: int x; int y; };\nint main() { A a; return a.x; }" in
  let resp =
    exec
      (Printf.sprintf {|{"id":"e","cmd":"explain","member":"A::y","source":%s}|}
         (P.jstr src))
  in
  let ok, _ = shape resp in
  check_bool "explain ok" true ok;
  let resp =
    exec
      (Printf.sprintf
         {|{"id":"u","cmd":"explain","member":"Ghost::haunt","source":%s}|}
         (P.jstr src))
  in
  let _, kind = shape resp in
  check_string "unknown member" "unknown_member" (Option.get kind);
  let resp =
    exec
      (Printf.sprintf {|{"id":"b","cmd":"explain","member":"nocolons","source":%s}|}
         (P.jstr src))
  in
  let _, kind = shape resp in
  check_string "bad member form" "protocol" (Option.get kind)

let t_exec_crash_gated () =
  let resp = exec {|{"id":"c","cmd":"crash"}|} in
  let _, kind = shape resp in
  check_string "crash disabled" "unsupported" (Option.get kind);
  let cfg = { test_cfg with Serve.fault_injection = true } in
  check_bool "crash raises under fault injection" true
    (match exec ~cfg {|{"id":"c","cmd":"crash"}|} with
    | exception Serve.Fault_injected -> true
    | _ -> false)

let t_exec_caching () =
  let src = "class C { int a; int b; };\nint main() { C c; return 0; }" in
  let line = Printf.sprintf {|{"id":"m","cmd":"analyze","source":%s}|} (P.jstr src) in
  let cached resp =
    match J.member "result" (json_of resp) with
    | Some r -> (
        match J.member "cached" r with Some (J.Bool b) -> b | _ -> false)
    | None -> false
  in
  ignore (exec line);
  check_bool "second request hits the cache" true (cached (exec line));
  (* the deadmem Config participates in the analysis memo key *)
  let conservative =
    Printf.sprintf
      {|{"id":"m2","cmd":"analyze","conservative":true,"source":%s}|}
      (P.jstr src)
  in
  let ok, _ = shape (exec conservative) in
  check_bool "different config still answers" true ok

(* The front cache's byte budget. A source is charged its length plus a
   fixed floor; flooding past the budget evicts the oldest entries, and
   a source over the whole budget is answered but never cached. *)

module Cache = Server.Cache

(* a well-formed unit of [n] source bytes, distinct per [i] *)
let padded_source i n =
  let head = Printf.sprintf "int main() { return %d; }\n" (i mod 100) in
  let filler = max 0 (n - String.length head - 5) in
  head ^ "/*" ^ String.make filler 'x' ^ "*/\n"

let check_line src =
  Printf.sprintf {|{"id":"b","cmd":"check","trace_id":"tb","source":%s}|}
    (P.jstr src)

let cached resp =
  match J.member "result" (json_of resp) with
  | Some r -> (
      match J.member "cached" r with Some (J.Bool b) -> b | _ -> false)
  | None -> false

let t_cache_byte_budget () =
  Cache.clear ();
  let n = 20_000 in
  let floods = (Cache.budget / Cache.charge (padded_source 0 n)) + 10 in
  for i = 1 to floods do
    let resp = exec (check_line (padded_source i n)) in
    check_bool "flooding source answers" true (fst (shape resp));
    if Cache.bytes () > Cache.budget then
      Alcotest.failf "charged %d bytes, budget %d" (Cache.bytes ())
        Cache.budget
  done;
  check_bool "the flood filled the budget" true
    (Cache.bytes () + Cache.charge (padded_source 0 n) > Cache.budget);
  check_int "entries are what the budget holds"
    (Cache.bytes () / Cache.charge (padded_source 0 n))
    (Cache.entries ());
  let huge = padded_source 7 Cache.budget in
  check_bool "an over-budget source is answered" true
    (fst (shape (exec (check_line huge))));
  check_bool "and not cached on repeat" false (cached (exec (check_line huge)));
  check_bool "the budget still holds" true (Cache.bytes () <= Cache.budget);
  Cache.clear ();
  check_int "clear drops the charge" 0 (Cache.bytes ())

(* a response without its last field, "cached" *)
let without_cached resp = String.sub resp 0 (String.rindex resp ',')

let t_cache_eviction_same_answer () =
  Cache.clear ();
  let port = Benchmarks.Suite.hotwire in
  let line =
    Printf.sprintf
      {|{"id":"p","cmd":"run","profile":true,"trace_id":"tp","source":%s}|}
      (P.jstr port.Benchmarks.Suite.source)
  in
  ignore (exec line);
  let before = exec line in
  check_bool "second run is cached" true (cached before);
  let n = 20_000 in
  for i = 1 to (Cache.budget / Cache.charge (padded_source 0 n)) + 1 do
    ignore (exec (check_line (padded_source i n)))
  done;
  let after = exec line in
  check_bool "the port was evicted" false (cached after);
  check_string "same answer after eviction, but for cached"
    (without_cached before) (without_cached after);
  Cache.clear ()

(* A request's library_classes list is part of its config, so one
   source sent with ever new lists must not grow its entry's memo. *)
let t_cache_analysis_memo_bounded () =
  Cache.clear ();
  let e, _ =
    Cache.get ~file:"memo.mcc"
      "class C { int a; int b; };\nint main() { C c; return c.a; }"
  in
  let config i =
    Deadmem.Config.with_library_classes
      [ Printf.sprintf "Lib%d" i ]
      Deadmem.Config.paper
  in
  let last = ref (Cache.analyze e ~config:(config 0)) in
  for i = 1 to 999 do
    last := Cache.analyze e ~config:(config i)
  done;
  check_int "the memo stays at its cap" Cache.analyses_cap
    (List.length e.Cache.e_analyses);
  check_bool "the latest config answers from the memo" true
    (Cache.analyze e ~config:(config 999) == !last);
  Cache.clear ()

(* -- the full dispatch path (handle_line) ------------------------------------ *)

let t_handle_worker_restart_end_to_end () =
  let h =
    make_harness ~cfg:{ test_cfg with Serve.fault_injection = true } ()
  in
  feed h {|{"id":"boom","cmd":"crash"}|};
  feed h {|{"id":"after","cmd":"run","source":"int main() { return 3; }"}|};
  await h 2;
  stop h;
  let internal, after =
    match responses h with
    | [ a; b ] when resp_id a = Some "boom" -> (a, b)
    | [ a; b ] -> (b, a)
    | r -> Alcotest.failf "expected 2 responses, got %d" (List.length r)
  in
  let _, kind = shape internal in
  check_string "poison answered internal" "internal" (Option.get kind);
  let ok, _ = shape after in
  check_bool "replacement worker served the next request" true ok

let t_handle_overload_sheds () =
  let h = make_harness ~cfg:{ test_cfg with Serve.queue_cap = 1 } () in
  let slow =
    Printf.sprintf {|{"id":"s","cmd":"run","source":%s,"deadline_ms":400}|}
      (P.jstr loop_src)
  in
  for _ = 1 to 6 do
    feed h slow
  done;
  (* health must be answered inline even while the queue is full *)
  feed h {|{"id":"h","cmd":"health"}|};
  let kinds_now =
    List.filter_map (fun r -> snd (shape r)) (responses h)
  in
  check_bool "shed synchronously" true (List.mem "overloaded" kinds_now);
  await h 7;
  stop h;
  check_int "every frame answered" 7 (count h);
  let healths =
    List.filter (fun r -> resp_id r = Some "h") (responses h)
  in
  check_int "health answered" 1 (List.length healths)

let t_handle_drain_finishes_accepted_work () =
  let h = make_harness () in
  for i = 1 to 3 do
    feed h
      (Printf.sprintf
         {|{"id":"w%d","cmd":"run","source":"int main() { return %d; }"}|} i i)
  done;
  stop h;
  check_int "accepted work answered before drain returns" 3 (count h);
  feed h {|{"id":"late","cmd":"run","source":"int main() { return 0; }"}|};
  await h 4;
  let _, kind = shape (List.hd (List.filter
    (fun r -> resp_id r = Some "late") (responses h))) in
  check_string "late request refused" "draining" (Option.get kind)

let t_handle_oversized_frame () =
  let h = make_harness () in
  let big =
    Printf.sprintf {|{"id":"big","cmd":"check","source":%s}|}
      (P.jstr (String.make (2 * test_cfg.Serve.max_request_bytes) 'x'))
  in
  feed h big;
  await h 1;
  stop h;
  let _, kind = shape (List.hd (responses h)) in
  check_string "too large" "too_large" (Option.get kind)

(* The byte-level transport: a newline-free frame streamed past the size
   cap is answered [too_large] exactly once and dropped chunk by chunk
   (not buffered until a newline that may never come); the next newline
   resynchronizes the stream, and a truncated final frame is still
   answered at EOF. *)
let t_read_loop_oversized_stream () =
  let cfg = { test_cfg with Serve.max_request_bytes = 1024 } in
  let t = Serve.create cfg in
  let r, w = Unix.pipe () in
  let mu = Mutex.create () in
  let resps = ref [] in
  let respond s = Mutex.protect mu (fun () -> resps := s :: !resps) in
  let got () = Mutex.protect mu (fun () -> List.rev !resps) in
  let await_n n =
    let deadline = Unix.gettimeofday () +. 30. in
    while List.length (got ()) < n && Unix.gettimeofday () < deadline do
      Thread.delay 0.01
    done;
    if List.length (got ()) < n then
      Alcotest.failf "timed out at %d of %d responses" (List.length (got ())) n
  in
  let reader = Thread.create (fun () -> Serve.read_loop t ~input:r ~respond) () in
  let write_all s =
    let b = Bytes.of_string s in
    let rec go off =
      if off < Bytes.length b then
        go (off + Unix.write w b off (Bytes.length b - off))
    in
    go 0
  in
  (* 64x the cap, no newline anywhere: answered while still in flight *)
  for _ = 1 to 64 do
    write_all (String.make 1024 'x')
  done;
  await_n 1;
  (let _, kind = shape (List.hd (got ())) in
   check_string "too_large" "too_large" (Option.get kind));
  (* the newline ends the discarded frame; the next frame is served *)
  write_all "\n{\"id\":\"after\",\"cmd\":\"health\"}\n";
  await_n 2;
  check_int "oversized frame answered exactly once" 2 (List.length (got ()));
  (let resp = List.nth (got ()) 1 in
   check_bool "next frame ok" true (fst (shape resp));
   check_bool "next frame correlated" true (resp_id resp = Some "after"));
  (* truncated final frame: EOF without newline still gets its answer *)
  write_all {|{"id":"tail","cmd":"health"}|};
  Unix.close w;
  await_n 3;
  Thread.join reader;
  Serve.drain_pool t;
  Unix.close r;
  check_int "exactly three responses" 3 (List.length (got ()));
  check_bool "truncated frame correlated" true
    (resp_id (List.nth (got ()) 2) = Some "tail")

let t_handle_stats_shape () =
  let h = make_harness () in
  feed h {|{"id":"s","cmd":"stats"}|};
  await h 1;
  stop h;
  let v = json_of (List.hd (responses h)) in
  let result = Option.get (J.member "result" v) in
  List.iter
    (fun field ->
      check_bool ("stats has " ^ field) true (J.member field result <> None))
    [
      "status"; "workers"; "queue_depth"; "worker_restarts"; "quarantined";
      "source_cache_entries"; "source_cache_bytes"; "counters"; "gauges";
      "uptime_ms";
    ]

(* A numeric literal without a value used to escape the lexer as a
   [Failure], past [answer_errors], and restart the worker. It is a
   located diagnostic now, and the worker lives on. *)
let t_bad_literal_no_restart () =
  let h = make_harness () in
  let src = "int main() {\n  int x = 99999999999999999999;\n  return 0;\n}" in
  feed h (Printf.sprintf {|{"id":"b","cmd":"analyze","source":%s}|} (P.jstr src));
  await h 1;
  feed h {|{"id":"s","cmd":"stats"}|};
  await h 2;
  stop h;
  match responses h with
  | [ resp; stats ] ->
      let ok, kind = shape resp in
      check_bool "not ok" false ok;
      check_string "diagnostics kind" "diagnostics" (Option.get kind);
      check_bool "located at the literal" true
        (Util.contains_sub
           ~sub:
             {|"line":2,"col":11,"end_line":2,"end_col":31,"message":"integer literal out of range"|}
           resp);
      let result = Option.get (J.member "result" (json_of stats)) in
      check_bool "no worker restart" true
        (J.member "worker_restarts" result = Some (J.Num 0.))
  | rs -> Alcotest.failf "%d responses" (List.length rs)

(* -- observability: tracing, the slow-request log, latency stats ------------- *)

let t_parse_trace_and_format () =
  let r = parse_ok {|{"id":"t","cmd":"health","trace_id":"t1"}|} in
  check_string "trace id parsed" "t1" (Option.get r.P.trace_id);
  let _, kind = parse_err {|{"cmd":"health","trace_id":""}|} in
  check_string "empty trace id rejected" "protocol" (P.kind_name kind);
  let r = parse_ok {|{"cmd":"stats","format":"prometheus"}|} in
  check_bool "prometheus format parsed" true
    (r.P.stats_format = P.Stats_prometheus);
  let _, kind = parse_err {|{"cmd":"health","format":"prometheus"}|} in
  check_string "format is stats-only" "protocol" (P.kind_name kind);
  let _, kind = parse_err {|{"cmd":"stats","format":"xml"}|} in
  check_string "unknown format rejected" "protocol" (P.kind_name kind)

let trace_of resp =
  match J.member "trace_id" (json_of resp) with
  | Some (J.Str t) -> Some t
  | _ -> None

let t_trace_echo () =
  (* a client-supplied trace id is echoed verbatim *)
  let resp =
    exec
      {|{"id":"t","cmd":"run","source":"int main() { return 0; }","trace_id":"t1"}|}
  in
  check_bool "ok" true (fst (shape resp));
  check_string "client trace echoed" "t1" (Option.get (trace_of resp));
  (* errors carry it too — the client correlates failures the same way *)
  let resp = exec {|{"id":"e","cmd":"analyze","source":"garbage((","trace_id":"t2"}|} in
  check_bool "error response" false (fst (shape resp));
  check_string "trace echoed on error" "t2" (Option.get (trace_of resp));
  (* without one, the server generates a trace id and still echoes it *)
  let resp = exec {|{"id":"g","cmd":"run","source":"int main() { return 0; }"}|} in
  let t = Option.get (trace_of resp) in
  check_bool "generated trace nonempty" true (String.length t > 1);
  check_bool "generated trace has the t prefix" true (t.[0] = 't');
  (* control ops echo through the dispatcher *)
  let h = make_harness () in
  feed h {|{"id":"h","cmd":"health","trace_id":"th"}|};
  await h 1;
  stop h;
  check_string "health echoes trace" "th"
    (Option.get (trace_of (List.hd (responses h))))

let t_slow_log_exactly_once () =
  let captured = ref [] in
  let mu = Mutex.create () in
  Serve.set_slow_log_sink (fun l ->
      Mutex.protect mu (fun () -> captured := l :: !captured));
  Fun.protect
    ~finally:(fun () ->
      Serve.set_slow_log_sink (fun l ->
          output_string stderr (l ^ "\n");
          flush stderr))
    (fun () ->
      let h = make_harness ~cfg:{ test_cfg with Serve.slow_ms = 1 } () in
      (* long enough to clear 1ms in any build; bounded so it terminates *)
      feed h
        {|{"id":"slow1","cmd":"run","source":"int main() { int i = 0; while (i < 300000) { i = i + 1; } return 0; }"}|};
      (* control ops never queue, so they are never slow-logged *)
      feed h {|{"id":"fast","cmd":"health"}|};
      await h 2;
      stop h;
      let lines = Mutex.protect mu (fun () -> List.rev !captured) in
      check_int "exactly one slow-log line" 1 (List.length lines);
      let v = json_of (List.hd lines) in
      check_bool "marked slow_request" true
        (J.member "slow_request" v = Some (J.Bool true));
      check_bool "correlated by id" true
        (J.member "id" v = Some (J.Str "slow1"));
      check_bool "carries a trace id" true
        (match J.member "trace_id" v with Some (J.Str _) -> true | _ -> false);
      check_bool "total_ms present" true (J.member "total_ms" v <> None);
      check_bool "queue_ms present" true (J.member "queue_ms" v <> None);
      match J.member "phases" v with
      | Some phases ->
          check_bool "run phase timed" true (J.member "run" phases <> None)
      | None -> Alcotest.fail "slow line without phases")

let t_stats_latency_quantiles () =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled was)
    (fun () ->
      let h = make_harness () in
      feed h {|{"id":"w","cmd":"run","source":"int main() { return 0; }"}|};
      await h 1;
      feed h {|{"id":"s","cmd":"stats"}|};
      await h 2;
      stop h;
      let stats =
        List.hd (List.filter (fun r -> resp_id r = Some "s") (responses h))
      in
      let result = Option.get (J.member "result" (json_of stats)) in
      check_bool "uptime_seconds present" true
        (J.member "uptime_seconds" result <> None);
      check_bool "spans_dropped present" true
        (J.member "spans_dropped" result <> None);
      check_bool "requests_by_error_kind present" true
        (J.member "requests_by_error_kind" result <> None);
      let run_lat =
        match J.member "latency" result with
        | Some lat -> (
            match J.member "run" lat with
            | Some r -> r
            | None -> Alcotest.fail "no latency entry for run")
        | None -> Alcotest.fail "stats without latency"
      in
      let service = Option.get (J.member "service_us" run_lat) in
      let num field =
        match J.member field service with
        | Some (J.Num f) -> f
        | _ -> Alcotest.failf "service_us.%s missing" field
      in
      check_bool "served at least once" true (num "count" >= 1.);
      check_bool "p50 positive" true (num "p50" >= 1.);
      check_bool "p99 >= p50" true (num "p99" >= num "p50");
      check_bool "queue_us measured too" true
        (J.member "queue_us" run_lat <> None))

let t_stats_prometheus () =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled was)
    (fun () ->
      let h = make_harness () in
      feed h {|{"id":"w","cmd":"run","source":"int main() { return 1; }"}|};
      await h 1;
      feed h {|{"id":"p","cmd":"stats","format":"prometheus"}|};
      await h 2;
      stop h;
      let stats =
        List.hd (List.filter (fun r -> resp_id r = Some "p") (responses h))
      in
      let result = Option.get (J.member "result" (json_of stats)) in
      check_bool "format field" true
        (J.member "format" result = Some (J.Str "prometheus"));
      let body =
        match J.member "body" result with
        | Some (J.Str b) -> b
        | _ -> Alcotest.fail "prometheus stats without body"
      in
      (* every non-comment line is `name[{labels}] value` with our prefix *)
      let lines =
        List.filter
          (fun l -> l <> "" && l.[0] <> '#')
          (String.split_on_char '\n' body)
      in
      check_bool "exposition is not empty" true (lines <> []);
      List.iter
        (fun line ->
          match String.rindex_opt line ' ' with
          | None -> Alcotest.failf "unparseable sample: %s" line
          | Some i ->
              let name = String.sub line 0 i in
              let value =
                String.sub line (i + 1) (String.length line - i - 1)
              in
              check_bool
                ("prefixed: " ^ line)
                true
                (String.length name > 8
                && String.sub name 0 8 = "deadmem_");
              check_bool ("numeric: " ^ line) true
                (match float_of_string_opt value with
                | Some _ -> true
                | None -> false))
        lines;
      check_bool "service histogram exported" true
        (Util.contains_sub ~sub:"deadmem_server_service_us_run_bucket" body);
      check_bool "cumulative +Inf bucket present" true
        (Util.contains_sub ~sub:{|_bucket{le="+Inf"}|} body))

(* -- crash corpus ------------------------------------------------------------ *)

(* Resolve build artifacts relative to the test executable so the suite
   works both under `dune runtest` (cwd = test dir) and `dune exec`
   (cwd = invocation dir). *)
let build_path rel =
  Filename.concat (Filename.dirname Sys.executable_name) rel

let corpus_lines file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let is_blank line = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\r') line

let t_corpus file () =
  let lines =
    List.filter
      (fun l -> not (is_blank l))
      (corpus_lines (build_path ("../examples/corpus/serve/" ^ file)))
  in
  Alcotest.(check bool) "corpus is not empty" true (lines <> []);
  let h = make_harness () in
  List.iter (feed h) lines;
  await h (List.length lines);
  stop h;
  check_int "exactly one response per frame" (List.length lines) (count h);
  List.iter (fun r -> ignore (shape r)) (responses h)

(* -- protocol fuzzer --------------------------------------------------------- *)

(* Random frames: byte junk, JSON-ish junk, and mutations of valid
   requests. The property: the dispatcher answers every non-blank frame
   with exactly one parseable JSON response and never raises. One shared
   pool absorbs the whole hostile stream — closer to a long-lived daemon
   than a pool per case, and the stream is deterministic (fixed seed) so
   a failure reproduces. *)
let frame_gen =
  let valid =
    [
      {|{"id":"v1","cmd":"health"}|};
      {|{"id":"v2","cmd":"stats"}|};
      {|{"id":"v3","cmd":"check","source":"int main() { return 0; }"}|};
      {|{"id":"v4","cmd":"analyze","source":"class A { int x; };\nint main() { A a; return 0; }"}|};
      {|{"id":"v5","cmd":"run","source":"int main() { print_int(1); return 0; }","step_limit":100000}|};
      {|{"id":"v6","cmd":"explain","member":"A::x","source":"class A { public: int x; };\nint main() { A a; return a.x; }"}|};
      {|{"id":"v7","cmd":"crash"}|};
    ]
  in
  let mutate (s, seed) =
    let n = String.length s in
    if n = 0 then s
    else
      match seed mod 4 with
      | 0 -> String.sub s 0 (seed mod n) (* truncate *)
      | 1 ->
          (* flip one byte *)
          let b = Bytes.of_string s in
          Bytes.set b (seed mod n) (Char.chr (Char.code s.[seed mod n] lxor 32));
          Bytes.to_string b
      | 2 ->
          String.sub s 0 (seed mod n) ^ "}"
          ^ String.sub s (seed mod n) (n - (seed mod n))
      | _ -> s ^ String.make 1 (Char.chr (seed mod 256))
  in
  let any_byte = Gen.map Char.chr (Gen.int_bound 255) in
  Gen.oneof
    [
      Gen.map mutate (Gen.pair (Gen.oneofl valid) Gen.nat);
      Gen.oneofl valid;
      Gen.string_size ~gen:Gen.printable (Gen.int_bound 80);
      Gen.string_size ~gen:any_byte (Gen.int_bound 40);
    ]

let t_fuzz_every_frame_answered () =
  let rand = Random.State.make [| 0x5eed |] in
  let frames = Gen.generate ~n:150 ~rand frame_gen in
  let h = make_harness () in
  let seen = ref 0 in
  List.iter
    (fun frame ->
      (* shutdown is the one frame allowed to change server state *)
      let frame =
        if Util.contains_sub ~sub:"shutdown" frame then "shutdown-disarmed"
        else frame
      in
      if not (is_blank frame || String.contains frame '\n') then begin
        feed h frame;
        incr seen;
        await h !seen;
        let resp = List.hd (Mutex.protect h.h_mu (fun () -> h.h_responses)) in
        ignore (shape resp)
      end)
    frames;
  stop h;
  check_int "one response per non-blank frame" !seen (count h)

let suite =
  [
    Util.test "protocol: minimal request" t_parse_minimal;
    Util.test "protocol: integer id" t_parse_integer_id;
    Util.test "protocol: huge numbers rejected, not mangled"
      t_parse_huge_numbers;
    Util.test "protocol: full request" t_parse_full;
    Util.test "protocol: rejects bad shapes" t_parse_errors;
    Util.test "protocol: shape errors keep the id" t_parse_error_keeps_id;
    Util.test "protocol: depth bomb is a parse error" t_parse_depth_bomb;
    Util.test "protocol: responses are valid JSON" t_responses_are_json;
    Util.test "supervisor: processes every accepted job" t_sup_processes_all;
    Util.test "supervisor: sheds overload, rejects after drain"
      t_sup_overload_and_drain_reject;
    Util.test "supervisor: restarts and quarantines on poison"
      t_sup_restart_and_quarantine;
    Util.test "execute: deadline cancels a runaway program"
      t_exec_deadline_cancels_loop;
    Util.test "execute: deadline spent in queue never runs"
      t_exec_deadline_expired_in_queue;
    Util.test "execute: deadline 0 disables the budget"
      t_exec_zero_deadline_disables;
    Util.test "execute: limit/runtime errors identical across engines"
      t_exec_engine_error_parity;
    Util.test "execute: a limit unwinding through destructors is a limit"
      t_exec_limit_through_destructors;
    Util.test "execute: diagnostics are structured" t_exec_diagnostics;
    Util.test "execute: explain verdicts and errors" t_exec_explain;
    Util.test "execute: crash op is gated" t_exec_crash_gated;
    Util.test "execute: content-addressed caching" t_exec_caching;
    Util.test "cache: charged bytes stay within the budget"
      t_cache_byte_budget;
    Util.test "cache: a run answers the same after eviction"
      t_cache_eviction_same_answer;
    Util.test "cache: the analysis memo is bounded"
      t_cache_analysis_memo_bounded;
    Util.test "serve: poison request restarts worker, next request served"
      t_handle_worker_restart_end_to_end;
    Util.test "serve: overload sheds with structured errors"
      t_handle_overload_sheds;
    Util.test "serve: drain answers accepted work, refuses late work"
      t_handle_drain_finishes_accepted_work;
    Util.test "serve: oversized frame answered too_large"
      t_handle_oversized_frame;
    Util.test "serve: newline-free oversized stream dropped as it arrives"
      t_read_loop_oversized_stream;
    Util.test "serve: stats response shape" t_handle_stats_shape;
    Util.test "serve: a bad literal is a diagnostic, not a restart"
      t_bad_literal_no_restart;
    Util.test "protocol: trace_id and stats format fields"
      t_parse_trace_and_format;
    Util.test "serve: trace ids echoed (supplied and generated)" t_trace_echo;
    Util.test "serve: slow request logged exactly once"
      t_slow_log_exactly_once;
    Util.test "serve: stats exposes latency quantiles"
      t_stats_latency_quantiles;
    Util.test "serve: prometheus stats exposition" t_stats_prometheus;
    Util.test "serve corpus: malformed frames" (t_corpus "malformed.jsonl");
    Util.test "serve corpus: hostile programs"
      (t_corpus "hostile_programs.jsonl");
    Util.test "serve corpus: oversized frame" (t_corpus "oversized.jsonl");
    Util.test "serve corpus: truncated stream" (t_corpus "truncated.jsonl");
    Util.test "serve fuzz: every random frame answered"
      t_fuzz_every_frame_answered;
  ]
