(* The `deadmem serve` daemon: a supervised, deadline-bounded,
   backpressured analysis service speaking the JSONL protocol of
   {!Protocol} over stdin/stdout or a Unix domain socket.

   Request lifecycle:

     reader thread                worker domain (Supervisor)
     ─────────────                ──────────────────────────
     bounded frame read
     size cap check ──too large──▶ structured error, frame dropped
     Protocol.parse ──malformed──▶ structured error
     health/stats/shutdown ──────▶ answered inline (work even under
                                   overload — that is the point of a
                                   health endpoint)
     submit ──queue full─────────▶ `overloaded` error (load shed)
            ──draining───────────▶ `draining` error
            ──accepted───────────▶ queued
                                    deadline already spent in queue?
                                      ──▶ `limit` error, never run
                                    execute under Value.with_deadline
                                      (checked at interpreter ticks)
                                    expected failures ──▶ structured
                                      diagnostics/runtime/limit errors
                                    anything else escapes ──▶ worker
                                      dies; Supervisor quarantines the
                                      request, answers `internal`, and
                                      restarts the worker

   Every accepted non-blank frame produces exactly one response line;
   nothing the client sends can produce zero, two, or a crash. The
   per-request deadline starts at *enqueue* time, so queue wait counts
   against the budget — under sustained overload requests fail fast
   with `limit`/`overloaded` instead of silently stretching latency.

   Graceful drain (SIGTERM, SIGINT, or a `shutdown` request): intake
   stops, queued and in-flight requests finish and are answered, worker
   domains and reader threads are joined, final stats go to stderr, the
   cache is flushed, and the socket file is removed. *)

module P = Protocol
open P

exception Fault_injected
(** Raised by the [crash] op when fault injection is enabled: takes the
    expected escape path through the supervisor. *)

type config = {
  jobs : int;  (** worker domains, at least 1 *)
  queue_cap : int;  (** bounded queue, at least 1: beyond this, shed load *)
  default_deadline_ms : int;  (** per-request budget; 0 disables *)
  max_request_bytes : int;  (** frame size cap *)
  max_json_depth : int;  (** JSON nesting cap (depth bombs) *)
  fault_injection : bool;  (** enable the [crash] op *)
  step_limit : int;
  call_depth_limit : int;
  heap_object_limit : int;
  slow_ms : int;  (** log requests slower than this; 0 disables *)
}

let default_config =
  {
    jobs = 2;
    queue_cap = 64;
    default_deadline_ms = 10_000;
    max_request_bytes = 4 * 1024 * 1024;
    max_json_depth = 64;
    fault_injection = false;
    step_limit = Runtime.Interp.default_step_limit;
    call_depth_limit = Runtime.Interp.default_call_depth_limit;
    heap_object_limit = Runtime.Interp.default_heap_object_limit;
    slow_ms = 0;
  }

(* -- telemetry --------------------------------------------------------------- *)

let all_ops =
  [ Analyze; Check; Run; Explain; Precision; Health; Stats; Shutdown; Crash ]

let work_ops = [ Analyze; Check; Run; Explain; Precision; Crash ]

let request_counters =
  List.map
    (fun op -> (op, Telemetry.Counter.make ("server.requests." ^ op_name op)))
    all_ops

let count_request op =
  match List.assq_opt op request_counters with
  | Some c -> Telemetry.Counter.incr c
  | None -> ()

let ok_responses = Telemetry.Counter.make "server.responses.ok"
let error_responses = Telemetry.Counter.make "server.responses.error"
let frames_oversized = Telemetry.Counter.make "server.frames.oversized"
let queue_gauge = Telemetry.Gauge.make "server.queue_depth"
let uptime_gauge = Telemetry.Gauge.make "server.uptime_seconds"

(* Per-op request-latency histograms (microseconds): time spent waiting
   in the bounded queue, and time spent being served. Observed once per
   work request at the worker; control ops are answered inline and never
   queue, so they are not measured. *)
let queue_hists =
  List.map
    (fun op -> (op, Telemetry.Histogram.make ("server.queue_us." ^ op_name op)))
    work_ops

let service_hists =
  List.map
    (fun op ->
      (op, Telemetry.Histogram.make ("server.service_us." ^ op_name op)))
    work_ops

let observe_hist hists op v =
  match List.assq_opt op hists with
  | Some h -> Telemetry.Histogram.observe h v
  | None -> ()

(* One counter per structured-error kind, bumped at the [reply] choke
   point so every path that can answer a client — parse errors, load
   shedding, worker poisonings, expected failures — is counted. *)
let error_kind_counters =
  List.map
    (fun k -> (kind_name k, Telemetry.Counter.make ("server.errors." ^ kind_name k)))
    [
      Parse; Protocol; Too_large; Overloaded; Draining; Diagnostics; Runtime;
      Limit; Unknown_member; Unsupported; Internal;
    ]

(* -- per-request tracing ----------------------------------------------------- *)

let trace_counter = Atomic.make 0

let gen_trace () =
  Printf.sprintf "t%d-%d" (Unix.getpid ())
    (Atomic.fetch_and_add trace_counter 1)

(* Phase timings of one request (reverse order, milliseconds), for the
   slow-request log. Span tagging rides along when telemetry is on; the
   phase list itself is recorded unconditionally — a slow request must
   be explainable even when nobody enabled metrics. *)
type timing = {
  tr_trace : string option;
  mutable tr_phases : (string * float) list;
}

let phase tr name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      tr.tr_phases <-
        (name, (Unix.gettimeofday () -. t0) *. 1000.) :: tr.tr_phases)
    (fun () -> Telemetry.Span.with_ ?trace:tr.tr_trace ("serve." ^ name) f)

(* The slow-request sink: one JSONL line per offending request. Tests
   substitute a capturing sink; the default writes stderr under a mutex
   (worker domains log concurrently). *)
let slow_log_sink : (string -> unit) ref =
  let mu = Mutex.create () in
  ref (fun line ->
      Mutex.protect mu (fun () ->
          output_string stderr (line ^ "\n");
          flush stderr))

let set_slow_log_sink f = slow_log_sink := f

(* -- request execution ------------------------------------------------------- *)

let request_file = "<request>"

let request_config (req : request) =
  Deadmem.Config.make ~conservative:req.conservative
    ~library_classes:req.library_classes req.callgraph

let jint = string_of_int
let jbool = string_of_bool
let jfloat f = Printf.sprintf "%.4f" f
let alg_name alg = String.lowercase_ascii (Callgraph.algorithm_to_string alg)

let diagnostics_json (e : Cache.entry) =
  jarr (List.map Frontend.Source.diagnostic_to_json e.e_diags)

let snapshot_json (s : Runtime.Profile.snapshot) =
  jobj
    [
      ("object_space", jint s.object_space);
      ("dead_space", jint s.dead_space);
      ("high_water_mark", jint s.high_water_mark);
      ("high_water_mark_reduced", jint s.high_water_mark_reduced);
      ("num_objects", jint s.num_objects);
      ("scalar_bytes", jint s.scalar_bytes);
      ("leaked_objects", jint s.leaked_objects);
      ("dead_space_pct", jfloat (Runtime.Profile.dead_space_pct s));
      ("hwm_reduction_pct", jfloat (Runtime.Profile.hwm_reduction_pct s));
    ]

let members_json ms = jarr (List.map (fun m -> jstr (Sema.Member.to_string m)) ms)

(* Fetch the (cached) front half of the pipeline and fail with a
   structured [diagnostics] error when the unit has compile errors and
   the request did not opt into conservative degradation. *)
let checked_entry tr (req : request) source =
  let e, hit = phase tr "parse" (fun () -> Cache.get ~file:request_file source) in
  if e.e_errors > 0 && not req.keep_going then
    Error
      (error_response ?id:req.req_id ?trace:req.trace_id
         ~extra:
           [
             ("errors", jint e.e_errors);
             ("diagnostics", diagnostics_json e);
           ]
         Diagnostics
         (Printf.sprintf "source has %d compile error(s)" e.e_errors))
  else Ok (e, hit)

let do_analyze tr (req : request) source =
  match checked_entry tr req source with
  | Error resp -> resp
  | Ok (e, cached) ->
      let config = request_config req in
      let result = phase tr "analyze" (fun () -> Cache.analyze e ~config) in
      let report = Deadmem.Report.of_result e.e_prog result in
      ok_response ?id:req.req_id ?trace:req.trace_id ~op:Analyze
        [
          ("callgraph", jstr (alg_name req.callgraph));
          ("dead_members", members_json (Deadmem.Liveness.dead_members result));
          ("num_classes", jint report.Deadmem.Report.num_classes);
          ("num_used_classes", jint report.Deadmem.Report.num_used_classes);
          ("members_in_used", jint report.Deadmem.Report.members_in_used);
          ("dead_in_used", jint report.Deadmem.Report.dead_in_used);
          ("dead_pct", jfloat report.Deadmem.Report.dead_pct);
          ("errors", jint e.e_errors);
          ("unknown_regions", jint (List.length e.e_unknown));
          ("diagnostics", diagnostics_json e);
          ("cached", jbool cached);
        ]

(* [check] mirrors `deadmem check --format json`: diagnostics are data,
   not an error — only transport/pipeline failures are errors. *)
let do_check tr (req : request) source =
  let e, cached =
    phase tr "parse" (fun () -> Cache.get ~file:request_file source)
  in
  let dead_count =
    if e.e_errors > 0 then None
    else
      let config = Deadmem.Config.make req.callgraph in
      Some
        (phase tr "analyze" (fun () ->
             List.length
               (Deadmem.Liveness.dead_members (Cache.analyze e ~config))))
  in
  ok_response ?id:req.req_id ?trace:req.trace_id ~op:Check
    [
      ("clean", jbool (e.e_errors = 0));
      ("errors", jint e.e_errors);
      ("suppressed", jint e.e_suppressed);
      ("unknown_regions", jint (List.length e.e_unknown));
      ("callgraph", jstr (alg_name req.callgraph));
      ( "dead_members",
        match dead_count with Some n -> jint n | None -> "null" );
      ("diagnostics", diagnostics_json e);
      ("cached", jbool cached);
    ]

let do_run cfg tr (req : request) source =
  match checked_entry tr req source with
  | Error resp -> resp
  | Ok (e, cached) ->
      let dead =
        if req.profile then
          phase tr "analyze" (fun () ->
              Deadmem.Liveness.dead_set
                (Cache.analyze e ~config:(request_config req)))
        else Sema.Member.Set.empty
      in
      let pick v d = Option.value v ~default:d in
      let outcome =
        phase tr "run" (fun () ->
            Runtime.Interp.run ~engine:req.engine ~dead
              ~step_limit:(pick req.step_limit cfg.step_limit)
              ~call_depth_limit:(pick req.call_depth_limit cfg.call_depth_limit)
              ~heap_object_limit:
                (pick req.heap_object_limit cfg.heap_object_limit)
              ~lowered:(Cache.lowered e) e.e_prog)
      in
      ok_response ?id:req.req_id ?trace:req.trace_id ~op:Run
        [
          ("return_value", jint outcome.Runtime.Interp.return_value);
          ("steps", jint outcome.Runtime.Interp.steps);
          ("output", jstr outcome.Runtime.Interp.output);
          ("profiled", jbool req.profile);
          ("snapshot", snapshot_json outcome.Runtime.Interp.snapshot);
          ("cached", jbool cached);
        ]

let do_explain tr (req : request) source member_str =
  match P.parse_member member_str with
  | Error why ->
      error_response ?id:req.req_id ?trace:req.trace_id Protocol
        ("'member' " ^ why)
  | Ok m -> (
      match checked_entry tr req source with
      | Error resp -> resp
      | Ok (e, cached) ->
          let result =
            phase tr "analyze" (fun () ->
                Cache.analyze e ~config:(request_config req))
          in
          if not (Deadmem.Liveness.known_member result m) then
            error_response ?id:req.req_id ?trace:req.trace_id Unknown_member
              (Printf.sprintf
                 "'%s' is not an instance data member the analysis classifies"
                 (Sema.Member.to_string m))
          else
            ok_response ?id:req.req_id ?trace:req.trace_id ~op:Explain
              [
                ("member", jstr (Sema.Member.to_string m));
                ("dead", jbool (Deadmem.Liveness.is_dead result m));
                ("explanation", jstr (Deadmem.Liveness.explain result m));
                ("cached", jbool cached);
              ])

(* [precision] answers exactly what `deadmem precision --format=json`
   prints, as its [benchmarks] array. *)
let do_precision tr (req : request) =
  let row (b : Benchmarks.Suite.t) =
    Deadmem.Precision.row_json b.name
      (Deadmem.Precision.measure (Benchmarks.Suite.program b))
  in
  let rows =
    phase tr "analyze" (fun () -> List.map row Benchmarks.Suite.all)
  in
  ok_response ?id:req.req_id ?trace:req.trace_id ~op:Precision
    [ ("benchmarks", jarr rows) ]

(* Execute one work request synchronously. Expected failure modes map to
   structured errors; anything else escapes deliberately — under the
   supervisor that is a worker restart plus an [internal] response, in a
   synchronous test harness it is a visible bug. [enqueued] anchors the
   deadline: time spent queued counts against the budget.

   Every work request carries a trace id from here on — the client's if
   it sent one, a generated [tPID-N] otherwise — echoed in the response
   and tagged on every phase span, so one request's spans can be pulled
   out of the journal of a busy multi-domain server. Returns the
   response plus the normalized request and its phase timings (for the
   slow-request log). *)
let execute_timed cfg (req : request) ~enqueued =
  let req =
    if req.trace_id = None then { req with trace_id = Some (gen_trace ()) }
    else req
  in
  let tr = { tr_trace = req.trace_id; tr_phases = [] } in
  let id = req.req_id in
  let trace = req.trace_id in
  let deadline_ms =
    match req.deadline_ms with Some ms -> ms | None -> cfg.default_deadline_ms
  in
  let deadline =
    if deadline_ms <= 0 then infinity
    else enqueued +. (float_of_int deadline_ms /. 1000.)
  in
  let resp =
    if Unix.gettimeofday () > deadline then
      error_response ?id ?trace Limit
        (Printf.sprintf
           "deadline exceeded: request spent its %dms budget waiting in the \
            queue"
           deadline_ms)
    else
      let source () = Option.value req.source ~default:"" in
      let answer_errors f =
        try f ()
        with e -> (
          match P.failure_of_exn e with
          | Some (kind, msg, extra) -> error_response ?id ?trace ~extra kind msg
          | None -> raise (P.root_exn e))
      in
      answer_errors @@ fun () ->
      Runtime.Value.with_deadline deadline @@ fun () ->
      match req.op with
      | Analyze -> do_analyze tr req (source ())
      | Check -> do_check tr req (source ())
      | Run -> do_run cfg tr req (source ())
      | Explain ->
          do_explain tr req (source ()) (Option.value req.member ~default:"")
      | Precision -> do_precision tr req
      | Crash ->
          if cfg.fault_injection then raise Fault_injected
          else
            error_response ?id ?trace Unsupported
              "fault injection is disabled (start the server with \
               --fault-injection to enable the crash op)"
      | Health | Stats | Shutdown ->
          (* unreachable through [handle_line]; kept total for direct
             callers (tests) *)
          error_response ?id ?trace Unsupported
            (Printf.sprintf "'%s' is a control op answered by the server loop"
               (op_name req.op))
  in
  (resp, req, tr)

let execute cfg (req : request) ~enqueued =
  let resp, _, _ = execute_timed cfg req ~enqueued in
  resp

(* -- the server -------------------------------------------------------------- *)

type job = {
  j_line : string;  (** raw frame, for the quarantine log *)
  j_req : request;
  j_enqueued : float;
  j_respond : string -> unit;
}

type t = {
  cfg : config;
  started : float;
  stop : bool Atomic.t;  (** set by SIGTERM/SIGINT/shutdown: drain *)
  pool : job Supervisor.t;
}

(* Count a response as ok/error by its "ok":true/false tag, and an
   error by its kind tag (responses are built by exactly two
   constructors, so sniffing is reliable: inside a JSON string every
   '"' is escaped, so the raw tags below cannot occur in payloads). *)
let find_sub s tag =
  let n = String.length tag in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = tag then Some (i + n)
    else go (i + 1)
  in
  go 0

let reply respond resp =
  (match find_sub resp {|"ok":false|} with
  | None -> Telemetry.Counter.incr ok_responses
  | Some _ -> (
      Telemetry.Counter.incr error_responses;
      match find_sub resp {|"error":{"kind":"|} with
      | None -> ()
      | Some j -> (
          match String.index_from_opt resp j '"' with
          | None -> ()
          | Some k -> (
              match List.assoc_opt (String.sub resp j (k - j)) error_kind_counters with
              | Some c -> Telemetry.Counter.incr c
              | None -> ()))));
  respond resp

(* One structured line per request that blew the [slow_ms] budget:
   end-to-end latency with its queue/phase breakdown, correlated by id
   and trace id. JSONL on stderr by default so it survives where the
   span journal's cap would have evicted it. *)
let slow_line (req : request) tr ~queue_ms ~total_ms =
  jobj
    ([ ("slow_request", jbool true); ("cmd", jstr (op_name req.op)) ]
    @ (match req.req_id with Some i -> [ ("id", jstr i) ] | None -> [])
    @ (match tr.tr_trace with Some t -> [ ("trace_id", jstr t) ] | None -> [])
    @ [
        ("total_ms", jfloat total_ms);
        ("queue_ms", jfloat queue_ms);
        ( "phases",
          jobj (List.rev_map (fun (n, ms) -> (n, jfloat ms)) tr.tr_phases) );
      ])

let create cfg =
  let process j =
    let started = Unix.gettimeofday () in
    let queue_s = started -. j.j_enqueued in
    observe_hist queue_hists j.j_req.op (int_of_float (queue_s *. 1e6));
    let resp, req, tr = execute_timed cfg j.j_req ~enqueued:j.j_enqueued in
    let finished = Unix.gettimeofday () in
    observe_hist service_hists req.op
      (int_of_float ((finished -. started) *. 1e6));
    (if cfg.slow_ms > 0 then
       let total_ms = (finished -. j.j_enqueued) *. 1000. in
       if total_ms >= float_of_int cfg.slow_ms then
         !slow_log_sink
           (slow_line req tr ~queue_ms:(queue_s *. 1000.) ~total_ms));
    reply j.j_respond resp
  in
  let on_poison j e =
    reply j.j_respond
      (error_response ?id:j.j_req.req_id ?trace:j.j_req.trace_id
         ~extra:[ ("exception", jstr (Printexc.to_string e)) ]
         Internal
         "internal error: request quarantined, worker restarted")
  in
  {
    cfg;
    started = Unix.gettimeofday ();
    stop = Atomic.make false;
    pool =
      Supervisor.create ~jobs:cfg.jobs ~queue_cap:cfg.queue_cap
        ~describe:(fun j -> j.j_line)
        ~on_poison ~process;
  }

let uptime_ms t = int_of_float ((Unix.gettimeofday () -. t.started) *. 1000.)

let health_fields t =
  [
    ("status", jstr (if Atomic.get t.stop then "draining" else "ok"));
    ("pid", jint (Unix.getpid ()));
    ("uptime_ms", jint (uptime_ms t));
    ("workers", jint (Supervisor.worker_count t.pool));
    ("queue_depth", jint (Supervisor.queue_depth t.pool));
  ]

let stats_fields t =
  let quarantined =
    jarr
      (List.map
         (fun (frame, exn) ->
           jobj [ ("request", jstr frame); ("exception", jstr exn) ])
         (Supervisor.quarantined t.pool))
  in
  (* per-op queue-wait and service-time quantiles, for ops that have
     actually served something *)
  let latency =
    jobj
      (List.filter_map
         (fun op ->
           let snap hists =
             match List.assq_opt op hists with
             | Some h -> Telemetry.Histogram.snapshot h
             | None -> Telemetry.Histogram.empty_snap (op_name op)
           in
           let q = snap queue_hists and s = snap service_hists in
           if q.Telemetry.Histogram.h_count = 0 && s.Telemetry.Histogram.h_count = 0
           then None
           else
             Some
               ( op_name op,
                 jobj
                   [
                     ("queue_us", Telemetry.histogram_json q);
                     ("service_us", Telemetry.histogram_json s);
                   ] ))
         work_ops)
  in
  let by_error_kind =
    jobj
      (List.filter_map
         (fun (name, c) ->
           let v = Telemetry.Counter.value c in
           if v > 0 then Some (name, jint v) else None)
         error_kind_counters)
  in
  health_fields t
  @ [
      ("uptime_seconds", jint (uptime_ms t / 1000));
      ("worker_restarts", jint (Supervisor.restarts t.pool));
      ("quarantined", quarantined);
      ("source_cache_entries", jint (Cache.entries ()));
      ("source_cache_bytes", jint (Cache.bytes ()));
      ("requests_by_error_kind", by_error_kind);
      ("latency", latency);
      ("spans_dropped", jint (Telemetry.spans_dropped ()));
      ( "counters",
        jobj (List.map (fun (n, v) -> (n, jint v)) (Telemetry.counters ())) );
      ( "gauges",
        jobj (List.map (fun (n, v) -> (n, jint v)) (Telemetry.gauges ())) );
    ]

let stats_json t = jobj (stats_fields t)

(* The Prometheus rendering of the same snapshot: refresh the derived
   gauges, then let the telemetry registry expose everything — request
   counters, error-kind counters, queue/connection gauges and the
   latency histograms all live there already. *)
let prometheus_stats t =
  Telemetry.Gauge.set uptime_gauge (uptime_ms t / 1000);
  Telemetry.Gauge.set queue_gauge (Supervisor.queue_depth t.pool);
  Telemetry.prometheus_text ()

(* Dispatch one frame. Control ops are answered inline on the calling
   (reader) thread so they keep working when the queue is full — a
   health probe that itself queues is useless under exactly the load it
   exists to diagnose. Every non-blank frame gets exactly one response. *)
let handle_line t ~respond line =
  Telemetry.Gauge.set queue_gauge (Supervisor.queue_depth t.pool);
  if String.length line > t.cfg.max_request_bytes then begin
    Telemetry.Counter.incr frames_oversized;
    reply respond
      (error_response
         ~extra:[ ("max_request_bytes", jint t.cfg.max_request_bytes) ]
         Too_large
         (Printf.sprintf "request frame of %d bytes exceeds the %d byte cap"
            (String.length line) t.cfg.max_request_bytes))
  end
  else
    match P.parse_request ~max_depth:t.cfg.max_json_depth line with
    | Error (id, kind, msg) -> reply respond (error_response ?id kind msg)
    | Ok req -> (
        count_request req.op;
        match req.op with
        | Health ->
            reply respond
              (ok_response ?id:req.req_id ?trace:req.trace_id ~op:Health
                 (health_fields t))
        | Stats ->
            let fields =
              match req.stats_format with
              | P.Stats_json -> stats_fields t
              | P.Stats_prometheus ->
                  [
                    ("format", jstr "prometheus");
                    ("body", jstr (prometheus_stats t));
                  ]
            in
            reply respond
              (ok_response ?id:req.req_id ?trace:req.trace_id ~op:Stats fields)
        | Shutdown ->
            reply respond
              (ok_response ?id:req.req_id ?trace:req.trace_id ~op:Shutdown
                 [ ("draining", jbool true) ]);
            Atomic.set t.stop true
        | Analyze | Check | Run | Explain | Precision | Crash -> (
            let job =
              {
                j_line = line;
                j_req = req;
                j_enqueued = Unix.gettimeofday ();
                j_respond = respond;
              }
            in
            match Supervisor.submit t.pool job with
            | Supervisor.Accepted -> ()
            | Supervisor.Overloaded ->
                reply respond
                  (error_response ?id:req.req_id ?trace:req.trace_id
                     ~extra:[ ("queue_cap", jint t.cfg.queue_cap) ]
                     Overloaded
                     "work queue is full: load shed, retry later")
            | Supervisor.Draining ->
                reply respond
                  (error_response ?id:req.req_id ?trace:req.trace_id Draining
                     "server is draining: no new work accepted")))

let is_blank line = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\r') line

(* -- transports -------------------------------------------------------------- *)

(* Write one response line. Serialized per destination (worker domains
   and the reader thread share the fd); EPIPE and friends are swallowed
   — a client that hung up forfeits its responses, nothing else. *)
let writer fd =
  let mu = Mutex.create () in
  fun line ->
    let b = Bytes.of_string (line ^ "\n") in
    let rec wr off len =
      if len > 0 then
        match Unix.write fd b off len with
        | n -> wr (off + n) (len - n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wr off len
    in
    Mutex.protect mu (fun () ->
        try wr 0 (Bytes.length b) with Unix.Unix_error _ | Sys_error _ -> ())

(* Bounded frame reader: polls [input] with a short select timeout so
   the stop flag (signal- or shutdown-driven) is honored promptly; a
   frame that outgrows the size cap is answered [too_large] once and its
   bytes are dropped as they stream in — with or without a terminating
   newline — so one hostile frame cannot hold memory or desynchronize
   the stream. A truncated final frame (EOF without newline) is still
   processed. [on_frame] fires once per frame that will produce a
   response, before that response can be written; the socket transport
   uses it to count a connection's outstanding replies. *)
let read_loop ?(on_frame = fun () -> ()) t ~input ~respond =
  (* Live bytes are data.[start .. start+len); [scanned] bytes at the
     head of the live region are known newline-free, so each byte is
     examined once however the frame is chunked — no per-chunk
     re-materialization of the whole buffer. *)
  let data = ref (Bytes.create 8192) in
  let start = ref 0 in
  let len = ref 0 in
  let scanned = ref 0 in
  let chunk = Bytes.create 8192 in
  let discarding = ref false in
  let eof = ref false in
  let drop_live () =
    start := 0;
    len := 0;
    scanned := 0;
    (* an oversized frame may have grown the storage up to the cap;
       don't keep holding it per idle connection *)
    if Bytes.length !data > 65536 then data := Bytes.create 8192
  in
  let add n =
    let cap = Bytes.length !data in
    if !start + !len + n > cap then begin
      (* compact; grow only when the live bytes themselves outgrow the
         storage *)
      let need = !len + n in
      let d = if need > cap then Bytes.create (max need (2 * cap)) else !data in
      Bytes.blit !data !start d 0 !len;
      data := d;
      start := 0
    end;
    Bytes.blit chunk 0 !data (!start + !len) n;
    len := !len + n
  in
  (* consume through the newline at absolute index [i] *)
  let take i =
    let line = Bytes.sub_string !data !start (i - !start) in
    let consumed = i - !start + 1 in
    start := !start + consumed;
    len := !len - consumed;
    scanned := 0;
    if !len = 0 then drop_live ();
    line
  in
  let feed line =
    if !discarding then discarding := false
    else if not (is_blank line) then begin
      on_frame ();
      handle_line t ~respond line
    end
  in
  let find_newline () =
    let b = !data in
    let limit = !start + !len in
    let rec go i =
      if i >= limit then None
      else if Bytes.get b i = '\n' then Some i
      else go (i + 1)
    in
    let r = go (!start + !scanned) in
    if r = None then scanned := !len;
    r
  in
  let drain_frames () =
    let rec go () =
      match find_newline () with
      | Some i ->
          feed (take i);
          go ()
      | None ->
          if !discarding then
            (* mid-discard bytes are dropped as they arrive, not
               accumulated until the newline shows up *)
            drop_live ()
          else if !len > t.cfg.max_request_bytes then begin
            (* oversized frame still in flight: answer once, then skip
               to its newline *)
            Telemetry.Counter.incr frames_oversized;
            on_frame ();
            reply respond
              (error_response
                 ~extra:[ ("max_request_bytes", jint t.cfg.max_request_bytes) ]
                 Too_large "request frame exceeds the size cap");
            drop_live ();
            discarding := true
          end
    in
    go ()
  in
  while (not !eof) && not (Atomic.get t.stop) do
    match Unix.select [ input ] [] [] 0.15 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.read input chunk 0 (Bytes.length chunk) with
        | 0 ->
            eof := true;
            if !len > 0 && not !discarding then
              feed (Bytes.sub_string !data !start !len)
        | n ->
            add n;
            drain_frames ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.ECONNRESET), _, _) ->
        eof := true
  done

(* stdio transport: one reader on the calling thread. *)
let serve_stdio t =
  read_loop t ~input:Unix.stdin ~respond:(writer Unix.stdout)

let drain_pool t =
  Atomic.set t.stop true;
  Supervisor.drain t.pool

(* Unix-socket transport: accept loop on the calling thread, one reader
   thread per connection. A connection is reaped — thread joined, fd
   closed — once its reader has returned AND every frame it accepted has
   been answered, so a long-lived daemon serving many short connections
   does not accumulate fds until accept(2) dies of EMFILE. Connections
   still live at shutdown are closed by the returned cleanup closure,
   which must run AFTER the pool has drained — their in-flight
   responses must be written first. *)
type conn = {
  c_thread : Thread.t;
  c_fd : Unix.file_descr;
  c_pending : int Atomic.t;  (** accepted frames not yet answered *)
  c_done : bool Atomic.t;  (** reader thread has returned *)
}

let connections_gauge = Telemetry.Gauge.make "server.connections"

let serve_socket t ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conns = ref [] in
  let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let reap () =
    let dead, live =
      List.partition
        (fun c -> Atomic.get c.c_done && Atomic.get c.c_pending = 0)
        !conns
    in
    conns := live;
    Telemetry.Gauge.set connections_gauge (List.length live);
    List.iter
      (fun c ->
        Thread.join c.c_thread;
        close_fd c.c_fd)
      dead
  in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  while not (Atomic.get t.stop) do
    (match Unix.select [ sock ] [] [] 0.15 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept sock with
        | fd, _ ->
            let pending = Atomic.make 0 in
            let done_ = Atomic.make false in
            let write = writer fd in
            (* write first, decrement after: the reaper cannot close
               the fd under an in-flight response *)
            let respond line =
              write line;
              Atomic.decr pending
            in
            let c_thread =
              Thread.create
                (fun () ->
                  Fun.protect
                    ~finally:(fun () -> Atomic.set done_ true)
                    (fun () ->
                      read_loop t ~input:fd ~respond
                        ~on_frame:(fun () -> Atomic.incr pending)))
                ()
            in
            conns :=
              { c_thread; c_fd = fd; c_pending = pending; c_done = done_ }
              :: !conns
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) ->
            (* client hung up between connect and accept: not our loss *)
            ()
        | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
            (* fd exhaustion: shed this accept and back off instead of
               dying; the reap below frees descriptors and waiting
               clients sit in the listen backlog *)
            Thread.delay 0.05)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    reap ()
  done;
  Atomic.set t.stop true;
  List.iter (fun c -> Thread.join c.c_thread) !conns;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  fun () ->
    List.iter (fun c -> close_fd c.c_fd) !conns;
    try Unix.unlink path with Unix.Unix_error _ -> ()

(* -- entry point ------------------------------------------------------------- *)

(* Run the daemon until EOF, SIGTERM/SIGINT, or a shutdown request; then
   drain gracefully. Returns the exit code. *)
let run ?socket cfg =
  Telemetry.set_enabled true;
  (* a long-lived process must bound its span journal *)
  Telemetry.set_span_cap (Some 4096);
  (* a client hanging up must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let t = create cfg in
  let request_stop _ = Atomic.set t.stop true in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle request_stop)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ];
  let cleanup =
    match socket with
    | None ->
        serve_stdio t;
        fun () -> ()
    | Some path -> serve_socket t ~path
  in
  Atomic.set t.stop true;
  (* in-flight and queued requests finish and are answered… *)
  Supervisor.drain t.pool;
  (* …before their connections are torn down *)
  cleanup ();
  (* final stats on stderr: the smoke test asserts this parses *)
  prerr_endline (stats_json t);
  flush stderr;
  Cache.clear ();
  0
