(** The [deadmem serve] daemon: a supervised, deadline-bounded,
    backpressured analysis service speaking {!Protocol}'s JSONL over
    stdin/stdout or a Unix domain socket.

    Robustness contract: every non-blank request frame produces exactly
    one response line — an [ok] result or a structured error — no
    client input can crash the daemon, produce no answer, or produce
    two. Work requests run on supervised worker domains under a
    per-request wall-clock deadline (measured from enqueue, enforced at
    the interpreter's tick points); a request that kills its worker is
    quarantined and answered with an [internal] error while the worker
    is restarted. *)

exception Fault_injected
(** Raised by the [crash] op when fault injection is enabled. *)

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
  slow_ms : int;
      (** emit one structured JSONL line (stderr by default) for every
          request whose end-to-end latency — queue wait included —
          reaches this many milliseconds; [0] (the default) disables *)
}

val default_config : config

(** Replace the slow-request log sink (default: stderr, one JSONL line
    per slow request, serialized under a mutex). Tests capture lines
    with this. *)
val set_slow_log_sink : (string -> unit) -> unit

(** [execute cfg req ~enqueued] runs one work request synchronously and
    returns its response line. Expected failures (diagnostics, runtime
    errors, limits, expired deadlines) map to structured errors;
    internal faults escape as exceptions — the supervisor turns those
    into quarantine + restart, a test harness sees them directly.

    A work request without a client-supplied [trace_id] is assigned a
    generated one; either way the id is echoed as the response's
    top-level ["trace_id"] and tagged on the request's phase spans
    ([serve.parse], [serve.analyze], [serve.run]) in the span
    journal. *)
val execute : config -> Protocol.request -> enqueued:float -> string

type t

(** Spawn the worker pool (does not read any transport yet). *)
val create : config -> t

(** Dispatch one frame: control ops ([health]/[stats]/[shutdown]) are
    answered inline via [respond] on the calling thread; work ops are
    queued (or shed with [overloaded]/[draining]) and answered from a
    worker. [respond] must be thread-safe. *)
val handle_line : t -> respond:(string -> unit) -> string -> unit

(** The live stats object (also what [stats] requests answer with). *)
val stats_json : t -> string

(** Read JSONL frames from [input] and dispatch them until EOF or stop.
    Frames are size-capped: an oversized frame is answered [too_large]
    once and its bytes are dropped as they stream in, even when the
    terminating newline never arrives, so a hostile frame cannot hold
    memory. [on_frame] (default: no-op) fires once per frame that will
    produce a response, before that response can be written — the
    socket transport uses it to count a connection's outstanding
    replies. Used by both transports and by tests over pipes. *)
val read_loop :
  ?on_frame:(unit -> unit) ->
  t ->
  input:Unix.file_descr ->
  respond:(string -> unit) ->
  unit

(** Serve stdin/stdout until EOF or stop; used by tests over pipes. *)
val serve_stdio : t -> unit

(** Finish accepted work and join every worker domain; intake stops. *)
val drain_pool : t -> unit

(** Run the daemon until EOF, SIGTERM/SIGINT or a [shutdown] request,
    then drain gracefully (in-flight requests answered, domains and
    threads joined, final stats on stderr, cache flushed, socket file
    removed). [socket] selects the Unix-socket transport; without it
    the daemon speaks stdin/stdout. Returns the process exit code. *)
val run : ?socket:string -> config -> int
