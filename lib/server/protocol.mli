(** Wire protocol of [deadmem serve]: JSONL requests and responses.

    One request per line, one JSON object per request; one response
    line per request, either [{"id":…,"ok":true,"cmd":…,"result":{…}}]
    or [{"id":…,"ok":false,"error":{"kind":…,"message":…}}]. The
    daemon never answers anything else: every malformed, oversized,
    hostile or failing input maps to a structured error object. *)

type op =
  | Analyze
  | Check
  | Run
  | Explain
  | Precision
  | Health
  | Stats
  | Shutdown
  | Crash

val op_name : op -> string

(** Rendering of the [stats] snapshot: structured JSON (default) or
    the Prometheus text exposition format embedded as a string. *)
type stats_format = Stats_json | Stats_prometheus

type request = {
  req_id : string option;
  op : op;
  trace_id : string option;
      (** client-supplied trace id; the server generates one for work
          ops when absent, and echoes it in the response either way *)
  stats_format : stats_format;
  source : string option;
  member : string option;
  callgraph : Callgraph.algorithm;
  conservative : bool;
  library_classes : string list;
  keep_going : bool;
  profile : bool;
  engine : Runtime.Interp.engine;
  deadline_ms : int option;
  step_limit : int option;
  call_depth_limit : int option;
  heap_object_limit : int option;
}

type error_kind =
  | Parse
  | Protocol
  | Too_large
  | Overloaded
  | Draining
  | Diagnostics
  | Runtime
  | Limit
  | Unknown_member
  | Unsupported
  | Internal

val kind_name : error_kind -> string

(** JSON rendering helpers used by the daemon's result builders:
    [jstr] quotes and escapes, [jobj] takes (key, rendered value)
    pairs, [jarr] joins rendered elements. *)
val jstr : string -> string

val jobj : (string * string) list -> string
val jarr : string list -> string

(** [trace] adds a top-level ["trace_id"] echo to the response. *)
val ok_response :
  ?id:string -> ?trace:string -> op:op -> (string * string) list -> string

val error_response :
  ?id:string ->
  ?trace:string ->
  ?extra:(string * string) list ->
  error_kind ->
  string ->
  string

(** The exception a failure ended with: [Fun.Finally_raised e]
    unwrapped (a guest destructor that failed while another error
    unwound its scope). *)
val root_exn : exn -> exn

(** The expected failures of a work op, as the error kind, the message
    and extra error fields: resource limits, runtime errors, compile
    errors and native stack/heap exhaustion, after {!root_exn}. [None]
    for anything else. The daemon answers with exactly this; the CLI
    prints the message and maps the kind to its exit code. *)
val failure_of_exn : exn -> (error_kind * string * (string * string) list) option

type 'a parse_result = ('a, string option * error_kind * string) result

(** [parse_request ~max_depth line] parses and validates one frame.
    [max_depth] bounds JSON nesting. On error the result carries the
    request id when one could be recovered, so the error response can
    still be correlated. Never raises. *)
val parse_request : max_depth:int -> string -> request parse_result

(** ["Class::member"] (both halves non-empty) → a member identity, or
    the complaint about a malformed one, to follow the argument's name
    ("must have the form 'Class::member' (got '…')"). The one member
    parser: the daemon's [explain] and `deadmem explain` both read
    their argument with it. *)
val parse_member : string -> (Sema.Member.t, string) result
