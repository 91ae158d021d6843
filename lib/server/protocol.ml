(* Wire protocol of `deadmem serve`: JSONL requests in, JSONL responses
   out.

   Every request is one line holding one JSON object; every response is
   one line holding one JSON object that echoes the request's "id" (or
   null when the request was too broken to carry one). A response is
   either

     {"id":ID,"ok":true,"cmd":"analyze","result":{...}}
     {"id":ID,"ok":false,"error":{"kind":"...","message":"...",...}}

   and the daemon NEVER answers anything else — malformed JSON,
   protocol violations, oversized frames, compile errors, runtime
   errors, resource limits and internal faults all map to a structured
   error object with a machine-readable [kind].

   Parsing is defensive by construction: the frame size cap is enforced
   by the transport before this module sees the line, and the JSON
   nesting depth cap is enforced inside [Telemetry.Json.parse], so a
   depth bomb is a parse error instead of a native stack overflow. *)

type op =
  | Analyze  (** dead-member analysis; diagnostics are an error unless
                 [keep_going] degrades them conservatively *)
  | Check  (** per-unit diagnosis: diagnostics are data, not an error *)
  | Run  (** execute under the instrumented interpreter *)
  | Explain  (** one member's liveness derivation *)
  | Precision  (** CHA/RTA/PTA side by side over the built-in suite *)
  | Health  (** liveness probe; answered inline, even under overload *)
  | Stats  (** live telemetry snapshot; answered inline *)
  | Shutdown  (** graceful drain, same path as SIGTERM *)
  | Crash  (** fault injection: kill the worker (gated by config) *)

let op_name = function
  | Analyze -> "analyze"
  | Check -> "check"
  | Run -> "run"
  | Explain -> "explain"
  | Precision -> "precision"
  | Health -> "health"
  | Stats -> "stats"
  | Shutdown -> "shutdown"
  | Crash -> "crash"

type stats_format = Stats_json | Stats_prometheus

type request = {
  req_id : string option;
  op : op;
  trace_id : string option;
      (** client-supplied trace id; the server generates one for work
          ops when absent, and echoes it in the response either way *)
  stats_format : stats_format;  (** stats: snapshot rendering *)
  source : string option;  (** the MiniC++ translation unit *)
  member : string option;  (** explain: "Class::member" *)
  callgraph : Callgraph.algorithm;
  conservative : bool;
  library_classes : string list;
  keep_going : bool;
  profile : bool;  (** run: analyze first and measure dead space *)
  engine : Runtime.Interp.engine;
  deadline_ms : int option;  (** overrides the server default; 0 = none *)
  step_limit : int option;
  call_depth_limit : int option;
  heap_object_limit : int option;
}

type error_kind =
  | Parse  (** the frame is not valid JSON (or is nested too deeply) *)
  | Protocol  (** valid JSON, invalid request shape *)
  | Too_large  (** frame exceeded the request size cap *)
  | Overloaded  (** bounded queue full: load shed, retry later *)
  | Draining  (** server is shutting down; no new work accepted *)
  | Diagnostics  (** the source has compile errors *)
  | Runtime  (** the program failed dynamically *)
  | Limit  (** a resource guard or the request deadline fired *)
  | Unknown_member  (** explain: not a classified instance data member *)
  | Unsupported  (** recognized but disabled (e.g. crash w/o injection) *)
  | Internal  (** a pipeline bug; the request is quarantined *)

let kind_name = function
  | Parse -> "parse"
  | Protocol -> "protocol"
  | Too_large -> "too_large"
  | Overloaded -> "overloaded"
  | Draining -> "draining"
  | Diagnostics -> "diagnostics"
  | Runtime -> "runtime"
  | Limit -> "limit"
  | Unknown_member -> "unknown_member"
  | Unsupported -> "unsupported"
  | Internal -> "internal"

(* -- response rendering ------------------------------------------------------ *)

let jstr s = "\"" ^ Frontend.Source.json_escape s ^ "\""
let jid = function Some s -> jstr s | None -> "null"

(* [fields] are (key, already-rendered JSON value) pairs. *)
let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields)
  ^ "}"

let jarr vs = "[" ^ String.concat "," vs ^ "]"

let jtrace = function
  | None -> ""
  | Some t -> Printf.sprintf {|,"trace_id":%s|} (jstr t)

let ok_response ?id ?trace ~op fields =
  Printf.sprintf {|{"id":%s%s,"ok":true,"cmd":%s,"result":%s}|} (jid id)
    (jtrace trace)
    (jstr (op_name op)) (jobj fields)

let error_response ?id ?trace ?(extra = []) kind msg =
  Printf.sprintf {|{"id":%s%s,"ok":false,"error":%s}|} (jid id) (jtrace trace)
    (jobj ([ ("kind", jstr (kind_name kind)); ("message", jstr msg) ] @ extra))

(* -- failures ---------------------------------------------------------------- *)

(* A [Fun.protect] finaliser that raised while an error unwound (a
   guest destructor failing on the way out) wraps that error; the
   finaliser's error is the one the program ended with. *)
let rec root_exn = function Fun.Finally_raised e -> root_exn e | e -> e

(* The expected failures of a work op, shared by the daemon's error
   responses and the CLI's exit codes: a kind, the message, and any
   extra error fields. Anything else is a bug in the pipeline. *)
let failure_of_exn e =
  match root_exn e with
  | Runtime.Value.Limit_exceeded m -> Some (Limit, "resource limit: " ^ m, [])
  | Runtime.Value.Runtime_error m -> Some (Runtime, "runtime error: " ^ m, [])
  | Frontend.Source.Compile_error d ->
      Some
        ( Diagnostics,
          Frontend.Source.diagnostic_to_string d,
          [ ("diagnostics", jarr [ Frontend.Source.diagnostic_to_json d ]) ] )
  | Stack_overflow -> Some (Limit, "resource limit: native stack exhausted", [])
  | Out_of_memory -> Some (Limit, "resource limit: out of memory", [])
  | _ -> None

(* -- request parsing --------------------------------------------------------- *)

module J = Telemetry.Json

type 'a parse_result = ('a, string option * error_kind * string) result

let default_request op =
  {
    req_id = None;
    op;
    trace_id = None;
    stats_format = Stats_json;
    source = None;
    member = None;
    callgraph = Callgraph.Rta;
    conservative = false;
    library_classes = [];
    keep_going = false;
    profile = false;
    engine = Runtime.Interp.Bytecode;
    deadline_ms = None;
    step_limit = None;
    call_depth_limit = None;
    heap_object_limit = None;
  }

let ops =
  [
    ("analyze", Analyze); ("check", Check); ("run", Run); ("explain", Explain);
    ("precision", Precision); ("health", Health); ("stats", Stats);
    ("shutdown", Shutdown); ("crash", Crash);
  ]

exception Reject of error_kind * string

let reject kind fmt = Fmt.kstr (fun m -> raise (Reject (kind, m))) fmt

let get_string ~what = function
  | J.Str s -> s
  | _ -> reject Protocol "'%s' must be a string" what

let get_bool ~what = function
  | J.Bool b -> b
  | _ -> reject Protocol "'%s' must be a boolean" what

let get_pos_int ~what v =
  match J.to_int v with
  | Some n when n >= 0 -> n
  | Some _ -> reject Protocol "'%s' must be non-negative" what
  | None -> reject Protocol "'%s' must be an integer" what

let parse_request ~max_depth (line : string) : request parse_result =
  match J.parse ~max_depth line with
  | Error msg -> Error (None, Parse, "request is not valid JSON: " ^ msg)
  | Ok (J.Obj fields as obj) -> (
      (* pull the id out first so even shape errors can echo it;
         [J.to_int] bounds the float so a huge integral id (1e30) is a
         protocol error instead of an undefined [int_of_float] echo *)
      let req_id =
        match J.member "id" obj with
        | Some (J.Str s) -> Some s
        | Some (J.Num _ as v) -> Option.map string_of_int (J.to_int v)
        | _ -> None
      in
      try
        (match J.member "id" obj with
        | None | Some (J.Str _) -> ()
        | Some (J.Num _ as v) when J.to_int v <> None -> ()
        | Some _ ->
            reject Protocol "'id' must be a string or an integer within +-2^53");
        let op =
          match J.member "cmd" obj with
          | None -> reject Protocol "missing 'cmd'"
          | Some (J.Str s) -> (
              match List.assoc_opt s ops with
              | Some op -> op
              | None ->
                  reject Protocol "unknown cmd '%s' (expected one of %s)" s
                    (String.concat ", " (List.map fst ops)))
          | Some _ -> reject Protocol "'cmd' must be a string"
        in
        let r = ref { (default_request op) with req_id } in
        List.iter
          (fun (key, v) ->
            match key with
            | "id" | "cmd" -> ()
            | "trace_id" ->
                let t = get_string ~what:key v in
                if t = "" then reject Protocol "'trace_id' must be non-empty";
                r := { !r with trace_id = Some t }
            | "format" -> (
                if op <> Stats then
                  reject Protocol "'format' is only valid for cmd 'stats'";
                match get_string ~what:key v with
                | "json" -> r := { !r with stats_format = Stats_json }
                | "prometheus" ->
                    r := { !r with stats_format = Stats_prometheus }
                | s ->
                    reject Protocol
                      "unknown format '%s' (expected json or prometheus)" s)
            | "source" -> r := { !r with source = Some (get_string ~what:key v) }
            | "member" -> r := { !r with member = Some (get_string ~what:key v) }
            | "callgraph" -> (
                match get_string ~what:key v with
                | "cha" -> r := { !r with callgraph = Callgraph.Cha }
                | "rta" -> r := { !r with callgraph = Callgraph.Rta }
                | "pta" -> r := { !r with callgraph = Callgraph.Pta }
                | s ->
                    reject Protocol
                      "unknown callgraph '%s' (expected cha, rta or pta)" s)
            | "engine" -> (
                match get_string ~what:key v with
                | "bytecode" -> r := { !r with engine = Runtime.Interp.Bytecode }
                | "tree" -> r := { !r with engine = Runtime.Interp.Tree }
                | s ->
                    reject Protocol
                      "unknown engine '%s' (expected bytecode or tree)" s)
            | "conservative" ->
                r := { !r with conservative = get_bool ~what:key v }
            | "keep_going" -> r := { !r with keep_going = get_bool ~what:key v }
            | "profile" -> r := { !r with profile = get_bool ~what:key v }
            | "library_classes" -> (
                match v with
                | J.Arr vs ->
                    r :=
                      { !r with
                        library_classes =
                          List.map (get_string ~what:"library_classes[]") vs
                      }
                | _ -> reject Protocol "'library_classes' must be an array")
            | "deadline_ms" ->
                r := { !r with deadline_ms = Some (get_pos_int ~what:key v) }
            | "step_limit" ->
                r := { !r with step_limit = Some (get_pos_int ~what:key v) }
            | "call_depth_limit" ->
                r :=
                  { !r with call_depth_limit = Some (get_pos_int ~what:key v) }
            | "heap_object_limit" ->
                r :=
                  { !r with heap_object_limit = Some (get_pos_int ~what:key v) }
            | _ ->
                (* unknown keys are rejected: a typo'd knob silently doing
                   nothing is worse than an error *)
                reject Protocol "unknown field '%s'" key)
          fields;
        let need_source =
          match op with
          | Analyze | Check | Run | Explain -> true
          | Precision | Health | Stats | Shutdown | Crash -> false
        in
        if need_source && !r.source = None then
          reject Protocol "cmd '%s' requires 'source'" (op_name op);
        if op = Explain && !r.member = None then
          reject Protocol "cmd 'explain' requires 'member'";
        Ok !r
      with Reject (kind, msg) -> Error (req_id, kind, msg))
  | Ok _ -> Error (None, Protocol, "request must be a JSON object")

(* explain's member argument, as both front doors read it:
   "Class::member", both halves non-empty. The error is the complaint
   each prints after naming the argument. *)
let parse_member s =
  let n = String.length s in
  let rec find i =
    if i + 1 >= n then None
    else if s.[i] = ':' && s.[i + 1] = ':' then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i when i > 0 && i + 2 < n ->
      Ok
        (Sema.Member.make
           ~cls:(String.sub s 0 i)
           ~name:(String.sub s (i + 2) (n - i - 2)))
  | _ -> Error (Printf.sprintf "must have the form 'Class::member' (got '%s')" s)
