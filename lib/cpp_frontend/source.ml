(* Source positions, spans and diagnostics for the MiniC++ frontend.

   Every AST node carries a [span] so that later phases (type checking,
   liveness analysis) can report precise locations, and so that the
   [sizeof]-policy configuration can refer to individual occurrences. *)

type pos = {
  line : int;  (* 1-based *)
  col : int;   (* 1-based *)
  offset : int;  (* 0-based byte offset into the file *)
}

(* One flat 8-word block, the file then the start and end positions'
   fields: every token keeps one until the parser is done. Structural
   equality and [Hashtbl.hash] mean "same location" ([Eliminate] keys a
   table by span). *)
type span = {
  file : string;
  start_line : int;
  start_col : int;
  start_offset : int;
  end_line : int;
  end_col : int;
  end_offset : int;
}

let dummy_span =
  {
    file = "<none>";
    start_line = 0;
    start_col = 0;
    start_offset = 0;
    end_line = 0;
    end_col = 0;
    end_offset = 0;
  }

let start_pos s = { line = s.start_line; col = s.start_col; offset = s.start_offset }
let end_pos s = { line = s.end_line; col = s.end_col; offset = s.end_offset }

(* A span covering both arguments; assumes both are in the same file. *)
let join a b =
  let s = if a.start_offset <= b.start_offset then a else b in
  let e = if a.end_offset >= b.end_offset then a else b in
  {
    file = a.file;
    start_line = s.start_line;
    start_col = s.start_col;
    start_offset = s.start_offset;
    end_line = e.end_line;
    end_col = e.end_col;
    end_offset = e.end_offset;
  }

let pp_pos ppf p = Fmt.pf ppf "%d:%d" p.line p.col

let pp_span ppf s =
  if s.start_line = s.end_line then
    Fmt.pf ppf "%s:%d:%d-%d" s.file s.start_line s.start_col s.end_col
  else
    Fmt.pf ppf "%s:%d:%d-%d:%d" s.file s.start_line s.start_col s.end_line
      s.end_col

let span_to_string s = Fmt.str "%a" pp_span s

(* Diagnostics ------------------------------------------------------------ *)

type severity = Error | Warning | Note

type diagnostic = {
  severity : severity;
  message : string;
  at : span;
}

let pp_severity ppf = function
  | Error -> Fmt.string ppf "error"
  | Warning -> Fmt.string ppf "warning"
  | Note -> Fmt.string ppf "note"

let pp_diagnostic ppf d =
  Fmt.pf ppf "%a: %a: %s" pp_span d.at pp_severity d.severity d.message

let diagnostic_to_string d = Fmt.str "%a" pp_diagnostic d

exception Compile_error of diagnostic

let error ?(at = dummy_span) fmt =
  Fmt.kstr
    (fun message ->
      raise (Compile_error { severity = Error; message; at }))
    fmt

(* JSON rendering of a diagnostic, for machine consumers of the CLI.
   Schema (documented in the README):
     {"file", "severity", "line", "col", "end_line", "end_col", "message"} *)
let json_escape = Telemetry.json_escape

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

let diagnostic_to_json d =
  Printf.sprintf
    "{\"file\":\"%s\",\"severity\":\"%s\",\"line\":%d,\"col\":%d,\"end_line\":%d,\"end_col\":%d,\"message\":\"%s\"}"
    (json_escape d.at.file)
    (severity_to_string d.severity)
    d.at.start_line d.at.start_col d.at.end_line d.at.end_col
    (json_escape d.message)

(* Unknown regions -------------------------------------------------------

   A region of the input that failed to parse or type-check when the
   pipeline runs in keep-going mode. The analysis treats such a region the
   way the paper treats an unsafe cast: every member of every class the
   region mentions is conservatively marked live, so the report stays
   sound on partially-broken input. *)

type unknown_region = {
  ur_at : span;  (* what the recovery skipped or abandoned *)
  ur_what : string;  (* short human description, e.g. "unparsed declaration" *)
  ur_refs : string list;  (* identifiers mentioned inside the region *)
}

let pp_unknown_region ppf r =
  Fmt.pf ppf "%a: unknown region (%s), mentions [%s]" pp_span r.ur_at r.ur_what
    (String.concat ", " r.ur_refs)

(* Accumulating diagnostics ----------------------------------------------

   The raise-first [Compile_error] model above serves strict mode (the
   default); keep-going mode threads a [Diagnostics.t] collector through
   the pipeline instead, so one bad declaration no longer hides every
   other diagnostic. Errors are capped per file to keep adversarial
   inputs from flooding the output; the cap suppresses *messages*, never
   recovery itself. *)

module Diagnostics = struct
  type collector = {
    mutable items : diagnostic list;  (* newest first *)
    mutable errors : int;
    mutable suppressed : int;
    max_errors_per_file : int;
    per_file : (string, int) Hashtbl.t;
  }

  type t = collector

  let default_max_errors_per_file = 20

  let create ?(max_errors_per_file = default_max_errors_per_file) () =
    {
      items = [];
      errors = 0;
      suppressed = 0;
      max_errors_per_file = max 1 max_errors_per_file;
      per_file = Hashtbl.create 4;
    }

  let emit t (d : diagnostic) =
    match d.severity with
    | Error ->
        let n =
          Option.value ~default:0 (Hashtbl.find_opt t.per_file d.at.file)
        in
        t.errors <- t.errors + 1;
        if n >= t.max_errors_per_file then t.suppressed <- t.suppressed + 1
        else begin
          Hashtbl.replace t.per_file d.at.file (n + 1);
          t.items <- d :: t.items
        end
    | Warning | Note -> t.items <- d :: t.items

  let error t ?(at = dummy_span) fmt =
    Fmt.kstr (fun message -> emit t { severity = Error; message; at }) fmt

  let warning t ?(at = dummy_span) fmt =
    Fmt.kstr (fun message -> emit t { severity = Warning; message; at }) fmt

  let note t ?(at = dummy_span) fmt =
    Fmt.kstr (fun message -> emit t { severity = Note; message; at }) fmt

  let error_count t = t.errors
  let suppressed_count t = t.suppressed
  let has_errors t = t.errors > 0

  let severity_rank = function Error -> 0 | Warning -> 1 | Note -> 2

  (* Diagnostics sorted by (file, position, severity); the sort is stable,
     so diagnostics at the same location keep emission order. *)
  let to_list t =
    List.stable_sort
      (fun a b ->
        match String.compare a.at.file b.at.file with
        | 0 -> (
            match Int.compare a.at.start_offset b.at.start_offset with
            | 0 -> compare (severity_rank a.severity) (severity_rank b.severity)
            | c -> c)
        | c -> c)
      (List.rev t.items)

  let pp ppf t =
    List.iter (fun d -> Fmt.pf ppf "%a@." pp_diagnostic d) (to_list t);
    if t.suppressed > 0 then
      Fmt.pf ppf "... and %d more error(s) suppressed (per-file cap %d)@."
        t.suppressed t.max_errors_per_file
end
