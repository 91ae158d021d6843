(** Source positions, spans and diagnostics.

    Every AST node carries a {!span} so that later phases report precise
    locations and so that policies (e.g. which [sizeof] occurrences to
    ignore) can refer to individual source sites. *)

(** A point in a source file. *)
type pos = {
  line : int;  (** 1-based line number *)
  col : int;  (** 1-based column *)
  offset : int;  (** 0-based byte offset *)
}

(** A contiguous source region: the file, then the start and end
    positions' fields ({!pos}'s [line], [col] and [offset]) flat in one
    block. *)
type span = {
  file : string;
  start_line : int;
  start_col : int;
  start_offset : int;
  end_line : int;
  end_col : int;
  end_offset : int;
}

val dummy_span : span

(** The span's first position. Allocates a fresh {!pos}. *)
val start_pos : span -> pos

(** The position just past the span. Allocates a fresh {!pos}. *)
val end_pos : span -> pos

(** [join a b] is the smallest span covering both arguments (which must
    belong to the same file). *)
val join : span -> span -> span

val pp_pos : Format.formatter -> pos -> unit
val pp_span : Format.formatter -> span -> unit
val span_to_string : span -> string

(** {1 Diagnostics} *)

type severity = Error | Warning | Note

type diagnostic = { severity : severity; message : string; at : span }

val pp_severity : Format.formatter -> severity -> unit
val pp_diagnostic : Format.formatter -> diagnostic -> unit
val diagnostic_to_string : diagnostic -> string

(** Raised by every phase of the pipeline on a user-program error. *)
exception Compile_error of diagnostic

(** [error ~at fmt ...] raises {!Compile_error} with a formatted message
    anchored at [at]. *)
val error : ?at:span -> ('a, Format.formatter, unit, 'b) format4 -> 'a

val severity_to_string : severity -> string

(** JSON string escaping (quotes, backslashes, control characters). *)
val json_escape : string -> string

(** One diagnostic as a JSON object:
    [{"file","severity","line","col","end_line","end_col","message"}]. *)
val diagnostic_to_json : diagnostic -> string

(** {1 Unknown regions}

    A region of input that failed to parse or type-check under
    keep-going recovery. The analysis treats it like the paper treats an
    unsafe cast: every member of every class the region mentions is
    conservatively marked live. *)

type unknown_region = {
  ur_at : span;
  ur_what : string;  (** short description, e.g. ["unparsed declaration"] *)
  ur_refs : string list;  (** identifiers mentioned inside the region *)
}

val pp_unknown_region : Format.formatter -> unknown_region -> unit

(** {1 Accumulating diagnostics}

    Strict mode raises {!Compile_error} at the first error; keep-going
    mode threads a collector through the pipeline instead. Errors are
    capped per file (messages are suppressed beyond the cap; recovery
    continues regardless). *)

module Diagnostics : sig
  type t

  val default_max_errors_per_file : int
  val create : ?max_errors_per_file:int -> unit -> t

  (** Record a diagnostic (error messages beyond the per-file cap are
      counted but not stored). *)
  val emit : t -> diagnostic -> unit

  val error : t -> ?at:span -> ('a, Format.formatter, unit, unit) format4 -> 'a
  val warning : t -> ?at:span -> ('a, Format.formatter, unit, unit) format4 -> 'a
  val note : t -> ?at:span -> ('a, Format.formatter, unit, unit) format4 -> 'a

  (** Total errors recorded, including suppressed ones. *)
  val error_count : t -> int

  val suppressed_count : t -> int
  val has_errors : t -> bool

  (** Stable output order: sorted by (file, position, severity);
      same-location diagnostics keep emission order. *)
  val to_list : t -> diagnostic list

  val pp : Format.formatter -> t -> unit
end
