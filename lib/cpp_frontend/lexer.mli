(** Hand-written lexer for MiniC++.

    Supports [//] and [/* */] comments, character/string literals with
    the usual escapes, decimal/hex integer literals (with ignored
    [l]/[u] suffixes), floating-point literals (including exponent
    forms), and skips preprocessor lines. *)

(** [tokenize ~file src] lexes a complete source buffer into a token
    list terminated by {!Token.EOF}.

    Each call interns its identifiers: all occurrences of a name share
    one [Token.IDENT] value, and so one string.

    @raise Source.Compile_error on malformed input, including an integer
    literal out of range and a malformed floating-point literal. *)
val tokenize : file:string -> string -> Token.spanned list

(** Keep-going variant: malformed tokens become diagnostics in [diags],
    the offending character is skipped, and lexing continues. A numeric
    literal out of range or malformed is reported and kept, with value
    0, so the parse goes on. Never raises on user input. *)
val tokenize_resilient :
  diags:Source.Diagnostics.t -> file:string -> string -> Token.spanned list

(** Number of non-blank, non-comment-only source lines; used for the
    LOC column of the paper's Table 1. *)
val count_code_lines : string -> int
