(** Recursive-descent parser for MiniC++.

    The declaration-vs-expression ambiguity ([A * b;]) is resolved
    exactly the way a real C++ frontend does: a pre-scan over the token
    stream collects every class/struct/union/enum name, and [A] being a
    known type name makes the statement a declaration. *)

(** [parse ~file src] parses a complete translation unit.

    @raise Source.Compile_error on the first syntax error, with a span. *)
val parse : file:string -> string -> Ast.program

(** Convenience wrapper over {!parse} for tests and examples. *)
val parse_string : ?file:string -> string -> Ast.program

(** Parse an already-lexed token stream (must end with {!Token.EOF}). *)
val parse_tokens : Token.spanned list -> Ast.program

(** Keep-going variant of {!parse}: on a syntax error the parser records
    a diagnostic in [diags], skips to the next synchronization point (a
    [;] or closing brace at top level, a class/struct/union/enum keyword,
    or EOF) and resumes. Each skipped stretch of input is returned as an
    {!Source.unknown_region} so the analysis can degrade conservatively.
    Never raises on user input. *)
val parse_resilient :
  diags:Source.Diagnostics.t ->
  file:string ->
  string ->
  Ast.program * Source.unknown_region list

