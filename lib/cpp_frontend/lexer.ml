(* Hand-written lexer for MiniC++.

   Supports // and /* */ comments, character/string literals with the usual
   escapes, integer (decimal/hex) and floating-point literals, and a line
   directive-free model (benchmarks are single translation units). *)

(* Hashed with [Hashtbl.hash] and compared with [String.equal]: no
   polymorphic compare per identifier. *)
module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash (s : string) = Hashtbl.hash s
end)

type state = {
  src : string;
  file : string;
  diags : Source.Diagnostics.t option;  (* [Some] when lexing keeps going *)
  names : Token.t Names.t;
      (* the keywords, then every identifier seen so far: all occurrences
         of a name share one [Token.IDENT] block and one string *)
  mutable pos : int;   (* byte offset *)
  mutable line : int;  (* 1-based *)
  mutable bol : int;   (* offset of beginning of current line *)
  mutable tok_line : int;  (* start of the current token (or comment) *)
  mutable tok_col : int;
  mutable tok_offset : int;
}

(* [Token.keyword_table] hashed once; each [tokenize] call copies it. *)
let keywords =
  let tbl = Names.create 64 in
  List.iter (fun (text, kw) -> Names.replace tbl text kw) Token.keyword_table;
  tbl

let make ?diags ~file src =
  {
    src;
    file;
    diags;
    names = Names.copy keywords;
    pos = 0;
    line = 1;
    bol = 0;
    tok_line = 1;
    tok_col = 1;
    tok_offset = 0;
  }

(* The current token starts here. *)
let mark st =
  st.tok_line <- st.line;
  st.tok_col <- st.pos - st.bol + 1;
  st.tok_offset <- st.pos

(* From the current token's start to here, written straight from the
   int state: no [Source.pos] is built. *)
let span st : Source.span =
  {
    file = st.file;
    start_line = st.tok_line;
    start_col = st.tok_col;
    start_offset = st.tok_offset;
    end_line = st.line;
    end_col = st.pos - st.bol + 1;
    end_offset = st.pos;
  }

let mk st tok = { Token.tok; span = span st }

let lex_error st fmt =
  Fmt.kstr (fun msg -> Source.error ~at:(span st) "%s" msg) fmt

(* telemetry instruments (no-ops unless collection is enabled) *)
let tokens_counter = Telemetry.Counter.make "lexer.tokens"
let recovered_counter = Telemetry.Counter.make "lexer.recovered_errors"

(* A numeric literal that scans but has no value. Keep-going lexing
   reports it and keeps the token, with the value [tok], so the parse
   goes on; strict lexing raises. *)
let bad_literal st tok msg =
  match st.diags with
  | None -> lex_error st "%s" msg
  | Some diags ->
      Source.Diagnostics.error diags ~at:(span st) "%s" msg;
      Telemetry.Counter.incr recovered_counter;
      tok

(* [Some c] for every character, built once: the lexer looks at each
   character several times, and a fresh [Some c] a look was about half
   of what a token cost. At 256 words the table is still allocated on
   the minor heap, so building it forces no collection. *)
let some_char = Array.init 256 (fun i -> Some (Char.chr i))

let char_at st i =
  if i < String.length st.src then
    Array.unsafe_get some_char (Char.code (String.unsafe_get st.src i))
  else None

let peek st = char_at st st.pos
let peek2 st = char_at st (st.pos + 1)

(* Is the byte at offset [i] [c]? False past the end. *)
let byte_is st i c = i < String.length st.src && String.unsafe_get st.src i = c

let advance st =
  if byte_is st st.pos '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

(* Moves [pos] past the bytes [p] holds for; [p] never holds for a
   newline, so the line does not move. *)
let skip_while st p =
  while st.pos < String.length st.src && p (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done

let is_digit = function '0' .. '9' -> true | _ -> false
let is_hex_digit = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false
let is_ident_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true
  | _ -> false

let not_newline c = c <> '\n'

let rec skip_trivia st =
  match peek st with
  | Some (' ' | '\t' | '\r') ->
      skip_while st (function ' ' | '\t' | '\r' -> true | _ -> false);
      skip_trivia st
  | Some '\n' ->
      advance st;
      skip_trivia st
  | Some '/' -> (
      match peek2 st with
      | Some '/' ->
          skip_while st not_newline;
          skip_trivia st
      | Some '*' ->
          mark st;
          advance st;
          advance st;
          let rec to_close () =
            match (peek st, peek2 st) with
            | Some '*', Some '/' ->
                advance st;
                advance st
            | None, _ -> lex_error st "unterminated comment"
            | Some _, _ ->
                advance st;
                to_close ()
          in
          to_close ();
          skip_trivia st
      | Some _ | None -> ())
  | Some '#' ->
      (* Preprocessor lines (e.g. #include) are skipped; benchmarks are
         self-contained translation units. *)
      skip_while st not_newline;
      skip_trivia st
  | Some _ | None -> ()

let lex_escape st =
  advance st;
  (* consume backslash *)
  match peek st with
  | Some 'n' ->
      advance st;
      '\n'
  | Some 't' ->
      advance st;
      '\t'
  | Some 'r' ->
      advance st;
      '\r'
  | Some '0' ->
      advance st;
      '\000'
  | Some '\\' ->
      advance st;
      '\\'
  | Some '\'' ->
      advance st;
      '\''
  | Some '"' ->
      advance st;
      '"'
  | Some c -> lex_error st "unknown escape sequence '\\%c'" c
  | None -> lex_error st "unterminated escape sequence"

(* [src.[start .. stop - 1]] is an integer literal's digits; its suffixes
   l/u/L/U follow and are accepted and ignored. *)
let int_literal st start stop =
  while
    (match peek st with Some ('l' | 'L' | 'u' | 'U') -> true | _ -> false)
  do
    advance st
  done;
  match int_of_string_opt (String.sub st.src start (stop - start)) with
  | Some n -> Token.INT_LIT n
  | None -> bad_literal st (Token.INT_LIT 0) "integer literal out of range"

let lex_number st =
  let start = st.pos in
  if byte_is st start '0' && (byte_is st (start + 1) 'x' || byte_is st (start + 1) 'X')
  then begin
    advance st;
    advance st;
    let hstart = st.pos in
    skip_while st is_hex_digit;
    if st.pos = hstart then lex_error st "malformed hex literal";
    int_literal st start st.pos
  end
  else begin
    skip_while st is_digit;
    let is_float =
      match (peek st, peek2 st) with
      | Some '.', Some c when is_digit c -> true
      | Some '.', (Some _ | None) -> true
      | Some ('e' | 'E'), Some c when is_digit c || c = '+' || c = '-' -> true
      | _ -> false
    in
    if is_float then begin
      if byte_is st st.pos '.' then advance st;
      skip_while st is_digit;
      (match peek st with
      | Some ('e' | 'E') ->
          advance st;
          (match peek st with
          | Some ('+' | '-') -> advance st
          | Some _ | None -> ());
          skip_while st is_digit
      | Some _ | None -> ());
      let stop = st.pos in
      (match peek st with
      | Some ('f' | 'F') -> advance st
      | Some _ | None -> ());
      match float_of_string_opt (String.sub st.src start (stop - start)) with
      | Some f -> Token.FLOAT_LIT f
      | None ->
          bad_literal st (Token.FLOAT_LIT 0.0) "malformed floating-point literal"
    end
    else int_literal st start st.pos
  end

(* [one], or [two] when the next byte is [second] *)
let two_char st second two one =
  advance st;
  if byte_is st st.pos second then begin
    advance st;
    mk st two
  end
  else mk st one

let next_token st : Token.spanned =
  skip_trivia st;
  mark st;
  match peek st with
  | None -> mk st Token.EOF
  | Some c when is_ident_start c ->
      let start = st.pos in
      skip_while st is_ident_char;
      let text = String.sub st.src start (st.pos - start) in
      (match Names.find st.names text with
      | tok -> mk st tok
      | exception Not_found ->
          let tok = Token.IDENT text in
          Names.add st.names text tok;
          mk st tok)
  | Some c when is_digit c -> mk st (lex_number st)
  | Some '\'' ->
      advance st;
      let c =
        match peek st with
        | Some '\\' -> lex_escape st
        | Some c ->
            advance st;
            c
        | None -> lex_error st "unterminated character literal"
      in
      (match peek st with
      | Some '\'' ->
          advance st;
          mk st (Token.CHAR_LIT c)
      | Some _ | None -> lex_error st "unterminated character literal")
  | Some '"' ->
      advance st;
      let buf = Buffer.create 16 in
      let rec go () =
        match peek st with
        | Some '"' -> advance st
        | Some '\\' ->
            Buffer.add_char buf (lex_escape st);
            go ()
        | Some c ->
            advance st;
            Buffer.add_char buf c;
            go ()
        | None -> lex_error st "unterminated string literal"
      in
      go ();
      mk st (Token.STRING_LIT (Buffer.contents buf))
  | Some c -> (
      match c with
      | '(' ->
          advance st;
          mk st Token.LPAREN
      | ')' ->
          advance st;
          mk st Token.RPAREN
      | '{' ->
          advance st;
          mk st Token.LBRACE
      | '}' ->
          advance st;
          mk st Token.RBRACE
      | '[' ->
          advance st;
          mk st Token.LBRACKET
      | ']' ->
          advance st;
          mk st Token.RBRACKET
      | ';' ->
          advance st;
          mk st Token.SEMI
      | ',' ->
          advance st;
          mk st Token.COMMA
      | '?' ->
          advance st;
          mk st Token.QUESTION
      | '~' ->
          advance st;
          mk st Token.TILDE
      | ':' -> two_char st ':' Token.COLONCOLON Token.COLON
      | '.' ->
          advance st;
          if byte_is st st.pos '*' then begin
            advance st;
            mk st Token.DOTSTAR
          end
          else mk st Token.DOT
      | '+' ->
          advance st;
          (match peek st with
          | Some '+' ->
              advance st;
              mk st Token.PLUSPLUS
          | Some '=' ->
              advance st;
              mk st Token.PLUSEQ
          | Some _ | None -> mk st Token.PLUS)
      | '-' ->
          advance st;
          (match peek st with
          | Some '-' ->
              advance st;
              mk st Token.MINUSMINUS
          | Some '=' ->
              advance st;
              mk st Token.MINUSEQ
          | Some '>' ->
              advance st;
              if byte_is st st.pos '*' then begin
                advance st;
                mk st Token.ARROWSTAR
              end
              else mk st Token.ARROW
          | Some _ | None -> mk st Token.MINUS)
      | '*' -> two_char st '=' Token.STAREQ Token.STAR
      | '/' -> two_char st '=' Token.SLASHEQ Token.SLASH
      | '%' -> two_char st '=' Token.PERCENTEQ Token.PERCENT
      | '=' -> two_char st '=' Token.EQEQ Token.EQ
      | '!' -> two_char st '=' Token.BANGEQ Token.BANG
      | '^' -> two_char st '=' Token.CARETEQ Token.CARET
      | '&' ->
          advance st;
          (match peek st with
          | Some '&' ->
              advance st;
              mk st Token.AMPAMP
          | Some '=' ->
              advance st;
              mk st Token.AMPEQ
          | Some _ | None -> mk st Token.AMP)
      | '|' ->
          advance st;
          (match peek st with
          | Some '|' ->
              advance st;
              mk st Token.PIPEPIPE
          | Some '=' ->
              advance st;
              mk st Token.PIPEEQ
          | Some _ | None -> mk st Token.PIPE)
      | '<' ->
          advance st;
          (match peek st with
          | Some '=' ->
              advance st;
              mk st Token.LE
          | Some '<' ->
              advance st;
              if byte_is st st.pos '=' then begin
                advance st;
                mk st Token.SHLEQ
              end
              else mk st Token.SHL
          | Some _ | None -> mk st Token.LT)
      | '>' ->
          advance st;
          (match peek st with
          | Some '=' ->
              advance st;
              mk st Token.GE
          | Some '>' ->
              advance st;
              if byte_is st st.pos '=' then begin
                advance st;
                mk st Token.SHREQ
              end
              else mk st Token.SHR
          | Some _ | None -> mk st Token.GT)
      | c -> lex_error st "unexpected character '%c'" c)

let count_tokens toks =
  if Telemetry.enabled () then
    Telemetry.Counter.add tokens_counter (List.length toks)

(* Tokenize a whole source buffer, including the trailing EOF token. The
   list is built in order ([tail_mod_cons]), with no reversed copy. *)
let tokenize ~file src : Token.spanned list =
  Telemetry.Span.with_ "lex" @@ fun () ->
  let st = make ~file src in
  let[@tail_mod_cons] rec go () =
    let t = next_token st in
    match t.Token.tok with Token.EOF -> [ t ] | _ -> t :: go ()
  in
  let toks = go () in
  count_tokens toks;
  toks

(* Keep-going lexing: a malformed token becomes a diagnostic in [diags],
   the offending character is skipped, and lexing continues — so one bad
   byte no longer hides every later error. A numeric literal without a
   value is reported and kept ([bad_literal]). *)
let tokenize_resilient ~diags ~file src : Token.spanned list =
  Telemetry.Span.with_ "lex" @@ fun () ->
  let st = make ~diags ~file src in
  let[@tail_mod_cons] rec go () =
    match next_token st with
    | t -> ( match t.Token.tok with Token.EOF -> [ t ] | _ -> t :: go ())
    | exception Source.Compile_error d ->
        Source.Diagnostics.emit diags d;
        Telemetry.Counter.incr recovered_counter;
        (* guarantee progress past the offending input *)
        if st.pos < String.length st.src then advance st;
        go ()
  in
  let toks = go () in
  count_tokens toks;
  toks

(* Number of non-blank, non-comment-only source lines: used for the LOC
   column of Table 1. *)
let count_code_lines src =
  let lines = String.split_on_char '\n' src in
  let is_code line =
    let line = String.trim line in
    line <> ""
    && not (String.length line >= 2 && line.[0] = '/' && line.[1] = '/')
  in
  List.length (List.filter is_code lines)
