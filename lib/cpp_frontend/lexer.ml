(* Hand-written lexer for MiniC++.

   Supports // and /* */ comments, character/string literals with the usual
   escapes, integer (decimal/hex) and floating-point literals, and a line
   directive-free model (benchmarks are single translation units). *)

type state = {
  src : string;
  file : string;
  diags : Source.Diagnostics.t option;  (* [Some] when lexing keeps going *)
  names : (string, Token.t) Hashtbl.t;
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
  let tbl = Hashtbl.create 64 in
  List.iter (fun (text, kw) -> Hashtbl.replace tbl text kw) Token.keyword_table;
  tbl

let make ?diags ~file src =
  {
    src;
    file;
    diags;
    names = Hashtbl.copy keywords;
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

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
  | Some _ | None -> ());
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c

let rec skip_trivia st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_trivia st
  | Some '/' -> (
      match peek2 st with
      | Some '/' ->
          let rec to_eol () =
            match peek st with
            | Some '\n' | None -> ()
            | Some _ ->
                advance st;
                to_eol ()
          in
          to_eol ();
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
      let rec to_eol () =
        match peek st with
        | Some '\n' | None -> ()
        | Some _ ->
            advance st;
            to_eol ()
      in
      to_eol ();
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

let skip_while st p =
  while (match peek st with Some c -> p c | None -> false) do
    advance st
  done

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
  if peek st = Some '0' && (peek2 st = Some 'x' || peek2 st = Some 'X') then begin
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
      if peek st = Some '.' then advance st;
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

let next_token st : Token.spanned =
  skip_trivia st;
  mark st;
  let mk tok = { Token.tok; span = span st } in
  match peek st with
  | None -> mk Token.EOF
  | Some c when is_ident_start c ->
      let start = st.pos in
      while (match peek st with Some c -> is_ident_char c | None -> false) do
        advance st
      done;
      let text = String.sub st.src start (st.pos - start) in
      (match Hashtbl.find st.names text with
      | tok -> mk tok
      | exception Not_found ->
          let tok = Token.IDENT text in
          Hashtbl.add st.names text tok;
          mk tok)
  | Some c when is_digit c -> mk (lex_number st)
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
          mk (Token.CHAR_LIT c)
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
      mk (Token.STRING_LIT (Buffer.contents buf))
  | Some c ->
      let two_char (second : char) (two : Token.t) (one : Token.t) =
        advance st;
        if peek st = Some second then begin
          advance st;
          mk two
        end
        else mk one
      in
      (match c with
      | '(' ->
          advance st;
          mk Token.LPAREN
      | ')' ->
          advance st;
          mk Token.RPAREN
      | '{' ->
          advance st;
          mk Token.LBRACE
      | '}' ->
          advance st;
          mk Token.RBRACE
      | '[' ->
          advance st;
          mk Token.LBRACKET
      | ']' ->
          advance st;
          mk Token.RBRACKET
      | ';' ->
          advance st;
          mk Token.SEMI
      | ',' ->
          advance st;
          mk Token.COMMA
      | '?' ->
          advance st;
          mk Token.QUESTION
      | '~' ->
          advance st;
          mk Token.TILDE
      | ':' -> two_char ':' Token.COLONCOLON Token.COLON
      | '.' ->
          advance st;
          if peek st = Some '*' then begin
            advance st;
            mk Token.DOTSTAR
          end
          else mk Token.DOT
      | '+' ->
          advance st;
          (match peek st with
          | Some '+' ->
              advance st;
              mk Token.PLUSPLUS
          | Some '=' ->
              advance st;
              mk Token.PLUSEQ
          | Some _ | None -> mk Token.PLUS)
      | '-' ->
          advance st;
          (match peek st with
          | Some '-' ->
              advance st;
              mk Token.MINUSMINUS
          | Some '=' ->
              advance st;
              mk Token.MINUSEQ
          | Some '>' ->
              advance st;
              if peek st = Some '*' then begin
                advance st;
                mk Token.ARROWSTAR
              end
              else mk Token.ARROW
          | Some _ | None -> mk Token.MINUS)
      | '*' -> two_char '=' Token.STAREQ Token.STAR
      | '/' -> two_char '=' Token.SLASHEQ Token.SLASH
      | '%' -> two_char '=' Token.PERCENTEQ Token.PERCENT
      | '=' -> two_char '=' Token.EQEQ Token.EQ
      | '!' -> two_char '=' Token.BANGEQ Token.BANG
      | '^' -> two_char '=' Token.CARETEQ Token.CARET
      | '&' ->
          advance st;
          (match peek st with
          | Some '&' ->
              advance st;
              mk Token.AMPAMP
          | Some '=' ->
              advance st;
              mk Token.AMPEQ
          | Some _ | None -> mk Token.AMP)
      | '|' ->
          advance st;
          (match peek st with
          | Some '|' ->
              advance st;
              mk Token.PIPEPIPE
          | Some '=' ->
              advance st;
              mk Token.PIPEEQ
          | Some _ | None -> mk Token.PIPE)
      | '<' ->
          advance st;
          (match peek st with
          | Some '=' ->
              advance st;
              mk Token.LE
          | Some '<' ->
              advance st;
              if peek st = Some '=' then begin
                advance st;
                mk Token.SHLEQ
              end
              else mk Token.SHL
          | Some _ | None -> mk Token.LT)
      | '>' ->
          advance st;
          (match peek st with
          | Some '=' ->
              advance st;
              mk Token.GE
          | Some '>' ->
              advance st;
              if peek st = Some '=' then begin
                advance st;
                mk Token.SHREQ
              end
              else mk Token.SHR
          | Some _ | None -> mk Token.GT)
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
        if peek st <> None then advance st;
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
