(* Hand-written lexer for MiniC++.

   Supports // and /* */ comments, character/string literals with the usual
   escapes, integer (decimal/hex) and floating-point literals, and a line
   directive-free model (benchmarks are single translation units). *)

type state = {
  src : string;
  file : string;
  mutable pos : int;   (* byte offset *)
  mutable line : int;  (* 1-based *)
  mutable bol : int;   (* offset of beginning of current line *)
}

let make ~file src = { src; file; pos = 0; line = 1; bol = 0 }

let current_pos st : Source.pos =
  { line = st.line; col = st.pos - st.bol + 1; offset = st.pos }

let span_from st (start_pos : Source.pos) : Source.span =
  Source.make_span ~file:st.file ~start_pos ~end_pos:(current_pos st)

let lex_error st start_pos fmt =
  Fmt.kstr (fun msg -> Source.error ~at:(span_from st start_pos) "%s" msg) fmt

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

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
          let start_pos = current_pos st in
          advance st;
          advance st;
          let rec to_close () =
            match (peek st, peek2 st) with
            | Some '*', Some '/' ->
                advance st;
                advance st
            | None, _ -> lex_error st start_pos "unterminated comment"
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

let lex_escape st start_pos =
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
  | Some c -> lex_error st start_pos "unknown escape sequence '\\%c'" c
  | None -> lex_error st start_pos "unterminated escape sequence"

let lex_number st start_pos =
  let start = st.pos in
  if peek st = Some '0' && (peek2 st = Some 'x' || peek2 st = Some 'X') then begin
    advance st;
    advance st;
    let hstart = st.pos in
    while (match peek st with Some c -> is_hex_digit c | None -> false) do
      advance st
    done;
    if st.pos = hstart then lex_error st start_pos "malformed hex literal";
    let text = String.sub st.src start (st.pos - start) in
    Token.INT_LIT (int_of_string text)
  end
  else begin
    while (match peek st with Some c -> is_digit c | None -> false) do
      advance st
    done;
    let is_float =
      match (peek st, peek2 st) with
      | Some '.', Some c when is_digit c -> true
      | Some '.', (Some _ | None) -> true
      | Some ('e' | 'E'), Some c when is_digit c || c = '+' || c = '-' -> true
      | _ -> false
    in
    if is_float then begin
      if peek st = Some '.' then advance st;
      while (match peek st with Some c -> is_digit c | None -> false) do
        advance st
      done;
      (match peek st with
      | Some ('e' | 'E') ->
          advance st;
          (match peek st with
          | Some ('+' | '-') -> advance st
          | Some _ | None -> ());
          while (match peek st with Some c -> is_digit c | None -> false) do
            advance st
          done
      | Some _ | None -> ());
      (match peek st with
      | Some ('f' | 'F') -> advance st
      | Some _ | None -> ());
      let text = String.sub st.src start (st.pos - start) in
      let text =
        if text <> "" && (text.[String.length text - 1] = 'f'
                          || text.[String.length text - 1] = 'F')
        then String.sub text 0 (String.length text - 1)
        else text
      in
      Token.FLOAT_LIT (float_of_string text)
    end
    else begin
      (* integer suffixes l/u/L/U are accepted and ignored *)
      while
        (match peek st with Some ('l' | 'L' | 'u' | 'U') -> true | _ -> false)
      do
        advance st
      done;
      let text = String.sub st.src start (st.pos - start) in
      let text =
        let n = String.length text in
        let rec strip i =
          if i > 0 && (match text.[i - 1] with
                       | 'l' | 'L' | 'u' | 'U' -> true
                       | _ -> false)
          then strip (i - 1)
          else i
        in
        String.sub text 0 (strip n)
      in
      Token.INT_LIT (int_of_string text)
    end
  end

(* [Token.keyword_table] hashed once: every identifier is looked up. *)
let keywords =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (text, kw) -> Hashtbl.replace tbl text kw) Token.keyword_table;
  tbl

let next_token st : Token.spanned =
  skip_trivia st;
  let start_pos = current_pos st in
  let mk tok = { Token.tok; span = span_from st start_pos } in
  match peek st with
  | None -> mk Token.EOF
  | Some c when is_ident_start c ->
      let start = st.pos in
      while (match peek st with Some c -> is_ident_char c | None -> false) do
        advance st
      done;
      let text = String.sub st.src start (st.pos - start) in
      (match Hashtbl.find_opt keywords text with
      | Some kw -> mk kw
      | None -> mk (Token.IDENT text))
  | Some c when is_digit c -> mk (lex_number st start_pos)
  | Some '\'' ->
      advance st;
      let c =
        match peek st with
        | Some '\\' -> lex_escape st start_pos
        | Some c ->
            advance st;
            c
        | None -> lex_error st start_pos "unterminated character literal"
      in
      (match peek st with
      | Some '\'' ->
          advance st;
          mk (Token.CHAR_LIT c)
      | Some _ | None -> lex_error st start_pos "unterminated character literal")
  | Some '"' ->
      advance st;
      let buf = Buffer.create 16 in
      let rec go () =
        match peek st with
        | Some '"' -> advance st
        | Some '\\' ->
            Buffer.add_char buf (lex_escape st start_pos);
            go ()
        | Some c ->
            advance st;
            Buffer.add_char buf c;
            go ()
        | None -> lex_error st start_pos "unterminated string literal"
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
      | c -> lex_error st start_pos "unexpected character '%c'" c)

(* telemetry instruments (no-ops unless collection is enabled) *)
let tokens_counter = Telemetry.Counter.make "lexer.tokens"
let recovered_counter = Telemetry.Counter.make "lexer.recovered_errors"

(* Tokenize a whole source buffer, including the trailing EOF token. *)
let tokenize ~file src : Token.spanned list =
  Telemetry.Span.with_ "lex" @@ fun () ->
  let st = make ~file src in
  let rec go acc =
    let t = next_token st in
    match t.Token.tok with
    | Token.EOF -> List.rev (t :: acc)
    | _ -> go (t :: acc)
  in
  let toks = go [] in
  Telemetry.Counter.add tokens_counter (List.length toks);
  toks

(* Keep-going lexing: a malformed token becomes a diagnostic in [diags],
   the offending character is skipped, and lexing continues — so one bad
   byte no longer hides every later error. *)
let tokenize_resilient ~diags ~file src : Token.spanned list =
  Telemetry.Span.with_ "lex" @@ fun () ->
  let st = make ~file src in
  let rec go acc =
    match next_token st with
    | t -> (
        match t.Token.tok with
        | Token.EOF -> List.rev (t :: acc)
        | _ -> go (t :: acc))
    | exception Source.Compile_error d ->
        Source.Diagnostics.emit diags d;
        Telemetry.Counter.incr recovered_counter;
        (* guarantee progress past the offending input *)
        if peek st <> None then advance st;
        go acc
  in
  let toks = go [] in
  Telemetry.Counter.add tokens_counter (List.length toks);
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
