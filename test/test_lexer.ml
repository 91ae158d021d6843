(* Lexer tests: token recognition, literals, comments, positions. *)

open Frontend

let toks src =
  Lexer.tokenize ~file:"t.mcc" src |> List.map (fun t -> t.Token.tok)

let tok_strings src = toks src |> List.map Token.to_string

let check_toks name src expected =
  Alcotest.(check (list string)) name expected (tok_strings src)

let t_keywords () =
  check_toks "keywords" "class struct union virtual static new delete"
    [ "class"; "struct"; "union"; "virtual"; "static"; "new"; "delete"; "<eof>" ]

let t_idents () =
  (* the last four extend a keyword: the whole word is looked up *)
  check_toks "identifiers" "foo _bar x1 classy new_ int2 _while"
    [ "foo"; "_bar"; "x1"; "classy"; "new_"; "int2"; "_while"; "<eof>" ]

(* every keyword comes from [Token.keyword_table], through the hashed
   lookup, as its own token *)
let t_keyword_table () =
  List.iter
    (fun (text, kw) ->
      Util.check_bool text true (toks text = [ kw; Token.EOF ]))
    Token.keyword_table

let t_int_literals () =
  match toks "0 42 0x1F 100L 7u" with
  | [ INT_LIT 0; INT_LIT 42; INT_LIT 31; INT_LIT 100; INT_LIT 7; EOF ] -> ()
  | _ -> Alcotest.fail "integer literals"

let t_float_literals () =
  match toks "1.5 0.25 2e3 1.5f" with
  | [ FLOAT_LIT a; FLOAT_LIT b; FLOAT_LIT c; FLOAT_LIT d; EOF ] ->
      Util.check_bool "values" true
        (a = 1.5 && b = 0.25 && c = 2000.0 && d = 1.5)
  | _ -> Alcotest.fail "float literals"

let t_char_literals () =
  match toks "'a' '\\n' '\\0' '\\\\'" with
  | [ CHAR_LIT 'a'; CHAR_LIT '\n'; CHAR_LIT '\000'; CHAR_LIT '\\'; EOF ] -> ()
  | _ -> Alcotest.fail "char literals"

let t_string_literals () =
  match toks {|"hello" "a\nb"|} with
  | [ STRING_LIT "hello"; STRING_LIT "a\nb"; EOF ] -> ()
  | _ -> Alcotest.fail "string literals"

let t_operators () =
  check_toks "operators" "+ - * / % ++ -- += -= == != <= >= << >> && || ::"
    [ "+"; "-"; "*"; "/"; "%"; "++"; "--"; "+="; "-="; "=="; "!="; "<=";
      ">="; "<<"; ">>"; "&&"; "||"; "::"; "<eof>" ]

let t_member_ptr_ops () =
  check_toks "member pointer operators" "a ->* b .* c -> d . e"
    [ "a"; "->*"; "b"; ".*"; "c"; "->"; "d"; "."; "e"; "<eof>" ]

let t_line_comment () =
  check_toks "line comment" "a // comment here\nb" [ "a"; "b"; "<eof>" ]

let t_block_comment () =
  check_toks "block comment" "a /* multi\nline */ b" [ "a"; "b"; "<eof>" ]

let t_preprocessor_skipped () =
  check_toks "preprocessor lines skipped" "#include <iostream>\nx"
    [ "x"; "<eof>" ]

let t_unterminated_comment () =
  Util.expect_error ~substr:"unterminated comment" (fun () ->
      toks "a /* never closed")

let t_unterminated_string () =
  Util.expect_error ~substr:"unterminated string" (fun () -> toks "\"abc")

let t_unexpected_char () =
  Util.expect_error ~substr:"unexpected character" (fun () -> toks "a @ b")

let t_positions () =
  let ts = Lexer.tokenize ~file:"t.mcc" "ab\n  cd" in
  match ts with
  | [ a; b; _eof ] ->
      let a = Source.start_pos a.Token.span and b = Source.start_pos b.Token.span in
      Util.check_int "a line" 1 a.line;
      Util.check_int "a col" 1 a.col;
      Util.check_int "b line" 2 b.line;
      Util.check_int "b col" 3 b.col
  | _ -> Alcotest.fail "expected two tokens"

(* Hex literals take the same ignored l/u suffixes as decimal ones. *)
let t_hex_suffixes () =
  match toks "0xFFu 0x10L 0x1fUL 0XaBl 0x7lu" with
  | [ INT_LIT 255; INT_LIT 16; INT_LIT 31; INT_LIT 171; INT_LIT 7; EOF ] -> ()
  | _ -> Alcotest.fail "hex literals with suffixes"

(* A numeric literal without a value is a located diagnostic over the
   whole literal (suffix included), never an escaped [Failure]. *)
let bad_literals =
  [
    ("x = 99999999999999999999;", "integer literal out of range", 5, 25);
    ("0x1FFFFFFFFFFFFFFFFF", "integer literal out of range", 1, 21);
    ("  0xFFFFFFFFFFFFFFFFu", "integer literal out of range", 3, 22);
    ("1e+", "malformed floating-point literal", 1, 4);
    ("y = 2.5e-f;", "malformed floating-point literal", 5, 11);
  ]

let t_bad_literals_strict () =
  List.iter
    (fun (src, msg, col, end_col) ->
      match Lexer.tokenize ~file:"t.mcc" src with
      | _ -> Alcotest.failf "%S lexed" src
      | exception Source.Compile_error d ->
          Alcotest.(check string) (src ^ ": message") msg d.Source.message;
          Util.check_int (src ^ ": line") 1 d.at.start_line;
          Util.check_int (src ^ ": col") col d.at.start_col;
          Util.check_int (src ^ ": end col") end_col d.at.end_col)
    bad_literals

(* Keep-going lexing reports each bad literal once and keeps it as a
   token with value 0, so the stream has the well-formed shape. *)
let t_bad_literals_resilient () =
  List.iter
    (fun (src, msg, col, _) ->
      let diags = Source.Diagnostics.create () in
      let ts = Lexer.tokenize_resilient ~diags ~file:"t.mcc" src in
      match Source.Diagnostics.to_list diags with
      | [ d ] ->
          Alcotest.(check string) (src ^ ": message") msg d.Source.message;
          Util.check_int (src ^ ": col") col d.at.start_col;
          Util.check_bool (src ^ ": literal kept") true
            (List.exists
               (fun (t : Token.spanned) ->
                 t.span.start_col = col
                 && (t.tok = Token.INT_LIT 0 || t.tok = Token.FLOAT_LIT 0.0))
               ts)
      | ds -> Alcotest.failf "%S: %d diagnostics" src (List.length ds))
    bad_literals

(* -- an independent span oracle ---------------------------------------------- *)

(* [(line, col)] of every byte offset of [src] (and of its end), from the
   text alone: line = 1 + the '\n's before the offset, col = offset - the
   start of that line + 1. *)
let line_cols src =
  let n = String.length src in
  let lines = Array.make (n + 1) 0 and cols = Array.make (n + 1) 0 in
  let line = ref 1 and bol = ref 0 in
  for off = 0 to n do
    lines.(off) <- !line;
    cols.(off) <- off - !bol + 1;
    if off < n && src.[off] = '\n' then begin
      incr line;
      bol := off + 1
    end
  done;
  (lines, cols)

(* What lies between two tokens: blanks, comments and preprocessor
   lines only. *)
let trivia gap =
  let g = String.trim gap in
  g = "" || g.[0] = '#' || String.starts_with ~prefix:"//" g
  || String.starts_with ~prefix:"/*" g

(* Every token's start and end (line, col) agree with its offsets, its
   text is what its kind prints as (or looks like its literal), tokens
   appear in order with only trivia between them, and equal identifier
   texts are one physical string. *)
let check_spans name src =
  let lines, cols = line_cols src in
  let n = String.length src in
  let ts = Lexer.tokenize ~file:name src in
  let names = Hashtbl.create 256 in
  let fail (t : Token.spanned) what =
    Alcotest.failf "%s: token %s at %s: %s" name (Token.to_string t.tok)
      (Source.span_to_string t.span) what
  in
  ignore
    (List.fold_left
       (fun prev (t : Token.spanned) ->
         let s = t.span in
         let a = s.start_offset and b = s.end_offset in
         if not (prev <= a && a <= b && b <= n) then fail t "offsets out of order";
         if not (trivia (String.sub src prev (a - prev))) then
           fail t "non-trivia before the token";
         if
           (s.start_line, s.start_col, s.end_line, s.end_col)
           <> (lines.(a), cols.(a), lines.(b), cols.(b))
         then fail t "line/col disagree with the offsets";
         let text = String.sub src a (b - a) in
         let first = if text = "" then ' ' else text.[0] in
         let ok =
           match t.tok with
           | Token.EOF -> a = n
           | Token.INT_LIT _ | Token.FLOAT_LIT _ ->
               first >= '0' && first <= '9'
           | Token.CHAR_LIT _ -> first = '\'' && text.[b - a - 1] = '\''
           | Token.STRING_LIT _ -> first = '"' && text.[b - a - 1] = '"'
           | Token.IDENT id ->
               (match Hashtbl.find_opt names id with
               | Some shared ->
                   if shared != id then fail t "identifier string not shared"
               | None -> Hashtbl.add names id id);
               text = id
           | tok -> text = Token.to_string tok
         in
         if not ok then fail t (Printf.sprintf "text %S" text);
         b)
       0 ts)

let t_span_oracle () =
  List.iter
    (fun (b : Benchmarks.Suite.t) -> check_spans b.name b.source)
    Benchmarks.Suite.all;
  let programs =
    Sys.readdir
      (Filename.concat (Filename.dirname Sys.executable_name) "../examples/corpus")
    |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".mcc")
  in
  let lexes f =
    match Lexer.tokenize ~file:f (Test_bytecode.corpus_source f) with
    | _ -> true
    | exception Source.Compile_error _ -> false
  in
  let lexed = List.filter lexes programs in
  (* all but the unterminated comment and the bad literals *)
  Util.check_int "corpus programs that lex" (List.length programs - 2)
    (List.length lexed);
  List.iter (fun f -> check_spans f (Test_bytecode.corpus_source f)) lexed;
  check_spans "synth_pta twin"
    (Benchmarks.Synth.source Test_pta_scale.synth_twin)

let t_count_code_lines () =
  let src = "int x;\n\n// only a comment\nint y;\n   \n" in
  Util.check_int "code lines" 2 (Lexer.count_code_lines src)

let t_null_keywords () =
  match toks "NULL nullptr" with
  | [ KW_NULL; KW_NULL; EOF ] -> ()
  | _ -> Alcotest.fail "NULL variants"

(* qcheck: lexing the printed form of an integer gives the value back *)
let prop_int_roundtrip =
  QCheck.Test.make ~name:"lexer int literal roundtrip" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun n ->
      match toks (string_of_int n) with
      | [ Token.INT_LIT m; Token.EOF ] -> m = n
      | _ -> false)

(* qcheck: identifiers survive lexing *)
let prop_ident_roundtrip =
  QCheck.Test.make ~name:"lexer identifier roundtrip" ~count:200
    QCheck.(string_gen_of_size (Gen.int_range 1 12) (Gen.char_range 'a' 'z'))
    (fun s ->
      QCheck.assume (not (List.mem_assoc s Token.keyword_table));
      match toks s with
      | [ Token.IDENT s'; Token.EOF ] -> s' = s
      | _ -> false)

let suite =
  [
    Util.test "keywords" t_keywords;
    Util.test "identifiers" t_idents;
    Util.test "every keyword_table entry" t_keyword_table;
    Util.test "integer literals" t_int_literals;
    Util.test "float literals" t_float_literals;
    Util.test "char literals" t_char_literals;
    Util.test "string literals" t_string_literals;
    Util.test "operators" t_operators;
    Util.test "member pointer operators" t_member_ptr_ops;
    Util.test "line comments" t_line_comment;
    Util.test "block comments" t_block_comment;
    Util.test "preprocessor lines" t_preprocessor_skipped;
    Util.test "unterminated comment error" t_unterminated_comment;
    Util.test "unterminated string error" t_unterminated_string;
    Util.test "unexpected character error" t_unexpected_char;
    Util.test "source positions" t_positions;
    Util.test "hex literal suffixes" t_hex_suffixes;
    Util.test "bad numeric literals are located errors" t_bad_literals_strict;
    Util.test "bad numeric literals: keep-going keeps them"
      t_bad_literals_resilient;
    Util.test "span oracle: ports, corpus, synth_pta twin" t_span_oracle;
    Util.test "code line counting" t_count_code_lines;
    Util.test "NULL keywords" t_null_keywords;
    QCheck_alcotest.to_alcotest prop_int_roundtrip;
    QCheck_alcotest.to_alcotest prop_ident_roundtrip;
  ]
