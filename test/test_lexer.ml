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
      let open Source in
      Util.check_int "a line" 1 a.Token.span.start_pos.line;
      Util.check_int "a col" 1 a.Token.span.start_pos.col;
      Util.check_int "b line" 2 b.Token.span.start_pos.line;
      Util.check_int "b col" 3 b.Token.span.start_pos.col
  | _ -> Alcotest.fail "expected two tokens"

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
    Util.test "code line counting" t_count_code_lines;
    Util.test "NULL keywords" t_null_keywords;
    QCheck_alcotest.to_alcotest prop_int_roundtrip;
    QCheck_alcotest.to_alcotest prop_ident_roundtrip;
  ]
