(* Tokens of the MiniC++ language.

   The subset mirrors 1998-era C++ as used by the paper's benchmarks:
   classes/structs/unions, inheritance (incl. [virtual]), virtual methods,
   constructors/destructors, pointers/references, [new]/[delete],
   pointer-to-member operators, C-style and named casts, and [sizeof]. *)

type t =
  (* literals and identifiers *)
  | INT_LIT of int
  | FLOAT_LIT of float
  | CHAR_LIT of char
  | STRING_LIT of string
  | IDENT of string
  (* keywords *)
  | KW_CLASS
  | KW_STRUCT
  | KW_UNION
  | KW_PUBLIC
  | KW_PRIVATE
  | KW_PROTECTED
  | KW_VIRTUAL
  | KW_STATIC
  | KW_CONST
  | KW_VOLATILE
  | KW_INT
  | KW_LONG
  | KW_SHORT
  | KW_CHAR
  | KW_BOOL
  | KW_FLOAT
  | KW_DOUBLE
  | KW_VOID
  | KW_UNSIGNED
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_DO
  | KW_FOR
  | KW_RETURN
  | KW_BREAK
  | KW_CONTINUE
  | KW_NEW
  | KW_DELETE
  | KW_THIS
  | KW_SIZEOF
  | KW_TRUE
  | KW_FALSE
  | KW_NULL
  | KW_STATIC_CAST
  | KW_DYNAMIC_CAST
  | KW_REINTERPRET_CAST
  | KW_CONST_CAST
  | KW_ENUM
  | KW_TYPEDEF
  (* punctuation / operators *)
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | SEMI
  | COMMA
  | COLON
  | COLONCOLON
  | QUESTION
  | DOT
  | ARROW
  | DOTSTAR
  | ARROWSTAR
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | PLUSPLUS
  | MINUSMINUS
  | EQ
  | PLUSEQ
  | MINUSEQ
  | STAREQ
  | SLASHEQ
  | PERCENTEQ
  | AMPEQ
  | PIPEEQ
  | CARETEQ
  | SHLEQ
  | SHREQ
  | EQEQ
  | BANGEQ
  | LT
  | GT
  | LE
  | GE
  | SHL
  | SHR
  | AMPAMP
  | PIPEPIPE
  | BANG
  | TILDE
  | AMP
  | PIPE
  | CARET
  | EOF

let keyword_table : (string * t) list =
  [
    ("class", KW_CLASS);
    ("struct", KW_STRUCT);
    ("union", KW_UNION);
    ("public", KW_PUBLIC);
    ("private", KW_PRIVATE);
    ("protected", KW_PROTECTED);
    ("virtual", KW_VIRTUAL);
    ("static", KW_STATIC);
    ("const", KW_CONST);
    ("volatile", KW_VOLATILE);
    ("int", KW_INT);
    ("long", KW_LONG);
    ("short", KW_SHORT);
    ("char", KW_CHAR);
    ("bool", KW_BOOL);
    ("float", KW_FLOAT);
    ("double", KW_DOUBLE);
    ("void", KW_VOID);
    ("unsigned", KW_UNSIGNED);
    ("if", KW_IF);
    ("else", KW_ELSE);
    ("while", KW_WHILE);
    ("do", KW_DO);
    ("for", KW_FOR);
    ("return", KW_RETURN);
    ("break", KW_BREAK);
    ("continue", KW_CONTINUE);
    ("new", KW_NEW);
    ("delete", KW_DELETE);
    ("this", KW_THIS);
    ("sizeof", KW_SIZEOF);
    ("true", KW_TRUE);
    ("false", KW_FALSE);
    ("NULL", KW_NULL);
    ("nullptr", KW_NULL);
    ("static_cast", KW_STATIC_CAST);
    ("dynamic_cast", KW_DYNAMIC_CAST);
    ("reinterpret_cast", KW_REINTERPRET_CAST);
    ("const_cast", KW_CONST_CAST);
    ("enum", KW_ENUM);
    ("typedef", KW_TYPEDEF);
  ]

let to_string = function
  | INT_LIT n -> string_of_int n
  | FLOAT_LIT f -> string_of_float f
  | CHAR_LIT c -> Printf.sprintf "'%c'" c
  | STRING_LIT s -> Printf.sprintf "%S" s
  | IDENT s -> s
  | KW_CLASS -> "class"
  | KW_STRUCT -> "struct"
  | KW_UNION -> "union"
  | KW_PUBLIC -> "public"
  | KW_PRIVATE -> "private"
  | KW_PROTECTED -> "protected"
  | KW_VIRTUAL -> "virtual"
  | KW_STATIC -> "static"
  | KW_CONST -> "const"
  | KW_VOLATILE -> "volatile"
  | KW_INT -> "int"
  | KW_LONG -> "long"
  | KW_SHORT -> "short"
  | KW_CHAR -> "char"
  | KW_BOOL -> "bool"
  | KW_FLOAT -> "float"
  | KW_DOUBLE -> "double"
  | KW_VOID -> "void"
  | KW_UNSIGNED -> "unsigned"
  | KW_IF -> "if"
  | KW_ELSE -> "else"
  | KW_WHILE -> "while"
  | KW_DO -> "do"
  | KW_FOR -> "for"
  | KW_RETURN -> "return"
  | KW_BREAK -> "break"
  | KW_CONTINUE -> "continue"
  | KW_NEW -> "new"
  | KW_DELETE -> "delete"
  | KW_THIS -> "this"
  | KW_SIZEOF -> "sizeof"
  | KW_TRUE -> "true"
  | KW_FALSE -> "false"
  | KW_NULL -> "NULL"
  | KW_STATIC_CAST -> "static_cast"
  | KW_DYNAMIC_CAST -> "dynamic_cast"
  | KW_REINTERPRET_CAST -> "reinterpret_cast"
  | KW_CONST_CAST -> "const_cast"
  | KW_ENUM -> "enum"
  | KW_TYPEDEF -> "typedef"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | SEMI -> ";"
  | COMMA -> ","
  | COLON -> ":"
  | COLONCOLON -> "::"
  | QUESTION -> "?"
  | DOT -> "."
  | ARROW -> "->"
  | DOTSTAR -> ".*"
  | ARROWSTAR -> "->*"
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | PLUSPLUS -> "++"
  | MINUSMINUS -> "--"
  | EQ -> "="
  | PLUSEQ -> "+="
  | MINUSEQ -> "-="
  | STAREQ -> "*="
  | SLASHEQ -> "/="
  | PERCENTEQ -> "%="
  | AMPEQ -> "&="
  | PIPEEQ -> "|="
  | CARETEQ -> "^="
  | SHLEQ -> "<<="
  | SHREQ -> ">>="
  | EQEQ -> "=="
  | BANGEQ -> "!="
  | LT -> "<"
  | GT -> ">"
  | LE -> "<="
  | GE -> ">="
  | SHL -> "<<"
  | SHR -> ">>"
  | AMPAMP -> "&&"
  | PIPEPIPE -> "||"
  | BANG -> "!"
  | TILDE -> "~"
  | AMP -> "&"
  | PIPE -> "|"
  | CARET -> "^"
  | EOF -> "<eof>"

(* Called for every parser [accept], [expect] and lookahead, so no
   polymorphic compare: a payload compares its payload ([FLOAT_LIT] with
   float [=], so a NaN literal is unequal to itself) and a constant
   constructor is its immediate. *)
let equal (a : t) (b : t) =
  match (a, b) with
  | INT_LIT x, INT_LIT y -> x = y
  | FLOAT_LIT x, FLOAT_LIT y -> x = y
  | CHAR_LIT x, CHAR_LIT y -> x = y
  | STRING_LIT x, STRING_LIT y | IDENT x, IDENT y -> String.equal x y
  | _ -> a == b

type spanned = { tok : t; span : Source.span }
