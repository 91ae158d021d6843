(* CLI contract tests, run against the real binary:

   - the exhaustive exit-code table: every subcommand, every outcome
     class, pinned to the documented 0/1/2/3 contract (with `run`'s
     documented exception: it exits with the guest program's return
     value) — including cmdliner-internal codes (bad enum values used
     to leak exit 124) folded into the usage code;

   - the `check --jobs N` differential: parallel batch output
     (stdout, stderr, exit code) must be byte-identical to a
     sequential run, including failing files, duplicate files and
     deterministic randomized batches;

   - the shape of `precision --format=json`: every points-to tier's
     `solver` object has exactly the documented keys;

   - one front door: on every port, the daemon's check, analyze, run,
     explain and precision answers say what the subcommands print. *)

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* The CLI is a declared dep one directory over from the test
   executable; resolving against the executable (not the cwd) keeps the
   suite working under both `dune runtest` and `dune exec`. *)
let exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/deadmem_cli.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let temp_src =
  let n = ref 0 in
  fun contents ->
    incr n;
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "deadmem_cli_test_%d_%d.mcc" (Unix.getpid ()) !n)
    in
    write_file path contents;
    at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
    path

(* Run the CLI via /bin/sh, capturing the exit code (stdout/stderr
   discarded). [Sys.command] returns 127 for exec failures, which no
   contract code uses, so a missing binary fails loudly. *)
let exit_of args =
  Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" exe args)

(* [env] is prefixed to the command line, as [NAME=value ...]. *)
let run_capture ?(env = "") args =
  let out = Filename.temp_file "deadmem_out" ".txt" in
  let err = Filename.temp_file "deadmem_err" ".txt" in
  let code =
    Sys.command (Printf.sprintf "%s%s %s >%s 2>%s" env exe args out err)
  in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

let valid_src =
  "class P { public: int x; int y; int get() { return x; } };\n\
   int main() { P p; return 0; }\n"

let broken_src = "class A { int x; ;;; garbage here\nint main( { return }\n"
let loop_src = "int f(int n) { return f(n); }\nint main() { return f(0); }\n"
let ret7_src = "int main() { return 7; }\n"

let abort_init_src =
  "int f() { abort(); return 1; }\nint g = f();\nint main() { return 0; }\n"

let huge_new_src =
  "int main() { int *p = new int[100000000000000000]; return 0; }\n"

(* the step limit hits again in [g]'s destructor as the error unwinds *)
let unwind_src =
  "class G { public: ~G() { } };\nint main() { G g; while (1) { } return 0; }\n"

(* -- the exit-code table ------------------------------------------------------ *)

let t_exit_codes () =
  let valid = temp_src valid_src in
  let broken = temp_src broken_src in
  let deep = temp_src loop_src in
  let ret7 = temp_src ret7_src in
  let unwind = temp_src unwind_src in
  let abort_init = temp_src abort_init_src in
  let huge_new = temp_src huge_new_src in
  let declarators =
    Filename.concat (Filename.dirname Sys.executable_name) "../examples/corpus/declarators.mcc"
  in
  let q = Filename.quote in
  let cases =
    [
      (* analyze: 0 / 1 / 2 *)
      ("analyze " ^ q valid, 0);
      ("analyze --verbose --callgraph=pta " ^ q valid, 0);
      ("analyze " ^ q broken, 1);
      ("analyze --keep-going " ^ q broken, 1);
      ("analyze no/such/file.mcc", 2);
      ("analyze --callgraph=psychic " ^ q valid, 2) (* used to exit 124 *);
      ("analyze", 2);
      (* function-pointer globals and fields, under every tier *)
      ("analyze --callgraph=cha " ^ q declarators, 0);
      ("analyze --callgraph=rta " ^ q declarators, 0);
      ("analyze --callgraph=pta " ^ q declarators, 0);
      ("analyze --callgraph=pta1 " ^ q declarators, 0);
      (* explain *)
      ("explain P::y " ^ q valid, 0);
      ("explain nocolons " ^ q valid, 2);
      ("explain Ghost::haunt " ^ q valid, 2);
      ("explain P::y " ^ q broken, 1);
      ("explain P::y no/such/file.mcc", 2);
      (* check: diagnostics are the payload, so broken input exits 1 *)
      ("check " ^ q valid, 0);
      ("check " ^ q broken, 1);
      ("check " ^ q valid ^ " " ^ q broken, 1);
      ("check no/such/file.mcc", 2);
      ("check --format=json " ^ q broken, 1);
      ("check --format=yaml " ^ q valid, 2) (* used to exit 124 *);
      ("check --jobs=4 " ^ q valid ^ " " ^ q broken, 1);
      (* run: documented exception — guest return value; 3 on limits *)
      ("run " ^ q ret7, 7);
      ("run " ^ q valid, 0);
      ("run " ^ q deep, 3);
      ("run --step-limit=100 " ^ q valid, 0);
      ("run --step-limit=1 " ^ q ret7, 3) (* guest needs more steps *);
      ("run --step-limit=1000 " ^ q unwind, 3)
      (* used to exit 2: an uncaught Fun.Finally_raised *);
      ("run --engine=jit " ^ q ret7, 2) (* used to exit 124 *);
      ("run " ^ q abort_init, 134) (* used to exit 2: abort() escaped *);
      ("run --engine=tree " ^ q abort_init, 134);
      ("run " ^ q huge_new, 3) (* used to exit 2: Invalid_argument *);
      ("run --engine=tree " ^ q huge_new, 3);
      ("run no/such/file.mcc", 2);
      ("run " ^ q broken, 1);
      (* callgraph / strip *)
      ("callgraph " ^ q valid, 0);
      ("callgraph --dot " ^ q valid, 0);
      ("callgraph no/such/file.mcc", 2);
      ("strip " ^ q valid, 0);
      ("strip " ^ q broken, 1);
      ("strip no/such/file.mcc", 2);
      (* profile: a non-positive --top is a usage error *)
      ("profile " ^ q ret7, 0);
      ("profile --top=0 " ^ q ret7, 2);
      ("profile --top=-3 --bench richards", 2);
      (* an unknown benchmark name is a usage error *)
      ("profile --bench frobnicate", 2);
      ("bench richards", 0);
      ("bench frobnicate", 2);
      (* precision: no inputs to get wrong except flags *)
      ("precision --format=json", 0);
      ("precision --format=yaml", 2);
      (* serve: flag errors must respect the contract too *)
      ("serve --jobs=banana", 2);
      (* toplevel *)
      ("frobnicate", 2);
      ("--help", 0);
      ("--version", 0);
      ("", 2);
    ]
  in
  List.iter
    (fun (args, want) ->
      check_int ("deadmem " ^ args) want (exit_of args))
    cases

(* -- check --jobs differential ------------------------------------------------ *)

let diff_batch name files =
  let args fmt jobs =
    Printf.sprintf "check --format=%s --jobs=%d %s" fmt jobs
      (String.concat " " (List.map Filename.quote files))
  in
  List.iter
    (fun fmt ->
      let c1, o1, e1 = run_capture (args fmt 1) in
      let c4, o4, e4 = run_capture (args fmt 4) in
      check_int (name ^ " " ^ fmt ^ ": exit codes agree") c1 c4;
      check_string (name ^ " " ^ fmt ^ ": stdout identical") o1 o4;
      check_string (name ^ " " ^ fmt ^ ": stderr identical") e1 e4)
    [ "text"; "json" ]

let t_jobs_differential () =
  let valid = temp_src valid_src in
  let broken = temp_src broken_src in
  let dead =
    temp_src
      "class D { public: int used; int unused; };\n\
       int main() { D d; d.used = 1; return d.used; }\n"
  in
  diff_batch "mixed batch"
    [ valid; broken; dead; valid; "no/such/file.mcc"; broken; dead ];
  diff_batch "duplicates" [ valid; valid; valid; valid ]

(* Randomized batches, deterministic seed: file pool mixes clean,
   broken and missing files; every batch must be order-stable and
   byte-identical between sequential and parallel runs. *)
let t_jobs_differential_randomized () =
  let pool =
    [|
      temp_src valid_src;
      temp_src broken_src;
      temp_src "int main() { return 1 / 0; }\n" (* compiles; check is static *);
      temp_src "class A { public: int x; };\nint main() { A a; return a.x; }\n";
      "no/such/file.mcc";
    |]
  in
  let rand = Random.State.make [| 0xba7c4; 42 |] in
  for round = 1 to 4 do
    let len = 3 + Random.State.int rand 8 in
    let files =
      List.init len (fun _ -> pool.(Random.State.int rand (Array.length pool)))
    in
    diff_batch (Printf.sprintf "random batch %d" round) files
  done

(* -- precision --format=json shape ---------------------------------------------- *)

let t_precision_json () =
  let module J = Telemetry.Json in
  let code, out, _ = run_capture "precision --format=json" in
  check_int "precision exits 0" 0 code;
  let rows =
    match J.parse out with
    | Ok (J.Arr rows) -> rows
    | Ok _ -> Alcotest.fail "precision JSON is not an array"
    | Error m -> Alcotest.failf "precision output is not JSON: %s" m
  in
  check_int "one row per benchmark" 11 (List.length rows);
  let want =
    [ "constraints"; "contexts"; "delta_props"; "fallback_sites"; "solver_iters" ]
  in
  List.iter
    (fun row ->
      List.iter
        (fun tier ->
          match Option.bind (J.member tier row) (J.member "solver") with
          | Some (J.Obj kvs) ->
              Alcotest.(check (list string))
                (tier ^ " solver keys") want
                (List.sort compare (List.map fst kvs))
          | _ -> Alcotest.failf "%s row lacks a solver object" tier)
        [ "pta"; "pta1" ])
    rows

(* -- the CLI and the daemon answer alike --------------------------------------- *)

module J = Telemetry.Json

(* The daemon's answer to one request, run in-process: the raw response
   line and its parsed [result]. *)
let daemon cmd fields =
  let line =
    Printf.sprintf {|{"id":"x","cmd":"%s"%s}|} cmd
      (String.concat ""
         (List.map (fun (k, v) -> "," ^ Server.Protocol.jstr k ^ ":" ^ v) fields))
  in
  let req =
    match Server.Protocol.parse_request ~max_depth:64 line with
    | Ok r -> r
    | Error (_, _, m) -> Alcotest.failf "bad request %s: %s" line m
  in
  let resp =
    Server.Serve.execute Server.Serve.default_config req
      ~enqueued:(Unix.gettimeofday ())
  in
  match Result.map (J.member "result") (J.parse resp) with
  | Ok (Some r) -> (resp, r)
  | _ -> Alcotest.failf "daemon %s failed: %s" cmd resp

let field r k =
  match J.member k r with
  | Some v -> v
  | None -> Alcotest.failf "no field %s" k

let int_field r k =
  match J.to_int (field r k) with
  | Some n -> n
  | None -> Alcotest.failf "field %s is not an integer" k

let str_field r k =
  match field r k with
  | J.Str s -> s
  | _ -> Alcotest.failf "field %s is not a string" k

let json_out what out =
  match J.parse out with
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: not JSON (%s): %s" what m out

let lines s = String.split_on_char '\n' s

(* [s] with every [sub] replaced by [by] *)
let replace_all ~sub ~by s =
  let b = Buffer.create (String.length s) and n = String.length sub in
  let rec go i =
    if i > String.length s - n then
      Buffer.add_string b (String.sub s i (String.length s - i))
    else if String.sub s i n = sub then begin
      Buffer.add_string b by;
      go (i + n)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

let check_port (b : Benchmarks.Suite.t) =
  let name = b.name in
  let file = temp_src b.source in
  let q = Filename.quote file in
  let src = [ ("source", Server.Protocol.jstr b.source) ] in
  (* check against check --format=json *)
  let _, out, _ = run_capture ("check --format=json " ^ q) in
  let cli = json_out (name ^ " check") out in
  let _, d = daemon "check" src in
  List.iter
    (fun k ->
      Alcotest.(check bool) (name ^ " check " ^ k) true (field cli k = field d k))
    [ "errors"; "suppressed"; "unknown_regions"; "dead_members"; "diagnostics" ];
  (* analyze: the dead list and the report's numbers *)
  let _, out, _ = run_capture ("analyze " ^ q) in
  let _, d = daemon "analyze" src in
  let dead =
    List.filter_map
      (fun l ->
        if String.starts_with ~prefix:"DEAD " l then
          Some (String.sub l 5 (String.length l - 5))
        else None)
      (lines out)
  in
  let dead_d =
    match field d "dead_members" with
    | J.Arr vs -> List.map (function J.Str s -> s | _ -> "?") vs
    | _ -> Alcotest.fail "dead_members is not an array"
  in
  Alcotest.(check (list string)) (name ^ " analyze dead list") dead dead_d;
  let report =
    List.find (String.starts_with ~prefix:"classes: ") (lines out)
  in
  Scanf.sscanf report
    "classes: %d (%d used), members in used classes: %d, dead: %d (%f%%)"
    (fun classes used members dead_in_used pct ->
      check_int (name ^ " num_classes") classes (int_field d "num_classes");
      check_int (name ^ " num_used_classes") used (int_field d "num_used_classes");
      check_int (name ^ " members_in_used") members (int_field d "members_in_used");
      check_int (name ^ " dead_in_used") dead_in_used (int_field d "dead_in_used");
      match field d "dead_pct" with
      | J.Num f -> Alcotest.(check (float 0.05)) (name ^ " dead_pct") pct f
      | _ -> Alcotest.fail "dead_pct is not a number");
  (* run: return value, steps, output and snapshot *)
  let code, out, _ = run_capture ("run " ^ q) in
  let _, d = daemon "run" src in
  let rv = int_field d "return_value" and steps = int_field d "steps" in
  check_int (name ^ " run exit code") code (rv land 255);
  let head =
    Printf.sprintf "%s\n-- exit %d after %d steps --\n" (str_field d "output") rv
      steps
  in
  Alcotest.(check bool) (name ^ " run output, exit and steps") true
    (String.starts_with ~prefix:head out);
  let snap = field d "snapshot" in
  Scanf.sscanf
    (String.sub out (String.length head) (String.length out - String.length head))
    "object space: %d bytes (%d objects), dead member space: %d (%f%%), HWM: %d, HWM w/o dead: %d"
    (fun space objects dead_space _ hwm hwm_reduced ->
      List.iter
        (fun (k, v) -> check_int (name ^ " snapshot " ^ k) v (int_field snap k))
        [
          ("object_space", space); ("num_objects", objects);
          ("dead_space", dead_space); ("high_water_mark", hwm);
          ("high_water_mark_reduced", hwm_reduced);
        ]);
  (* explain one dead and one live member: the same explanation text *)
  let _, verbose, _ = run_capture ("analyze -v " ^ q) in
  let live =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l |> List.filter (( <> ) "") with
        | [ m; "live" ] -> Some m
        | _ -> None)
      (lines verbose)
  in
  List.iter
    (fun m ->
      let _, out, _ = run_capture (Printf.sprintf "explain %s %s" m q) in
      let _, d = daemon "explain" (("member", Server.Protocol.jstr m) :: src) in
      (* locations name the file; the daemon's is "<request>" *)
      check_string (name ^ " explain " ^ m)
        (replace_all ~sub:file ~by:"<request>" out)
        (str_field d "explanation"))
    (List.filter_map Fun.id [ List.nth_opt dead 0; live ])

let t_cli_daemon_agree () =
  List.iter check_port Benchmarks.Suite.all;
  let _, out, _ = run_capture "precision --format=json" in
  let resp, _ = daemon "precision" [] in
  let want = {|"result":{"benchmarks":|} ^ String.trim out ^ "}}" in
  if not (String.ends_with ~suffix:want resp) then
    Alcotest.failf "precision: the benchmarks array is not the CLI's JSON:\n%s\n%s"
      resp out

(* Text [check] prints every diagnostic [--format=json] reports, as
   [file:line:col-col: error: message]; a short one once went missing
   from the text, leaving only the error count. *)
let t_check_text_lists_diagnostics () =
  let f = temp_src "int main() { return x; }\n" in
  let _, json, _ = run_capture ("check --format=json " ^ Filename.quote f) in
  let code, text, _ = run_capture ("check " ^ Filename.quote f) in
  check_int "exit" 1 code;
  let diags =
    match J.to_list (field (json_out "check --format=json" json) "diagnostics") with
    | Some ds -> ds
    | None -> Alcotest.fail "diagnostics is not a list"
  in
  check_int "one diagnostic" 1 (List.length diags);
  List.iter
    (fun d ->
      let line =
        Printf.sprintf "%s:%d:%d-%d: error: %s" f (int_field d "line") (int_field d "col")
          (int_field d "end_col") (str_field d "message")
      in
      if not (List.mem line (lines text)) then
        Alcotest.failf "text check does not print %S:\n%s" line text)
    diags

(* A syntax error that swallows [main] is the one error reported: the
   missing [main] follows from it. It was reported first, with no
   location, before the line-7 error that caused it. *)
let t_parse_error_hides_missing_main () =
  let f =
    Filename.concat (Filename.dirname Sys.executable_name)
      "../examples/corpus/unbalanced_braces.mcc"
  in
  let code, json, _ = run_capture ("check --format=json " ^ Filename.quote f) in
  check_int "exit" 1 code;
  match J.to_list (field (json_out "check --format=json" json) "diagnostics") with
  | Some [ d ] ->
      check_int "line" 7 (int_field d "line");
      check_string "message" "expected ';' but found '{'" (str_field d "message")
  | Some ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)
  | None -> Alcotest.fail "diagnostics is not a list"

(* [++]/[--] on a bool is a located error: both engines used to run
   [b++] and print 2. *)
let t_check_bool_step () =
  let f =
    temp_src "int main() {\n  bool b = true;\n  b++;\n  print_int(b);\n  return 0;\n}\n"
  in
  let code, json, _ = run_capture ("check --format=json " ^ Filename.quote f) in
  check_int "exit" 1 code;
  match J.to_list (field (json_out "check --format=json" json) "diagnostics") with
  | Some [ d ] ->
      check_int "line" 3 (int_field d "line");
      check_int "col" 4 (int_field d "col");
      check_int "end_col" 6 (int_field d "end_col");
      check_string "message" "operand of ++ must not be 'bool'" (str_field d "message")
  | Some ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)
  | None -> Alcotest.fail "diagnostics is not a list"

(* An out-of-class static member initializer is a located error on
   [check] and [run], and the daemon's [check] answers as the CLI's: both
   used to accept [int A::s = 5;] and [run] printed 0. *)
let t_static_member_initializer () =
  let src =
    "class A { public: static int s; };\nint A::s = 5;\n\
     int main() { print_int(A::s); return 0; }\n"
  in
  let f = temp_src src in
  let code, json, _ = run_capture ("check --format=json " ^ Filename.quote f) in
  check_int "check exit" 1 code;
  let cli = json_out "check --format=json" json in
  (match J.to_list (field cli "diagnostics") with
  | Some [ d ] ->
      check_int "line" 2 (int_field d "line");
      check_int "col" 10 (int_field d "col");
      check_string "message"
        "static member 'A::s' cannot have an initializer in MiniC++"
        (str_field d "message")
  | Some ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)
  | None -> Alcotest.fail "diagnostics is not a list");
  let code, out, _ = run_capture ("run " ^ Filename.quote f) in
  check_int "run exit" 1 code;
  check_string "run prints nothing" "" out;
  (* the daemon's diagnostics name the file "<request>" *)
  let cli = json_out "check" (replace_all ~sub:f ~by:"<request>" json) in
  let _, d = daemon "check" [ ("source", Server.Protocol.jstr src) ] in
  List.iter
    (fun k ->
      Alcotest.(check bool) ("daemon check " ^ k) true (field cli k = field d k))
    [ "errors"; "suppressed"; "unknown_regions"; "dead_members"; "diagnostics" ]

(* A static member named through a call's result is a located error
   (the call would be dropped), in the CLI and the daemon alike; named
   through an object with a qualified name it runs, under both
   engines. *)
let t_static_member_through_call () =
  let src =
    "class A { public: static int s; };\nint A::s;\n\
     A* make() { print_int(7); return new A(); }\n\
     int main() { int t = make()->s; print_int(t); return 0; }\n"
  in
  let f = temp_src src in
  let code, json, _ = run_capture ("check --format=json " ^ Filename.quote f) in
  check_int "check exit" 1 code;
  let cli = json_out "check --format=json" json in
  (match J.to_list (field cli "diagnostics") with
  | Some [ d ] ->
      check_int "line" 4 (int_field d "line");
      check_int "col" 28 (int_field d "col");
      check_string "message"
        "static member 'A::s' named through an expression with side \
         effects; write 'A::s'"
        (str_field d "message")
  | Some ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)
  | None -> Alcotest.fail "diagnostics is not a list");
  let code, out, _ = run_capture ("run " ^ Filename.quote f) in
  check_int "run exit" 1 code;
  check_string "run prints nothing" "" out;
  let cli = json_out "check" (replace_all ~sub:f ~by:"<request>" json) in
  let _, d = daemon "check" [ ("source", Server.Protocol.jstr src) ] in
  List.iter
    (fun k ->
      Alcotest.(check bool) ("daemon check " ^ k) true (field cli k = field d k))
    [ "errors"; "suppressed"; "unknown_regions"; "dead_members"; "diagnostics" ];
  let f =
    temp_src
      "class A { public: static int s; int x; };\n\
       class B : public A { public: int y; };\nint A::s;\n\
       int main() { B* p = new B(); A a; p->A::s = 4; a.A::s += 1;\n\
       print_int(A::s); return 0; }\n"
  in
  List.iter
    (fun engine ->
      let code, out, _ =
        run_capture ("run --engine=" ^ engine ^ " " ^ Filename.quote f)
      in
      check_int (engine ^ " exit") 0 code;
      Alcotest.(check bool)
        (engine ^ " prints 5") true
        (String.starts_with ~prefix:"5\n" out))
    [ "bytecode"; "tree" ]

(* A cold process never collects: [--version] and a [check --format=json]
   of every port allocate less than the default minor heap holds, so the
   exit statistics that [OCAMLRUNPARAM=v=0x400] prints (set here,
   whatever the environment says) must read zero minor and zero major
   collections. A module initialiser or a per-parse copy that builds an
   array of more than 256 words from a young element forces a
   collection and fails this. *)
let t_cold_check_never_collects () =
  let collections what args =
    let code, _, err = run_capture ~env:"OCAMLRUNPARAM=v=0x400 " args in
    let stat key =
      let prefix = key ^ ": " in
      match List.find_opt (String.starts_with ~prefix) (lines err) with
      | Some l ->
          int_of_string
            (String.sub l (String.length prefix) (String.length l - String.length prefix))
      | None -> Alcotest.failf "%s: no %s in stderr:\n%s" what key err
    in
    check_int (what ^ " exit") 0 code;
    check_int (what ^ " minor_collections") 0 (stat "minor_collections");
    check_int (what ^ " major_collections") 0 (stat "major_collections")
  in
  collections "--version" "--version";
  List.iter
    (fun (b : Benchmarks.Suite.t) ->
      collections b.name ("check --format=json " ^ Filename.quote (temp_src b.source)))
    Benchmarks.Suite.all

(* [--bench] and a FILE together are one usage error, not a profile of
   the benchmark that ignores the file. *)
let t_profile_bench_and_file () =
  let code, out, err =
    run_capture ("profile --bench richards " ^ Filename.quote (temp_src ret7_src))
  in
  check_int "exit" 2 code;
  check_string "stdout" "" out;
  check_string "stderr" "error: provide a FILE or --bench NAME, not both\n" err

(* [analyze] reports the first error in the source, whatever the
   functions are called and whichever kind they are. *)
let t_analyze_first_error () =
  List.iter
    (fun (name, src, line) ->
      let f = temp_src src in
      let code, out, err = run_capture ("analyze " ^ Filename.quote f) in
      check_int (name ^ ": exit") 1 code;
      check_string (name ^ ": stdout") "" out;
      check_string (name ^ ": stderr")
        (Printf.sprintf "%s:%s: error: unknown identifier 'nope1'\n" f line)
        err)
    [
      ( "zeta before alpha",
        "int zeta() { return nope1; }\nint alpha() { return nope2; }\n\
         int main() { return 0; }\n",
        "1:21-26" );
      ( "a method before a free function",
        "class A { public: int m() { return nope1; } };\n\
         int alpha() { return nope2; }\nint main() { return 0; }\n",
        "1:36-41" );
    ]

(* The three limits are counts: a negative one is a usage error that
   names its flag, on [run], [profile] and [serve] alike. *)
let t_negative_limits () =
  let f = Filename.quote (temp_src ret7_src) in
  List.iter
    (fun (cmd, flag, file) ->
      let args = Printf.sprintf "%s --%s=-1 %s" cmd flag file in
      let code, out, err = run_capture ("</dev/null " ^ args) in
      check_int (args ^ ": exit") 2 code;
      check_string (args ^ ": stdout") "" out;
      Util.check_bool (args ^ ": names the flag") true
        (Util.contains_sub err
           ~sub:(Printf.sprintf "option '--%s': invalid value '-1'" flag)))
    [
      ("run", "step-limit", f);
      ("run", "call-depth-limit", f);
      ("run", "object-limit", f);
      ("profile", "step-limit", f);
      ("serve", "object-limit", "");
    ];
  check_int "run --step-limit=-5" 2 (exit_of ("run --step-limit=-5 " ^ f));
  check_int "run --step-limit=0 is still a limit" 3
    (exit_of ("run --step-limit=0 " ^ f))

(* [check --jobs], [serve --jobs] and [serve --queue-cap] are counts of
   at least 1: a smaller value is a usage error that names its flag,
   where it used to be rounded up to 1 without a word. The daemon gets
   an empty stdin, so a value that were accepted would start it and see
   it exit 0 at once. Only values the parser rejects run here, besides
   [check]'s largest, 128 (one file needs no extra domain). *)
let t_out_of_range_counts () =
  let f = Filename.quote (temp_src ret7_src) in
  List.iter
    (fun (cmd, flag, value) ->
      let args = Printf.sprintf "%s --%s=%s" cmd flag value in
      let code, out, err = run_capture ("</dev/null " ^ args) in
      check_int (args ^ ": exit") 2 code;
      check_string (args ^ ": stdout") "" out;
      Util.check_bool (args ^ ": names the flag") true
        (Util.contains_sub err
           ~sub:(Printf.sprintf "option '--%s': invalid value '%s'" flag value)))
    [
      ("check " ^ f, "jobs", "0");
      ("check " ^ f, "jobs", "-1");
      ("serve", "jobs", "0");
      ("serve", "jobs", "-2");
      ("serve", "queue-cap", "0");
    ];
  check_int "check --jobs=128" 0 (exit_of ("check --jobs=128 " ^ f))

(* A limit of 0 is 0: the first step, call or object exceeds it, and
   the message names 0. A program that allocates nothing finishes under [--object-limit=0],
   and its snapshot names the limit. Both engines agree on all of it. *)
let t_zero_limits () =
  let one_obj =
    Filename.quote
      (temp_src "class A { public: int x; };\nint main() { A* a = new A(); return 7; }\n")
  in
  let ret7 = Filename.quote (temp_src ret7_src) in
  let both args =
    let tree = run_capture ("run --engine=tree " ^ args) in
    let vm = run_capture ("run --engine=bytecode " ^ args) in
    Alcotest.(check (triple int string string)) (args ^ ": engines agree") tree vm;
    tree
  in
  List.iter
    (fun (flag, what) ->
      let args = Printf.sprintf "--%s=0 %s" flag one_obj in
      let code, out, err = both args in
      check_int (args ^ ": exit") 3 code;
      check_string (args ^ ": stdout") "" out;
      Util.check_bool (args ^ ": names 0") true
        (String.starts_with
           ~prefix:(Printf.sprintf "resource limit: %s limit exceeded (0)" what)
           err))
    [ ("step-limit", "step"); ("call-depth-limit", "call depth");
      ("object-limit", "object") ];
  let code, out, _ = both ("--object-limit=0 " ^ ret7) in
  check_int "no objects under --object-limit=0: exit" 7 code;
  Util.check_bool "the snapshot names the 0 object limit" true
    (Util.contains_sub out ~sub:", 0 objects]")

(* On Linux the CLI links statically (bin/dune), so its ELF program
   headers must not request a program interpreter (a [PT_INTERP] entry,
   [p_type] 3): every cold start would map the dynamic loader first.
   Other systems link as before. *)
let t_static_link () =
  if Ocaml_system.system <> "linux" then Alcotest.skip ();
  let b = read_file exe in
  check_string "ELF magic" "\x7fELF" (String.sub b 0 4);
  let elf64 = b.[4] = '\002' and le = b.[5] = '\001' in
  let u16 off = if le then String.get_uint16_le b off else String.get_uint16_be b off in
  let u32 off =
    Int32.to_int (if le then String.get_int32_le b off else String.get_int32_be b off)
  in
  let u64 off =
    Int64.to_int (if le then String.get_int64_le b off else String.get_int64_be b off)
  in
  (* e_phoff, e_phentsize, e_phnum *)
  let phoff, phentsize, phnum =
    if elf64 then (u64 32, u16 54, u16 56) else (u32 28, u16 42, u16 44)
  in
  Util.check_bool "has program headers" true (phnum > 0);
  for i = 0 to phnum - 1 do
    if u32 (phoff + (i * phentsize)) = 3 then
      Alcotest.failf "%s requests a program interpreter (program header %d)" exe i
  done

let suite =
  [
    Util.test "exit codes: exhaustive subcommand table" t_exit_codes;
    Util.test "check: text prints every diagnostic JSON reports"
      t_check_text_lists_diagnostics;
    Util.test "check --jobs: parallel output byte-identical"
      t_jobs_differential;
    Util.test "check --jobs: randomized batches identical"
      t_jobs_differential_randomized;
    Util.test "precision --format=json: solver object shape" t_precision_json;
    Util.test "the daemon answers every port as the CLI does"
      t_cli_daemon_agree;
    Util.test "a cold check never collects" t_cold_check_never_collects;
    Util.test "check: a parse error that swallows main is the one error"
      t_parse_error_hides_missing_main;
    Util.test "profile: --bench with a FILE is a usage error"
      t_profile_bench_and_file;
    Util.test "check: ++ on a bool is a located error" t_check_bool_step;
    Util.test "analyze: the first error in the source" t_analyze_first_error;
    Util.test "run/profile/serve: a negative limit is a usage error"
      t_negative_limits;
    Util.test "run: a limit of 0 stops the first step, call or object"
      t_zero_limits;
    Util.test "check/serve: --jobs and --queue-cap below 1 are usage errors"
      t_out_of_range_counts;
    Util.test "the CLI is linked without a program interpreter" t_static_link;
    Util.test "check/run/serve: a static member initializer is an error"
      t_static_member_initializer;
    Util.test "check/run/serve: a static member through a call is an error"
      t_static_member_through_call;
  ]
