(* CLI contract tests, run against the real binary:

   - the exhaustive exit-code table: every subcommand, every outcome
     class, pinned to the documented 0/1/2/3 contract (with `run`'s
     documented exception: it exits with the guest program's return
     value) — including cmdliner-internal codes (bad enum values used
     to leak exit 124) folded into the usage code;

   - the `check --jobs N` differential: parallel batch output
     (stdout, stderr, exit code) must be byte-identical to a
     sequential run, including failing files, duplicate files and
     deterministic randomized batches. *)

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

let run_capture args =
  let out = Filename.temp_file "deadmem_out" ".txt" in
  let err = Filename.temp_file "deadmem_err" ".txt" in
  let code =
    Sys.command (Printf.sprintf "%s %s >%s 2>%s" exe args out err)
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

let suite =
  [
    Util.test "exit codes: exhaustive subcommand table" t_exit_codes;
    Util.test "check --jobs: parallel output byte-identical"
      t_jobs_differential;
    Util.test "check --jobs: randomized batches identical"
      t_jobs_differential_randomized;
  ]
