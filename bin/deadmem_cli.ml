(* deadmem — command-line driver.

   Subcommands:
     analyze FILE    detect dead data members in a MiniC++ translation unit
     explain M FILE  print the liveness derivation chain of one member
     check FILE...   batch-diagnose translation units (text or JSON)
     run FILE        execute a MiniC++ program under the instrumented
                     interpreter and print the object-space profile
     profile FILE    execute on the bytecode VM with the hot-site profiler
                     and print per-opcode / per-function / loop-site counts
     callgraph FILE  print (or dot-dump) the program's call graph
     bench NAME      analyze + run one of the built-in paper benchmarks

   analyze/explain/check/bench accept --metrics[=FILE] (JSON telemetry
   snapshot) and --trace-out FILE (Chrome trace-event JSON of the
   pipeline phase spans); either flag switches telemetry collection on.

   Exit-code contract (documented in the README):
     0  success, no diagnostics
     1  diagnostics reported (compile or runtime errors)
     2  usage or I/O error (missing file, bad flags)
     3  resource limit hit (steps, call depth, objects, native stack) *)

open Cmdliner

let exit_ok = 0
let exit_diagnostics = 1
let exit_usage = 2
let exit_limit = 3

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_source path =
  if path = "-" then In_channel.input_all In_channel.stdin else read_file path

let load path = Sema.Type_check.check_source ~file:path (read_source path)

(* The daemon's failure taxonomy, as exit codes; I/O errors are the
   CLI's own. *)
let handle_errors f =
  try f ()
  with e -> (
    match Server.Protocol.failure_of_exn e with
    | Some (kind, msg, _) ->
        Fmt.epr "%s@." msg;
        exit (if kind = Server.Protocol.Limit then exit_limit else exit_diagnostics)
    | None -> (
        match Server.Protocol.root_exn e with
        | Sys_error m ->
            Fmt.epr "error: %s@." m;
            exit exit_usage
        | Invalid_argument m ->
            Fmt.epr "invalid argument: %s@." m;
            exit exit_usage
        | e -> raise e))

(* -- shared options -------------------------------------------------------- *)

let file_arg =
  let doc = "MiniC++ source file ('-' reads standard input)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let callgraph_alg =
  let doc =
    "Call-graph construction algorithm: 'cha' (class hierarchy), 'rta' \
     (rapid type analysis, default), 'pta' (Andersen points-to; falls \
     back to RTA per site when a receiver is unknown) or 'pta1' (points-to \
     refined with 1-CFA allocation-site cloning; never more targets than \
     'pta')."
  in
  let alg =
    Arg.enum
      [
        ("rta", Callgraph.Rta);
        ("cha", Callgraph.Cha);
        ("pta", Callgraph.Pta);
        ("pta1", Callgraph.Pta1);
      ]
  in
  Arg.(value & opt alg Callgraph.Rta & info [ "callgraph" ] ~docv:"ALG" ~doc)

let conservative_flag =
  let doc =
    "Use the fully conservative configuration: sizeof marks contained \
     members live and down-casts are not assumed safe. The default mirrors \
     the paper's evaluation setup (sizeof is allocation-only; down-casts \
     verified by the user)."
  in
  Arg.(value & flag & info [ "conservative" ] ~doc)

let library_classes_opt =
  let doc =
    "Comma-separated class names treated as source-unavailable library \
     classes: their members are not classified and user overrides of their \
     virtual methods become call-graph roots."
  in
  Arg.(value & opt (list string) [] & info [ "library-classes" ] ~docv:"NAMES" ~doc)

let keep_going_flag =
  let doc =
    "Do not stop at the first error: recover, report every diagnostic, \
     and degrade conservatively — members of classes mentioned in \
     unparseable or ill-typed regions are kept live, so DEAD verdicts \
     stay sound. Exit code 1 when any error was reported."
  in
  Arg.(value & flag & info [ "k"; "keep-going" ] ~doc)

(* The front half of analyze/explain: the strict checker stops at the
   first error; keep-going builds a front-cache entry as the daemon
   does and prints every diagnostic. Returns the program, its unknown
   regions and the exit code the diagnostics call for. *)
let load_analysis ~keep_going file =
  if keep_going then begin
    let e = Server.Cache.build ~file (read_source file) in
    Fmt.epr "%s%!" e.Server.Cache.e_diag_text;
    ( e.Server.Cache.e_prog,
      e.Server.Cache.e_unknown,
      if e.Server.Cache.e_errors > 0 then exit_diagnostics else exit_ok )
  end
  else (load file, [], exit_ok)

(* --format for check, profile and precision *)
let format_opt ?(what = "") () =
  let doc = "Output format: 'text' (default) or 'json'" ^ what ^ "." in
  let fmt = Arg.enum [ ("text", `Text); ("json", `Json) ] in
  Arg.(value & opt fmt `Text & info [ "format" ] ~docv:"FORMAT" ~doc)

(* --step-limit, --call-depth-limit and --object-limit for run and
   profile; the daemon's are defaults for each run request. A limit is a
   count, so a negative one is a usage error naming its flag; 0 stops the
   run at its first step, call or object. *)
let limits_opt ~daemon =
  let count =
    let parse s =
      match Arg.conv_parser Arg.int s with
      | Ok n when n < 0 ->
          Error
            (`Msg
              (Printf.sprintf
                 "invalid value '%s', expected a non-negative integer" s))
      | r -> r
    in
    Arg.conv (parse, Arg.conv_printer Arg.int)
  in
  let opt name default ~plain ~per_request =
    let doc = if daemon then per_request else plain in
    Arg.(value & opt count default & info [ name ] ~docv:"N" ~doc)
  in
  Term.(
    const (fun s d o -> (s, d, o))
    $ opt "step-limit" Runtime.Interp.default_step_limit
        ~plain:"Interpreter step budget."
        ~per_request:"Default interpreter step budget per run request."
    $ opt "call-depth-limit" Runtime.Interp.default_call_depth_limit
        ~plain:"Maximum interpreter call depth (exit 3 when exceeded)."
        ~per_request:"Default maximum interpreter call depth per run request."
    $ opt "object-limit" Runtime.Interp.default_heap_object_limit
        ~plain:"Maximum number of objects created (exit 3 when exceeded)."
        ~per_request:"Default maximum objects created per run request.")

let engine_opt =
  let doc =
    "Execution engine: 'bytecode' (default; the resolved IR compiled to a \
     linear stack-machine VM) or 'tree' (the resolved-tree walker, kept \
     as an escape hatch and differential oracle). Both engines produce \
     identical observable behaviour."
  in
  let eng =
    Arg.enum
      [ ("bytecode", Runtime.Interp.Bytecode); ("tree", Runtime.Interp.Tree) ]
  in
  Arg.(value & opt eng Runtime.Interp.Bytecode
       & info [ "engine" ] ~docv:"ENGINE" ~doc)

(* A benchmark named on the command line; an unknown name is a usage
   error, reported with the list of valid names. *)
let find_bench name =
  let b = Benchmarks.Suite.find name in
  if b = None then
    Fmt.epr "unknown benchmark '%s'; available: %s@." name
      (String.concat ", "
         (List.map
            (fun (b : Benchmarks.Suite.t) -> b.name)
            Benchmarks.Suite.all));
  b

(* -- telemetry options ------------------------------------------------------ *)

let metrics_opt =
  let doc =
    "Switch telemetry on and write a snapshot of every counter, gauge, \
     histogram and phase span to $(docv) when the command completes ('-', \
     the default when the flag is given bare, writes to standard output)."
  in
  Arg.(value
       & opt ~vopt:(Some "-") (some string) None
       & info [ "metrics" ] ~docv:"FILE" ~doc)

let metrics_format_opt =
  let doc =
    "Rendering of the --metrics snapshot: 'json' (default; one object with \
     counters, gauges, histograms and spans) or 'prometheus' (the text \
     exposition format, instrument names prefixed 'deadmem_')."
  in
  let fmt = Arg.enum [ ("json", `Json); ("prometheus", `Prometheus) ] in
  Arg.(value & opt fmt `Json & info [ "metrics-format" ] ~docv:"FORMAT" ~doc)

let trace_out_opt =
  let doc =
    "Switch telemetry on and write a Chrome trace-event JSON file of the \
     pipeline phase spans to $(docv); load it in chrome://tracing or \
     ui.perfetto.dev."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* Run [f] with telemetry enabled when either output was requested, and dump
   the requested snapshots afterwards. Dumps happen only on completed runs:
   [handle_errors] sits outside, so a diagnosed failure exits before we get
   here — the snapshot of a half-run pipeline would mislead more than help. *)
let with_telemetry ?(metrics_format = `Json) ~metrics ~trace_out f =
  if metrics <> None || trace_out <> None then Telemetry.set_enabled true;
  let code = f () in
  let render () =
    match metrics_format with
    | `Json -> Telemetry.metrics_json ()
    | `Prometheus -> Telemetry.prometheus_text ()
  in
  (match metrics with
  | Some "-" -> print_string (render ()); print_newline ()
  | Some path -> write_file path (render ())
  | None -> ());
  (match trace_out with
  | Some path -> write_file path (Telemetry.trace_json ())
  | None -> ());
  code

(* -- analyze ----------------------------------------------------------------- *)

let analyze_cmd =
  let run file alg conservative library_classes verbose keep_going
      metrics metrics_format trace_out =
    handle_errors (fun () ->
        with_telemetry ~metrics_format ~metrics ~trace_out @@ fun () ->
        let config =
          Deadmem.Config.make ~conservative ~library_classes alg
        in
        let prog, unknown, code = load_analysis ~keep_going file in
        let result = Deadmem.Liveness.analyze ~config ~unknown prog in
        let report = Deadmem.Report.of_result prog result in
        Fmt.pr "configuration: %a@." Deadmem.Config.pp config;
        if unknown <> [] then
          Fmt.pr
            "note: %d unknown region(s) treated conservatively (all \
             mentioned members live)@."
            (List.length unknown);
        if verbose then Fmt.pr "%a" Deadmem.Liveness.pp_result result
        else
          List.iter
            (fun m -> Fmt.pr "DEAD %s@." (Sema.Member.to_string m))
            (Deadmem.Liveness.dead_members result);
        Fmt.pr "%a" Deadmem.Report.pp report;
        code)
    |> exit
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every member with its classification.")
  in
  let doc = "Detect dead data members in a MiniC++ program." in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ file_arg $ callgraph_alg $ conservative_flag
          $ library_classes_opt $ verbose
          $ keep_going_flag $ metrics_opt $ metrics_format_opt
          $ trace_out_opt)

(* -- explain ------------------------------------------------------------------ *)

let explain_cmd =
  let run member file alg conservative library_classes keep_going
      metrics metrics_format trace_out =
    handle_errors (fun () ->
        with_telemetry ~metrics_format ~metrics ~trace_out @@ fun () ->
        match Server.Protocol.parse_member member with
        | Error why ->
            Fmt.epr "error: MEMBER %s@." why;
            exit_usage
        | Ok m ->
            let config =
              Deadmem.Config.make ~conservative ~library_classes alg
            in
            let prog, unknown, code = load_analysis ~keep_going file in
            let result = Deadmem.Liveness.analyze ~config ~unknown prog in
            if not (Deadmem.Liveness.known_member result m) then begin
              Fmt.epr
                "error: '%s' is not an instance data member the analysis \
                 classifies (check the spelling, or whether its class is a \
                 --library-classes entry)@."
                (Sema.Member.to_string m);
              exit_usage
            end
            else begin
              Deadmem.Liveness.pp_explanation Fmt.stdout result m;
              Fmt.flush Fmt.stdout ();
              code
            end)
    |> exit
  in
  let member_arg =
    let doc = "Data member to explain, as 'Class::member'." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MEMBER" ~doc)
  in
  let file_arg1 =
    let doc = "MiniC++ source file ('-' reads standard input)." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let doc =
    "Explain one member's liveness classification: the paper rule that \
     marked it live, the marking statement's source location, the \
     enclosing function, and a call chain from main — or the statement \
     that no derivation exists (the member is dead)."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run $ member_arg $ file_arg1 $ callgraph_alg
          $ conservative_flag $ library_classes_opt $ keep_going_flag
          $ metrics_opt $ metrics_format_opt $ trace_out_opt)

(* -- check -------------------------------------------------------------------- *)

(* Batch diagnosis: each translation unit is processed in isolation, so a
   crash-grade failure in one file cannot mask results for the others. *)
let check_cmd =
  (* Renders one file's full report into [(status, stdout, stderr)]
     instead of printing, so the parallel path can emit results in input
     order, byte-identical to a sequential run.

     The front half runs through the content-addressed [Server.Cache]
     shared with the serve daemon: a batch containing the same
     translation unit twice parses, checks and analyzes it once (the
     [server.source_cache.*] / [server.analysis_cache.*] counters record
     the hits), and the cached rendered diagnostics keep the output
     byte-identical to an uncached run. *)
  let check_one ~format ~alg file =
    let out = Buffer.create 256 and err = Buffer.create 64 in
    (* one formatter per buffer: an unflushed [pr "%s"] is flushed by the
       next [@.] on the same formatter *)
    let out_ppf = Fmt.with_buffer out and err_ppf = Fmt.with_buffer err in
    let pr fmt = Fmt.pf out_ppf fmt and epr fmt = Fmt.pf err_ppf fmt in
    let status =
    let json = format = `Json in
    match read_source file with
    | exception Sys_error m ->
        if json then
          pr {|{"file":"%s","ok":false,"io_error":"%s"}@.|}
            (Frontend.Source.json_escape file)
            (Frontend.Source.json_escape m)
        else epr "%s: error: %s@." file m;
        `Io
    | src ->
        let entry =
          (* a failure here is a bug in the pipeline, not in the input;
             report it as this file's result and keep the batch going
             (crashed pipelines are never cached) *)
          match Server.Cache.get ~file src with
          | e, _hit -> Ok e
          | exception e -> Error (Printexc.to_string e)
        in
        let errors, suppressed, unknown, diags, diag_text =
          match entry with
          | Ok e ->
              ( e.Server.Cache.e_errors,
                e.Server.Cache.e_suppressed,
                e.Server.Cache.e_unknown,
                e.Server.Cache.e_diags,
                e.Server.Cache.e_diag_text )
          | Error m ->
              let d = Frontend.Source.Diagnostics.create () in
              Frontend.Source.Diagnostics.error d "internal error: %s" m;
              ( Frontend.Source.Diagnostics.error_count d,
                Frontend.Source.Diagnostics.suppressed_count d,
                [],
                Frontend.Source.Diagnostics.to_list d,
                Fmt.str "%a" Frontend.Source.Diagnostics.pp d )
        in
        (* dead-member summary for clean files, under the requested
           call-graph tier; analysis failures degrade to "no summary"
           rather than failing the batch *)
        let dead_count =
          match entry with
          | Ok e when errors = 0 -> (
              match Server.Cache.analyze e ~config:(Deadmem.Config.make alg) with
              | r -> Some (List.length (Deadmem.Liveness.dead_members r))
              | exception _ -> None)
          | _ -> None
        in
        if json then
          pr
            {|{"file":"%s","ok":%b,"errors":%d,"suppressed":%d,"unknown_regions":%d,"callgraph":"%s","dead_members":%s,"diagnostics":[%s]}@.|}
            (Frontend.Source.json_escape file)
            (errors = 0) errors suppressed (List.length unknown)
            (Callgraph.algorithm_to_string alg)
            (match dead_count with Some n -> string_of_int n | None -> "null")
            (String.concat ","
               (List.map Frontend.Source.diagnostic_to_json diags))
        else if errors > 0 then begin
          pr "%s" diag_text;
          pr "%s: %d error(s)@." file errors
        end
        else begin
          match dead_count with
          | Some n ->
              pr "%s: ok (%d dead member%s, %s)@." file n
                (if n = 1 then "" else "s")
                (Callgraph.algorithm_to_string alg)
          | None -> pr "%s: ok@." file
        end;
        if errors > 0 then `Diagnostics else `Ok
    in
    (status, Buffer.contents out, Buffer.contents err)
  in
  (* Batch over [Domain.spawn]: a shared atomic cursor hands files to
     [jobs] workers; results land in per-index slots and are printed in
     input order, so the output is identical to a sequential run. *)
  let check_all ~format ~alg ~jobs files =
    let files_a = Array.of_list files in
    let n = Array.length files_a in
    let slots = Array.make n (`Ok, "", "") in
    let workers = max 1 (min jobs n) in
    if workers = 1 then
      Array.iteri (fun i f -> slots.(i) <- check_one ~format ~alg f) files_a
    else begin
      let next = Atomic.make 0 in
      let worker () =
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            slots.(i) <- check_one ~format ~alg files_a.(i);
            go ()
          end
        in
        go ()
      in
      let doms = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join doms
    end;
    Array.iter
      (fun (_, out, err) ->
        print_string out;
        prerr_string err)
      slots;
    flush stdout;
    flush stderr;
    Array.to_list (Array.map (fun (st, _, _) -> st) slots)
  in
  let run files format alg jobs metrics metrics_format trace_out =
    handle_errors (fun () ->
        with_telemetry ~metrics_format ~metrics ~trace_out @@ fun () ->
        let results = check_all ~format ~alg ~jobs files in
        if List.mem `Io results then exit_usage
        else if List.mem `Diagnostics results then exit_diagnostics
        else exit_ok)
    |> exit
  in
  let jobs_arg =
    let doc =
      "Analyze the files with $(docv) parallel domains. Results are \
       printed in input order regardless of completion order, so the \
       output is identical to a sequential run."
    in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let files_arg =
    let doc = "MiniC++ source files to diagnose." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE" ~doc)
  in
  let doc =
    "Diagnose MiniC++ translation units in batch. Every file is parsed \
     and type-checked with full error recovery; failures are isolated \
     per file. Exit 0 when all files are clean, 1 when any file has \
     errors, 2 when any file cannot be read."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ files_arg $ format_opt ~what:" (one object per file)" ()
          $ callgraph_alg $ jobs_arg
          $ metrics_opt $ metrics_format_opt $ trace_out_opt)

(* -- run ---------------------------------------------------------------------- *)

let run_cmd =
  let run file profile engine (step_limit, call_depth_limit, heap_object_limit) =
    handle_errors (fun () ->
        let prog = load file in
        let dead =
          if profile then
            Deadmem.Liveness.dead_set
              (Deadmem.Liveness.analyze ~config:Deadmem.Config.paper prog)
          else Sema.Member.Set.empty
        in
        let outcome =
          Runtime.Interp.run ~engine ~dead ~step_limit ~call_depth_limit
            ~heap_object_limit prog
        in
        print_string outcome.Runtime.Interp.output;
        Fmt.pr "@.-- exit %d after %d steps --@." outcome.Runtime.Interp.return_value
          outcome.Runtime.Interp.steps;
        Fmt.pr "%a@." Runtime.Profile.pp_snapshot outcome.Runtime.Interp.snapshot;
        outcome.Runtime.Interp.return_value)
    |> exit
  in
  let profile =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Run the dead-member analysis first and report dead object space.")
  in
  let doc = "Execute a MiniC++ program under the instrumented interpreter." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ file_arg $ profile $ engine_opt $ limits_opt ~daemon:false)

(* -- profile ------------------------------------------------------------------- *)

(* VM hot-site profiler: run the program on the bytecode engine with the
   counting profiler attached and print where the time goes — per-opcode
   dispatch counts, per-function instruction/call counts, and the
   back-branch sites that identify hot loops. *)
let profile_cmd =
  let run file bench format top (step_limit, call_depth_limit, heap_object_limit)
      =
    handle_errors (fun () ->
        let prog =
          match (bench, file) with
          | _ when top < 1 ->
              Fmt.epr "error: --top must be at least 1 (got %d)@." top;
              None
          | Some _, Some _ ->
              Fmt.epr "error: provide a FILE or --bench NAME, not both@.";
              None
          | Some name, None ->
              Option.map Benchmarks.Suite.program (find_bench name)
          | None, Some f -> Some (load f)
          | None, None ->
              Fmt.epr "error: provide a FILE or --bench NAME@.";
              None
        in
        match prog with
        | None -> exit_usage
        | Some prog ->
            let outcome, report =
              Runtime.Interp.run_profiled ~step_limit ~call_depth_limit
                ~heap_object_limit prog
            in
            (match format with
            | `Text ->
                Fmt.pr "-- exit %d after %d steps --@."
                  outcome.Runtime.Interp.return_value
                  outcome.Runtime.Interp.steps;
                print_string (Runtime.Vm_profile.to_text ~top report)
            | `Json -> print_endline (Runtime.Vm_profile.to_json report));
            exit_ok)
    |> exit
  in
  let file_arg =
    let doc =
      "MiniC++ source file to profile ('-' reads standard input). Omit it \
       when profiling a built-in benchmark with --bench."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let bench_arg =
    let doc =
      "Profile a built-in paper benchmark (e.g. richards, sched) instead of \
       a source file."
    in
    Arg.(value & opt (some string) None & info [ "bench" ] ~docv:"NAME" ~doc)
  in
  let top_arg =
    let doc = "Rows per table in text output (at least 1)." in
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc)
  in
  let doc =
    "Execute a MiniC++ program on the bytecode VM with the hot-site \
     profiler attached and report per-opcode dispatch counts, per-function \
     instruction and call counts, and the hottest back-branch (loop) \
     sites. Fused loop instructions count once per iteration, so \
     superinstructions do not hide hot loops."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ file_arg $ bench_arg $ format_opt () $ top_arg
          $ limits_opt ~daemon:false)

(* -- callgraph ---------------------------------------------------------------- *)

let callgraph_cmd =
  let run file alg dot =
    handle_errors (fun () ->
        let prog = load file in
        let cg = Callgraph.build ~algorithm:alg prog in
        if dot then print_string (Callgraph.to_dot cg)
        else Fmt.pr "%a" Callgraph.pp cg;
        0)
    |> exit
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz dot instead of text.")
  in
  let doc = "Build and print the program's call graph." in
  Cmd.v (Cmd.info "callgraph" ~doc) Term.(const run $ file_arg $ callgraph_alg $ dot)

(* -- strip -------------------------------------------------------------------- *)

let strip_cmd =
  let run file alg conservative library_classes =
    handle_errors (fun () ->
        let src = read_source file in
        let config = Deadmem.Config.make ~conservative ~library_classes alg in
        let text, removed =
          Deadmem.Eliminate.strip_to_source ~config ~source:src ~file ()
        in
        List.iter
          (fun m -> Fmt.epr "removed %s@." (Sema.Member.to_string m))
          (Sema.Member.Set.elements removed);
        print_string text;
        0)
    |> exit
  in
  let doc =
    "Remove dead data members (and unreachable code) from a MiniC++ \
     program and print the transformed source — the space optimization \
     the paper proposes."
  in
  Cmd.v (Cmd.info "strip" ~doc)
    Term.(const run $ file_arg $ callgraph_alg $ conservative_flag
          $ library_classes_opt)

(* -- bench -------------------------------------------------------------------- *)

let bench_cmd =
  let run name alg engine metrics metrics_format trace_out =
    handle_errors (fun () ->
        with_telemetry ~metrics_format ~metrics ~trace_out @@ fun () ->
        match find_bench name with
        | None -> exit_usage
        | Some b ->
            let prog = Benchmarks.Suite.program b in
            let r = Deadmem.Liveness.analyze ~config:(Deadmem.Config.make alg) prog in
            let report = Deadmem.Report.of_result prog r in
            let outcome =
              Runtime.Interp.run ~engine ~dead:(Deadmem.Liveness.dead_set r)
                prog
            in
            Fmt.pr "%s: %s (%d LOC)@." b.name b.description
              (Benchmarks.Suite.loc b);
            Fmt.pr "%a" Deadmem.Report.pp report;
            Fmt.pr "output: %s" outcome.Runtime.Interp.output;
            Fmt.pr "%a@." Runtime.Profile.pp_snapshot outcome.Runtime.Interp.snapshot;
            0)
    |> exit
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME"
         ~doc:"Benchmark name (e.g. richards, jikes, taldict).")
  in
  let doc = "Analyze and run one of the built-in paper benchmarks." in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(const run $ name_arg $ callgraph_alg $ engine_opt $ metrics_opt
          $ metrics_format_opt $ trace_out_opt)

(* -- precision ----------------------------------------------------------------- *)

(* The call-graph tiers side by side on every built-in benchmark:
   the precision trajectory the paper's §3.1 observation predicts
   (call-graph precision bounds analysis precision). *)
let precision_cmd =
  let run format =
    handle_errors (fun () ->
        let rows =
          List.map
            (fun (b : Benchmarks.Suite.t) ->
              (b.name, Deadmem.Precision.measure (Benchmarks.Suite.program b)))
            Benchmarks.Suite.all
        in
        (match format with
        | `Text ->
            Fmt.pr "%-10s %22s %22s %22s %22s@." "benchmark" "CHA" "RTA" "PTA"
              "PTA1";
            Fmt.pr "%-10s %22s %22s %22s %22s@." "" "nodes/edges/dead"
              "nodes/edges/dead" "nodes/edges/dead" "nodes/edges/dead";
            List.iter
              (fun (name, cells) ->
                Fmt.pr "%-10s" name;
                List.iter
                  (fun (c : Deadmem.Precision.cell) ->
                    Fmt.pr " %22s" (Fmt.str "%d/%d/%d" c.nodes c.edges c.dead))
                  cells;
                Fmt.pr "@.")
              rows;
            (* solver detail: where each points-to tier lost precision
               (fallback sites) and what the solve cost *)
            Fmt.pr "@.%-10s %5s %9s %6s %6s %6s@." "solver" "tier"
              "fallback" "delta" "iters" "ctxs";
            List.iter
              (fun (name, cells) ->
                List.iter
                  (fun (c : Deadmem.Precision.cell) ->
                    match c.solver with
                    | None -> ()
                    | Some (s : Pta.stats) ->
                        Fmt.pr "%-10s %5s %9d %6d %6d %6d@." name
                          (Deadmem.Precision.tier_name c)
                          s.Pta.p_fallback_sites s.Pta.p_delta_props
                          s.Pta.p_solver_iters s.Pta.p_contexts)
                  cells)
              rows
        | `Json ->
            Fmt.pr "[%s]@."
              (String.concat ","
                 (List.map
                    (fun (name, cells) -> Deadmem.Precision.row_json name cells)
                    rows)));
        exit_ok)
    |> exit
  in
  let doc =
    "Print per-benchmark dead-member counts and call-graph sizes for the \
     CHA, RTA, PTA and PTA1 tiers side by side, plus points-to solver \
     statistics (fallback sites, set sharing, difference propagation)."
  in
  Cmd.v (Cmd.info "precision" ~doc) Term.(const run $ format_opt ())

(* -- serve -------------------------------------------------------------------- *)

let serve_cmd =
  let run socket jobs queue_cap deadline_ms max_request_bytes fault_injection
      (step_limit, call_depth_limit, heap_object_limit) slow_ms =
    handle_errors (fun () ->
        let cfg =
          {
            Server.Serve.default_config with
            Server.Serve.jobs;
            queue_cap;
            default_deadline_ms = deadline_ms;
            max_request_bytes;
            fault_injection;
            step_limit;
            call_depth_limit;
            heap_object_limit;
            slow_ms;
          }
        in
        Server.Serve.run ?socket cfg)
    |> exit
  in
  let socket =
    let doc =
      "Listen on a Unix domain socket at $(docv) (an existing file is \
       replaced; the file is removed on clean shutdown). Without this \
       flag the daemon speaks the protocol on stdin/stdout."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let jobs =
    let doc = "Number of supervised worker domains." in
    Arg.(value & opt int Server.Serve.default_config.Server.Serve.jobs
         & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let queue_cap =
    let doc =
      "Bounded work-queue capacity: requests beyond it are shed with a \
       structured 'overloaded' error instead of stretching latency."
    in
    Arg.(value & opt int Server.Serve.default_config.Server.Serve.queue_cap
         & info [ "queue-cap" ] ~docv:"N" ~doc)
  in
  let deadline_ms =
    let doc =
      "Default per-request wall-clock budget in milliseconds, measured \
       from enqueue and enforced at the interpreter's tick points; a \
       request may lower or raise its own via 'deadline_ms'. 0 disables."
    in
    Arg.(value
         & opt int Server.Serve.default_config.Server.Serve.default_deadline_ms
         & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let max_request_bytes =
    let doc =
      "Request frame size cap; larger frames are answered with a \
       'too_large' error and discarded."
    in
    Arg.(value
         & opt int Server.Serve.default_config.Server.Serve.max_request_bytes
         & info [ "max-request-bytes" ] ~docv:"N" ~doc)
  in
  let fault_injection =
    let doc =
      "Enable the 'crash' op, which kills a worker domain on purpose so \
       supervision (quarantine + restart) can be exercised end to end."
    in
    Arg.(value & flag & info [ "fault-injection" ] ~doc)
  in
  let slow_ms =
    let doc =
      "Log every request whose end-to-end latency (queue wait included) \
       reaches $(docv) milliseconds as one structured JSONL line on \
       stderr, with its per-phase breakdown and trace id. 0 disables."
    in
    Arg.(value & opt int Server.Serve.default_config.Server.Serve.slow_ms
         & info [ "slow-ms" ] ~docv:"MS" ~doc)
  in
  let doc =
    "Run the analysis daemon: JSONL requests (analyze, check, run, \
     explain, precision, health, stats, shutdown) over stdin/stdout or \
     a Unix socket, with per-request deadlines, bounded queueing with \
     load shedding, supervised worker restart, and graceful drain on \
     SIGTERM/SIGINT. Identical translation units are parsed, checked \
     and compiled once (content-addressed caching)."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ socket $ jobs $ queue_cap $ deadline_ms
          $ max_request_bytes $ fault_injection $ limits_opt ~daemon:true
          $ slow_ms)

let () =
  let doc = "dead data member detection for MiniC++ (Sweeney & Tip, PLDI'98)" in
  let info = Cmd.info "deadmem" ~version:"1.0.0" ~doc in
  let code =
    Cmd.eval' ~term_err:exit_usage
      (Cmd.group info
         [ analyze_cmd; explain_cmd; check_cmd; run_cmd; profile_cmd;
           callgraph_cmd; strip_cmd; bench_cmd; precision_cmd; serve_cmd ])
  in
  (* cmdliner can report failures with exit codes outside our documented
     contract: cli_error (124) for some parse errors (e.g. a bad enum
     value), internal_error (125) for a broken term. Fold anything that
     is not a documented code into the usage code, so every invocation —
     however malformed — exits 0, 1, 2 or 3. *)
  exit (match code with 0 | 1 | 2 | 3 -> code | _ -> exit_usage)
