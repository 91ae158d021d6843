(* paper_suite: the paper's own Table 2 measurement. One op runs one of
   the 11 ports cold: lex, parse, type-check, liveness (paper
   configuration, RTA call graph) and execution with the dead set, on a
   freshly typed AST, so resolve and compile are paid on every op. A
   cycle runs every port once in a seeded order. Execution dominates;
   PTA is bypassed.

   Traced ops call the runtime layer by layer instead of through
   [Interp.run] (resolve, compile, make_vm/execute, snapshot) and must
   produce the same outputs; the dispatch and instruction counts come
   from one probe per distinct program. *)

open Runtime

let file = "<paper_suite>"

let limits =
  {
    Profile.l_step_limit = Interp.default_step_limit;
    l_call_depth_limit = Interp.default_call_depth_limit;
    l_heap_object_limit = Interp.default_heap_object_limit;
  }

(* The body of [Interp.run] for the bytecode engine, one span per layer. *)
let run_layered s ~dead prog =
  let rp = Trace.span s "runtime.resolve" (fun () -> Resolve.program prog) in
  let cp = Trace.span s "runtime.compile" (fun () -> Bytecode.compile rp) in
  let vm =
    Trace.span s "runtime.make_vm" (fun () ->
        Bytecode.make_vm ~dead ~step_limit:limits.l_step_limit
          ~call_depth_limit:limits.l_call_depth_limit
          ~heap_object_limit:limits.l_heap_object_limit cp)
  in
  let ret = Trace.span s "runtime.execute" (fun () -> Bytecode.execute vm) in
  let snapshot =
    Trace.span s "runtime.snapshot" (fun () -> Profile.snapshot ~limits (Bytecode.profile vm))
  in
  Expected.of_snapshot
    ~return:(match ret with Value.VInt n -> n | _ -> 0)
    ~output:(Bytecode.output vm) ~steps:(Bytecode.steps vm)
    ~allocations:(Bytecode.allocations vm) snapshot

let front s (src : string) =
  let toks = Trace.span s "frontend.lex" (fun () -> Frontend.Lexer.tokenize ~file src) in
  Trace.count s "frontend.lex.tokens" (fun () -> float_of_int (List.length toks));
  let ast = Trace.span s "frontend.parse" (fun () -> Frontend.Parser.parse_tokens toks) in
  Trace.span s "sema.typecheck" (fun () -> Sema.Type_check.check_program ast)

let count_callgraph s (cg : Callgraph.t) =
  Trace.count s "callgraph.nodes" (fun () -> float_of_int (Callgraph.num_nodes cg));
  Trace.count s "callgraph.edges" (fun () -> float_of_int (Callgraph.num_edges cg))

(* Per-program probe results: bytecode dispatches and instructions. *)
type probe = { dispatches : int; instructions : int }

let probe_program ~dead prog =
  let _, report = Interp.run_profiled ~dead prog in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let instructions =
    Fun.protect
      ~finally:(fun () ->
        Telemetry.set_enabled false;
        Telemetry.reset ())
      (fun () ->
        ignore (Bytecode.compile (Resolve.program prog));
        Option.value ~default:0
          (List.assoc_opt "bytecode.instructions_compiled" (Telemetry.counters ())))
  in
  { dispatches = report.Vm_profile.r_dispatches; instructions }

let op (c : Harness.cycle) probes (b : Benchmarks.Suite.t) =
  let g = Expected.find b.name in
  Harness.op c ~label:b.name
    (fun s ->
      let prog = front s b.source in
      let result =
        Trace.span s "deadmem.analyze" (fun () ->
            Deadmem.Liveness.analyze ~config:Deadmem.Config.paper prog)
      in
      let dead = Deadmem.Liveness.dead_set result in
      let run =
        match s with
        | None ->
            let o = Interp.run ~dead prog in
            Expected.of_snapshot ~return:o.return_value ~output:o.output ~steps:o.steps
              o.snapshot
        | Some _ -> run_layered s ~dead prog
      in
      (prog, result, run))
    (fun s (prog, result, run) ->
      let dead = List.map Sema.Member.to_string (Deadmem.Liveness.dead_members result) in
      if s <> None then begin
        let p =
          match Hashtbl.find_opt probes b.name with
          | Some p -> p
          | None ->
              let p =
                Trace.probe s "runtime.profile" (fun () ->
                    probe_program ~dead:(Deadmem.Liveness.dead_set result) prog)
              in
              Hashtbl.replace probes b.name p;
              p
        in
        ignore
          (Trace.probe s "callgraph.build" (fun () ->
               Callgraph.build ~algorithm:Deadmem.Config.paper.call_graph prog));
        count_callgraph s result.callgraph;
        Trace.count s "deadmem.dead_members" (fun () -> float_of_int (List.length dead));
        Trace.count s "runtime.execute.steps" (fun () -> float_of_int run.Expected.r_steps);
        Trace.count s "runtime.execute.objects" (fun () -> float_of_int run.r_num_objects);
        Trace.count s "runtime.execute.dispatches" (fun () -> float_of_int p.dispatches);
        Trace.count s "runtime.compile.instructions" (fun () -> float_of_int p.instructions)
      end;
      Result.bind (Expected.check_run g run) (fun () -> Expected.check_dead g dead))

let workload =
  {
    Harness.name = "paper_suite";
    setup =
      (fun c ->
        let ports = Array.of_list Benchmarks.Suite.all in
        let st = Harness.rng c.env.seed 1 in
        let probes = Hashtbl.create 11 in
        (* warm-up pass: fills the GC heap and checks every port once *)
        Array.iter (op c probes) (Harness.truncate c.env ports);
        {
          Harness.cycle =
            (fun c ->
              Array.iter (op c probes) (Harness.truncate c.env (Harness.shuffle st (Array.copy ports))));
          stop = ignore;
          layers = (fun _ -> []);
          peak_rss_kib = (fun () -> 0);
          clients = 1;
          in_process = true;
        });
  }
