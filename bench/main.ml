(* Reproduction harness: regenerates every table and figure of the
   paper's evaluation (Section 4), plus the ablations discussed in §3.1
   and §3.2, plus Bechamel micro-benchmarks of the analysis itself.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- table1  -- benchmark characteristics
     dune exec bench/main.exe -- figure3 -- static dead-member percentages
     dune exec bench/main.exe -- table2  -- dynamic object-space numbers
     dune exec bench/main.exe -- figure4 -- dead space / HWM reduction bars
     dune exec bench/main.exe -- ablation-- call-graph & policy ablations
     dune exec bench/main.exe -- perf    -- Bechamel timings
     dune exec bench/main.exe -- json    -- write BENCH_deadmem.json
     dune exec bench/main.exe -- --compare BASELINE.json
                                         -- diff against a committed snapshot;
                                            exits 1 on >10% median phase
                                            regression or a PTA build slower
                                            than 2x the CHA build *)

open Benchmarks

(* Execution engine for the run phase ([--engine tree|bytecode], default
   bytecode) and measurement parallelism ([--jobs N], default 1 — keep 1
   when wall-clock numbers matter; parallel domains contend for cores).
   Both are plain refs set once by the driver before any measurement. *)
let engine = ref Runtime.Interp.Bytecode
let jobs = ref 1
let json_out = ref "BENCH_deadmem.json"

let engine_name () =
  match !engine with
  | Runtime.Interp.Bytecode -> "bytecode"
  | Runtime.Interp.Tree -> "tree"

type row = {
  bench : Suite.t;
  report : Deadmem.Report.t;
  outcome : Runtime.Interp.outcome;
}

let compute_row (b : Suite.t) : row =
  let prog = Suite.program b in
  let result = Deadmem.Liveness.analyze ~config:Deadmem.Config.paper prog in
  let report = Deadmem.Report.of_result prog result in
  let outcome =
    Runtime.Interp.run ~engine:!engine
      ~dead:(Deadmem.Liveness.dead_set result)
      prog
  in
  { bench = b; report; outcome }

let rows = lazy (List.map compute_row Suite.all)

let bar width pct max_pct =
  let n =
    if max_pct <= 0.0 then 0
    else int_of_float (pct /. max_pct *. float_of_int width +. 0.5)
  in
  String.make (min width n) '#'

(* Paper values, for side-by-side comparison. Table 2 cells that are
   unreadable in our source text of the paper are shown as "-". *)
let paper_figure3 = function
  | "richards" | "deltablue" -> Some 0.0
  | "taldict" -> Some 27.3 (* the paper's maximum *)
  | _ -> None

let paper_table2 = function
  | "idl" -> Some (708_249, 15_388, 701_273, 686_886)
  | "npic" -> Some (115_248, 5_616, 24_972, 23_840)
  | "lcom" -> Some (2_274_956, 241_435, 1_652_828, 1_491_048)
  | "taldict" -> Some (7_080, 36, 7_998, 6_972)
  | "ixx" -> Some (551_160, 29_745, 299_516, 269_775)
  | "simulate" -> Some (64_869, 41, 11_586, 11_644)
  | "sched" -> Some (9_032_676, 1_049_148, 9_032_676, 7_983_528)
  | "hotwire" -> Some (10_780, 284, 10_780, 10_496)
  | "deltablue" -> Some (276_364, 0, 196_212, 196_212)
  | "richards" -> Some (4_889, 0, 4_880, 4_880)
  | _ -> None (* jikes: row partially unreadable in the source text *)

(* -- Table 1 ----------------------------------------------------------------- *)

let table1 () =
  Fmt.pr "@.Table 1: benchmark characteristics@.";
  Fmt.pr "%-10s %-48s %6s %9s %8s@." "name" "description" "LOC" "classes"
    "members";
  Fmt.pr "%s@." (String.make 86 '-');
  List.iter
    (fun { bench; report; _ } ->
      Fmt.pr "%-10s %-48s %6d %4d (%2d) %8d@." bench.Suite.name
        bench.Suite.description (Suite.loc bench)
        report.Deadmem.Report.num_classes
        report.Deadmem.Report.num_used_classes
        report.Deadmem.Report.members_in_used)
    (Lazy.force rows);
  Fmt.pr
    "@.(classes column: total (used); members: data members in used classes,@.\
    \ as in the paper's Table 1. LOC are for our MiniC++ ports, which are@.\
    \ scaled-down versions of the original 600-58,296 LOC applications.)@."

(* -- Figure 3 ----------------------------------------------------------------- *)

let figure3 () =
  Fmt.pr "@.Figure 3: percentage of dead data members (used classes)@.";
  Fmt.pr "%-10s %6s  %-40s %s@." "name" "dead%" "" "paper";
  Fmt.pr "%s@." (String.make 72 '-');
  let max_pct = 30.0 in
  List.iter
    (fun { bench; report; _ } ->
      let pct = report.Deadmem.Report.dead_pct in
      let paper =
        match paper_figure3 bench.Suite.name with
        | Some v -> Fmt.str "%.1f" v
        | None -> "(bar only)"
      in
      Fmt.pr "%-10s %5.1f%%  %-40s %s@." bench.Suite.name pct
        (bar 40 pct max_pct) paper)
    (Lazy.force rows);
  let nontrivial =
    List.filter
      (fun { report; _ } -> report.Deadmem.Report.dead_in_used > 0)
      (Lazy.force rows)
  in
  let avg =
    List.fold_left
      (fun acc { report; _ } -> acc +. report.Deadmem.Report.dead_pct)
      0.0 nontrivial
    /. float_of_int (max 1 (List.length nontrivial))
  in
  let mx =
    List.fold_left
      (fun acc { report; _ } -> max acc report.Deadmem.Report.dead_pct)
      0.0 nontrivial
  in
  Fmt.pr
    "@.nontrivial benchmarks: average %.1f%% dead (paper: 12.5%%), max %.1f%% (paper: 27.3%%)@."
    avg mx

(* -- Table 2 ----------------------------------------------------------------- *)

let table2 () =
  Fmt.pr "@.Table 2: execution characteristics (bytes)@.";
  Fmt.pr "%-10s %12s %12s %12s %12s@." "name" "obj space" "dead space" "HWM"
    "HWM w/o dead";
  Fmt.pr "%s@." (String.make 64 '-');
  List.iter
    (fun { bench; outcome; _ } ->
      let s = outcome.Runtime.Interp.snapshot in
      Fmt.pr "%-10s %12d %12d %12d %12d@." bench.Suite.name
        s.Runtime.Profile.object_space s.Runtime.Profile.dead_space
        s.Runtime.Profile.high_water_mark
        s.Runtime.Profile.high_water_mark_reduced;
      match paper_table2 bench.Suite.name with
      | Some (a, b, c, d) ->
          Fmt.pr "%-10s %12d %12d %12d %12d@." "  (paper)" a b c d
      | None -> Fmt.pr "%-10s %12s %12s %12s %12s@." "  (paper)" "-" "-" "-" "-")
    (Lazy.force rows);
  Fmt.pr
    "@.(absolute bytes differ from the paper — our ports are scaled down —@.\
    \ but the per-benchmark shape is preserved: who leaks until exit,@.\
    \ whose HWM is far below total, and where dead bytes concentrate.)@."

(* -- Figure 4 ----------------------------------------------------------------- *)

let figure4 () =
  Fmt.pr "@.Figure 4: object space occupied by dead data members@.";
  Fmt.pr "%-10s %7s %-26s %8s %-26s@." "name" "dead%" "(of object space)"
    "hwm-red%" "(high-water-mark cut)";
  Fmt.pr "%s@." (String.make 86 '-');
  let max_pct = 12.0 in
  List.iter
    (fun { bench; outcome; _ } ->
      let s = outcome.Runtime.Interp.snapshot in
      let p1 = Runtime.Profile.dead_space_pct s in
      let p2 = Runtime.Profile.hwm_reduction_pct s in
      Fmt.pr "%-10s %6.1f%% %-26s %7.1f%% %-26s@." bench.Suite.name p1
        (bar 24 p1 max_pct) p2 (bar 24 p2 max_pct))
    (Lazy.force rows);
  let rs = Lazy.force rows in
  let avg f =
    List.fold_left (fun acc r -> acc +. f r) 0.0 rs
    /. float_of_int (List.length rs)
  in
  Fmt.pr
    "@.average dead space %.1f%% (paper: 4.4%%), average HWM reduction %.1f%% (paper: 4.9%%)@."
    (avg (fun r ->
         Runtime.Profile.dead_space_pct r.outcome.Runtime.Interp.snapshot))
    (avg (fun r ->
         Runtime.Profile.hwm_reduction_pct r.outcome.Runtime.Interp.snapshot));
  let mx =
    List.fold_left
      (fun acc r ->
        max acc
          (Runtime.Profile.dead_space_pct r.outcome.Runtime.Interp.snapshot))
      0.0 rs
  in
  Fmt.pr "maximum dead space %.1f%% (paper: 11.6%%, sched)@." mx

(* -- ablations ----------------------------------------------------------------- *)

let ablation () =
  Fmt.pr
    "@.Ablation A1: call-graph precision (CHA vs RTA vs PTA), dead members \
     found@.";
  Fmt.pr "%-10s %6s %6s %6s %10s %10s %10s@." "name" "CHA" "RTA" "PTA"
    "CHA funcs" "RTA funcs" "PTA funcs";
  Fmt.pr "%s@." (String.make 64 '-');
  List.iter
    (fun (b : Suite.t) ->
      let prog = Suite.program b in
      let dead_with alg =
        let config =
          { Deadmem.Config.paper with Deadmem.Config.call_graph = alg }
        in
        let r = Deadmem.Liveness.analyze ~config prog in
        ( List.length (Deadmem.Liveness.dead_members r),
          r.Deadmem.Liveness.callgraph )
      in
      let cha, cha_cg = dead_with Callgraph.Cha in
      let rta, rta_cg = dead_with Callgraph.Rta in
      let pta, pta_cg = dead_with Callgraph.Pta in
      Fmt.pr "%-10s %6d %6d %6d %10d %10d %10d@." b.Suite.name cha rta pta
        (Callgraph.num_nodes cha_cg) (Callgraph.num_nodes rta_cg)
        (Callgraph.num_nodes pta_cg))
    Suite.all;
  Fmt.pr
    "@.(RTA never finds fewer dead members than CHA, nor PTA fewer than RTA;@.\
    \ the paper's §3.1 notes that more accurate call graphs can only improve@.\
    \ the results.)@.";
  Fmt.pr "@.Ablation A2: sizeof and down-cast policies, dead members found@.";
  Fmt.pr "%-10s %20s %14s %12s@." "name" "paper(ignore/safe)" "sizeof-cons"
    "casts-cons";
  Fmt.pr "%s@." (String.make 60 '-');
  List.iter
    (fun (b : Suite.t) ->
      let prog = Suite.program b in
      let dead_with config =
        List.length
          (Deadmem.Liveness.dead_members
             (Deadmem.Liveness.analyze ~config prog))
      in
      let paper = dead_with Deadmem.Config.paper in
      let sizeof_cons =
        dead_with
          {
            Deadmem.Config.paper with
            Deadmem.Config.sizeof_policy = Deadmem.Config.Sizeof_conservative;
          }
      in
      let casts_cons =
        dead_with
          {
            Deadmem.Config.paper with
            Deadmem.Config.assume_downcasts_safe = false;
          }
      in
      Fmt.pr "%-10s %20d %14d %12d@." b.Suite.name paper sizeof_cons casts_cons)
    Suite.all

(* -- Bechamel micro-benchmarks --------------------------------------------------- *)

let perf () =
  let open Bechamel in
  let parse_tests =
    List.map
      (fun (b : Suite.t) ->
        Test.make ~name:("parse/" ^ b.Suite.name)
          (Staged.stage (fun () ->
               ignore (Frontend.Parser.parse_string b.Suite.source))))
      Suite.all
  in
  let check_tests =
    List.map
      (fun (b : Suite.t) ->
        Test.make ~name:("typecheck/" ^ b.Suite.name)
          (Staged.stage (fun () -> ignore (Suite.program b))))
      [ Suite.find_exn "jikes"; Suite.find_exn "richards" ]
  in
  let analysis_tests =
    List.map
      (fun (b : Suite.t) ->
        let prog = Suite.program b in
        Test.make ~name:("analyze/" ^ b.Suite.name)
          (Staged.stage (fun () ->
               ignore
                 (Deadmem.Liveness.analyze ~config:Deadmem.Config.paper prog))))
      Suite.all
  in
  let callgraph_tests =
    List.concat_map
      (fun (b : Suite.t) ->
        let prog = Suite.program b in
        [
          Test.make ~name:("cha/" ^ b.Suite.name)
            (Staged.stage (fun () ->
                 ignore (Callgraph.build ~algorithm:Callgraph.Cha prog)));
          Test.make ~name:("rta/" ^ b.Suite.name)
            (Staged.stage (fun () ->
                 ignore (Callgraph.build ~algorithm:Callgraph.Rta prog)));
        ])
      [ Suite.find_exn "idl"; Suite.find_exn "jikes" ]
  in
  let grouped =
    Test.make_grouped ~name:"deadmem"
      (parse_tests @ check_tests @ analysis_tests @ callgraph_tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  Fmt.pr "@.Performance (Bechamel, monotonic clock):@.";
  Fmt.pr "%-32s %14s@." "benchmark" "ns/run";
  Fmt.pr "%s@." (String.make 48 '-');
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Fmt.pr "%-32s %14.0f@." name est
      | Some _ | None -> Fmt.pr "%-32s %14s@." name "n/a")
    (List.sort compare entries);
  Fmt.pr
    "@.(the analysis is O(N + C*M) after call-graph construction — paper@.\
    \ section 3.4; the timings above scale with benchmark size.)@."

(* -- points-to stress (--pta-stress) ---------------------------------------------- *)

(* The scalability probe of the points-to solver: one ≥50k-constraint
   synthetic input at a pinned seed (Synth.stress), solved in both
   modes, measuring wall clock, total allocation, and live heap retained
   by the solution. The numbers land in the bench JSON; CI pins the
   deterministic ones (constraints, solver counters) exactly and bounds
   allocation and live heap. *)

type stress_result = {
  st_constraints : int;
  st_wall_ms : float;
  st_alloc_w : float;  (* words allocated during the solve *)
  st_live_w : int;  (* words retained by the solution *)
  st_pta1_wall_ms : float;
  st_stats : Pta.stats;
  st_pta1_stats : Pta.stats;
}

(* Run [f], returning its result plus wall ms, words allocated, and the
   live-word delta it retains (solution kept alive across the final
   compaction). *)
let measure_solver f =
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let sol = f () in
  let wall = (Unix.gettimeofday () -. t0) *. 1e3 in
  let alloc = (Gc.allocated_bytes () -. a0) /. 8.0 in
  Gc.compact ();
  let live1 = (Gc.stat ()).Gc.live_words in
  (sol, wall, alloc, live1 - live0)

let pta_stress_result : stress_result Lazy.t =
  lazy
    (let prog = Synth.program Synth.stress in
     (* 1-CFA first: its dispatch lookups fill the class table's memo, so
        the plain solve's words measure the solver alone *)
     let pta1_stats, w1 =
       let sol1, w1, _, _ =
         measure_solver (fun () -> Pta.analyze ~mode:Pta.OneCfa prog)
       in
       (Pta.stats sol1, w1)
     in
     let sol, wall, alloc, live = measure_solver (fun () -> Pta.analyze prog) in
     ignore (Sys.opaque_identity (Pta.num_nodes sol));
     {
       st_constraints = Pta.num_constraints sol;
       st_wall_ms = wall;
       st_alloc_w = alloc;
       st_live_w = live;
       st_pta1_wall_ms = w1;
       st_stats = Pta.stats sol;
       st_pta1_stats = pta1_stats;
     })

let pta_stress () =
  let r = Lazy.force pta_stress_result in
  Fmt.pr "@.PTA stress (seed %d): %d constraints, %d nodes, %d objects@."
    Synth.stress.Synth.seed r.st_constraints r.st_stats.Pta.p_nodes
    r.st_stats.Pta.p_objects;
  Fmt.pr "%-22s %12s %14s %14s@." "solver" "wall ms" "alloc words"
    "live words";
  Fmt.pr "%s@." (String.make 66 '-');
  Fmt.pr "%-22s %12.1f %14.0f %14d@." "shared+delta" r.st_wall_ms r.st_alloc_w
    r.st_live_w;
  Fmt.pr "%-22s %12.1f@." "shared+delta (1-CFA)" r.st_pta1_wall_ms;
  Fmt.pr
    "solver: %d sets interned, %d memo hits, %d delta props, %d rounds@."
    r.st_stats.Pta.p_sets_interned r.st_stats.Pta.p_memo_hits
    r.st_stats.Pta.p_delta_props r.st_stats.Pta.p_solver_iters

let stress_json () =
  let r = Lazy.force pta_stress_result in
  let stats_json (s : Pta.stats) =
    Fmt.str
      "{\"sets_interned\":%d,\"memo_hits\":%d,\"delta_props\":%d,\"solver_iters\":%d,\"contexts\":%d,\"fallback_sites\":%d}"
      s.Pta.p_sets_interned s.Pta.p_memo_hits s.Pta.p_delta_props
      s.Pta.p_solver_iters s.Pta.p_contexts s.Pta.p_fallback_sites
  in
  Fmt.str
    "{\n\
    \    \"seed\": %d,\n\
    \    \"constraints\": %d,\n\
    \    \"shared_delta\": {\"wall_ms\": %.1f, \"alloc_words\": %.0f, \"live_words\": %d, \"stats\": %s},\n\
    \    \"pta1\": {\"wall_ms\": %.1f, \"stats\": %s}\n\
    \  }"
    Synth.stress.Synth.seed r.st_constraints r.st_wall_ms r.st_alloc_w
    r.st_live_w (stats_json r.st_stats) r.st_pta1_wall_ms
    (stats_json r.st_pta1_stats)

(* -- machine-readable results (BENCH_deadmem.json) --------------------------------- *)

(* One record per benchmark: wall time of each pipeline phase (the
   median over [runs] repetitions), per-algorithm call-graph shape and
   build time, plus the telemetry counters the instrumented run
   produced. The file is committed, so the performance and precision
   trajectories of the analysis are visible across PRs. *)

type algstats = {
  a_nodes : int;
  a_edges : int;
  a_dead : int;
  a_wall : float;  (* median call-graph build wall ms *)
}

type measurement = {
  m_name : string;
  m_loc : int;
  m_phases : (string * float) list;  (* phase name -> median wall ms *)
  m_run_hist : Telemetry.Histogram.snap;
      (* run-phase latency distribution over the samples (µs), built
         offline with [Histogram.of_values] — telemetry stays off *)
  m_dead : int;
  m_objspace : int;
  m_deadspace : int;
  m_callgraph : (string * algstats) list;  (* "cha" / "rta" / "pta" *)
  m_counters : (string * int) list;
}

let algorithms =
  [ ("cha", Callgraph.Cha); ("rta", Callgraph.Rta); ("pta", Callgraph.Pta) ]

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted -> List.nth sorted (List.length sorted / 2)

(* Order-preserving map, fanned out over [!jobs] domains (atomic work
   cursor, per-index result slots). [jobs = 1] stays a plain map. *)
let parallel_map (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let workers = max 1 (min !jobs (List.length xs)) in
  if workers = 1 then List.map f xs
  else begin
    let input = Array.of_list xs in
    let slots = Array.make (Array.length input) None in
    let next = Atomic.make 0 in
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < Array.length input then begin
          slots.(i) <- Some (f input.(i));
          go ()
        end
      in
      go ()
    in
    let doms = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join doms;
    Array.to_list slots |> List.map Option.get
  end

let measure ?(runs = 1) () : measurement list =
  let runs = max 1 runs in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, (Unix.gettimeofday () -. t0) *. 1e3)
  in
  let was_enabled = Telemetry.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled was_enabled;
      Telemetry.reset ())
    (fun () ->
      parallel_map
        (fun (b : Suite.t) ->
          (* one sample is the whole pipeline, phase by phase; the
             reported time per phase is the median over [runs] samples *)
          (* per-benchmark counter snapshots need exclusive use of the
             global registry; under [--jobs > 1] they are skipped (the
             counters are domain-safe, but a concurrent [reset] would
             clobber another benchmark's sample mid-run) *)
          let exclusive = !jobs = 1 in
          let samples =
            List.init runs (fun _ ->
                if exclusive then begin
                  Telemetry.reset ();
                  Telemetry.set_enabled true
                end;
                let ast, parse_ms =
                  time (fun () -> Frontend.Parser.parse_string b.Suite.source)
                in
                ignore ast;
                (* typechecking is memoized per benchmark, so it is not a
                   timed phase here; bench/e2e measures it cold *)
                let prog = Suite.program b in
                let result, analyze_ms =
                  time (fun () ->
                      Deadmem.Liveness.analyze ~config:Deadmem.Config.paper
                        prog)
                in
                let outcome, run_ms =
                  time (fun () ->
                      Runtime.Interp.run ~engine:!engine
                        ~dead:(Deadmem.Liveness.dead_set result)
                        prog)
                in
                let cg_ms =
                  List.map
                    (fun (name, alg) ->
                      let _, ms =
                        time (fun () -> Callgraph.build ~algorithm:alg prog)
                      in
                      (name, ms))
                    algorithms
                in
                let phases =
                  [
                    ("parse", parse_ms);
                    ("analyze", analyze_ms);
                    ("run", run_ms);
                  ]
                in
                ( phases,
                  cg_ms,
                  ( result,
                    outcome,
                    if exclusive then Telemetry.counters () else [] ) ))
          in
          let last (_, _, x) = x in
          let result, outcome, counters =
            last (List.nth samples (runs - 1))
          in
          let med_phase p =
            median
              (List.filter_map (fun (ps, _, _) -> List.assoc_opt p ps) samples)
          in
          let med_cg name =
            median
              (List.filter_map (fun (_, cs, _) -> List.assoc_opt name cs)
                 samples)
          in
          let prog = Suite.program b in
          let m_callgraph =
            List.map
              (fun (name, alg) ->
                let cg = Callgraph.build ~algorithm:alg prog in
                let config =
                  { Deadmem.Config.paper with Deadmem.Config.call_graph = alg }
                in
                let dead =
                  List.length
                    (Deadmem.Liveness.dead_members
                       (Deadmem.Liveness.analyze ~config prog))
                in
                ( name,
                  {
                    a_nodes = Callgraph.num_nodes cg;
                    a_edges = Callgraph.num_edges cg;
                    a_dead = dead;
                    a_wall = med_cg name;
                  } ))
              algorithms
          in
          let s = outcome.Runtime.Interp.snapshot in
          let run_us =
            List.filter_map
              (fun (ps, _, _) ->
                Option.map
                  (fun ms -> int_of_float (ms *. 1000.))
                  (List.assoc_opt "run" ps))
              samples
          in
          {
            m_name = b.Suite.name;
            m_loc = Suite.loc b;
            m_phases =
              List.map
                (fun p -> (p, med_phase p))
                [ "parse"; "analyze"; "run" ];
            m_run_hist =
              Telemetry.Histogram.of_values
                ~name:("bench.run_us." ^ b.Suite.name)
                run_us;
            m_dead = List.length (Deadmem.Liveness.dead_members result);
            m_objspace = s.Runtime.Profile.object_space;
            m_deadspace = s.Runtime.Profile.dead_space;
            m_callgraph;
            m_counters = counters;
          })
        Suite.all)

(* One measurement per invocation: [json --compare FILE] writes the
   snapshot from the same samples it gates on, so the committed file
   always matches the table the gate printed. *)
let measured = lazy (measure ~runs:5 ())

(* Derived throughput: interpreter steps per microsecond of run-phase
   wall. Steps are pinned across engines (identical observable
   semantics), so this figure isolates representation wins from
   step-count drift: a faster value representation raises it even when
   the step counter is byte-identical. *)
let steps_per_us m =
  match
    ( List.assoc_opt "interp.steps" m.m_counters,
      List.assoc_opt "run" m.m_phases )
  with
  | Some steps, Some run_ms when run_ms > 0.0 ->
      float_of_int steps /. (run_ms *. 1000.0)
  | _ -> 0.0

let bench_json () =
  let out = !json_out in
  let ms = Lazy.force measured in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Fmt.str "{\n  \"engine\": \"%s\",\n  \"pta_stress\": %s,\n  \"benchmarks\": ["
       (engine_name ()) (stress_json ()));
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Fmt.str
           "\n\
           \    {\"name\":\"%s\",\"loc\":%d,\n\
           \     \"wall_ms\":{%s},\n\
           \     \"steps_per_us\":%.2f,\n\
           \     \"run_us_hist\":%s,\n\
           \     \"dead_members\":%d,\"object_space\":%d,\"dead_space\":%d,\n\
           \     \"callgraph\":{%s},\n\
           \     \"counters\":{%s}}"
           (Frontend.Source.json_escape m.m_name)
           m.m_loc
           (String.concat ","
              (List.map
                 (fun (p, v) ->
                   Fmt.str "\"%s\":%.3f" (Frontend.Source.json_escape p) v)
                 m.m_phases))
           (steps_per_us m)
           (Telemetry.histogram_json m.m_run_hist)
           m.m_dead m.m_objspace m.m_deadspace
           (String.concat ","
              (List.map
                 (fun (name, a) ->
                   Fmt.str
                     "\"%s\":{\"nodes\":%d,\"edges\":%d,\"dead_members\":%d,\"wall_ms\":%.3f}"
                     name a.a_nodes a.a_edges a.a_dead a.a_wall)
                 m.m_callgraph))
           (String.concat ","
              (List.map
                 (fun (name, v) ->
                   Fmt.str "\"%s\":%d" (Frontend.Source.json_escape name) v)
                 m.m_counters))))
    ms;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out_bin out in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Buffer.output_buffer oc buf);
  Fmt.pr "wrote %s (%d benchmarks)@." out (List.length ms)

(* -- baseline comparison (--compare) ----------------------------------------------- *)

(* Diff a fresh measurement against a committed BENCH_deadmem.json.
   Both sides are medians over repeated runs, which lets the gate be
   tight: wall-time regressions beyond [regression_pct] in any phase
   fail the comparison (exit 1), but only past an absolute noise floor
   so the sub-millisecond phases of small benchmarks can't trip the
   gate on scheduler jitter. Counter changes and result-shape changes
   (dead members, object/dead space, per-algorithm call-graph shape)
   are reported; result-shape changes also fail, since they mean the
   optimization changed observable behavior, not just speed. The PTA
   build is additionally gated at 2x the CHA build per benchmark. *)
let regression_pct = 10.0

let noise_floor_ms = 2.0

let compare_baseline path contents =
  let module J = Telemetry.Json in
  let doc =
    match J.parse contents with
    | Ok d -> d
    | Error e ->
        Fmt.epr "cannot parse %s: %s@." path e;
        exit 2
  in
  let baseline =
    match Option.bind (J.member "benchmarks" doc) J.to_list with
    | Some rows ->
        List.filter_map
          (fun row ->
            match Option.bind (J.member "name" row) J.to_string with
            | Some name -> Some (name, row)
            | None -> None)
          rows
    | None ->
        Fmt.epr "%s has no \"benchmarks\" array@." path;
        exit 2
  in
  let num obj key =
    match Option.bind (J.member key obj) (function
        | J.Num f -> Some f
        | _ -> None)
      with
    | Some f -> f
    | None -> nan
  in
  let failures = ref [] in
  let fail fmt = Fmt.kstr (fun m -> failures := m :: !failures) fmt in
  (match Option.bind (J.member "engine" doc) J.to_string with
  | Some e when e <> engine_name () ->
      Fmt.pr "@.note: baseline engine '%s', measuring with '%s'@." e
        (engine_name ())
  | _ -> ());
  Fmt.pr "@.Comparison against %s (gate: >%.0f%% + %.0fms phase regression)@."
    path regression_pct noise_floor_ms;
  Fmt.pr "%-10s %-9s %9s %9s %8s@." "name" "phase" "base ms" "now ms" "delta";
  Fmt.pr "%s@." (String.make 50 '-');
  List.iter
    (fun m ->
      match List.assoc_opt m.m_name baseline with
      | None -> fail "%s: not in baseline" m.m_name
      | Some row ->
          let wall =
            match J.member "wall_ms" row with Some w -> w | None -> J.Null
          in
          List.iter
            (fun (phase, now) ->
              let base = num wall phase in
              if Float.is_nan base then
                fail "%s/%s: missing from baseline" m.m_name phase
              else begin
                let delta_pct =
                  if base > 0.0 then (now -. base) /. base *. 100.0 else 0.0
                in
                Fmt.pr "%-10s %-9s %9.3f %9.3f %+7.1f%%@." m.m_name phase base
                  now delta_pct;
                if
                  now > base *. (1.0 +. (regression_pct /. 100.0))
                  && now > base +. noise_floor_ms
                then
                  fail "%s/%s: %.3fms -> %.3fms (+%.1f%%)" m.m_name phase base
                    now delta_pct
              end)
            m.m_phases;
          (* derived throughput: steps/us of run-phase wall. Reported
             next to the gated phases so representation wins stay
             visible even when the step counter is byte-identical;
             informational (run wall above already carries the gate).
             Old baselines predate the field and print '-'. *)
          let now_tput = steps_per_us m in
          let base_tput = num row "steps_per_us" in
          if Float.is_nan base_tput then
            Fmt.pr "%-10s %-9s %9s %9.2f %8s@." m.m_name "steps/us" "-"
              now_tput ""
          else
            Fmt.pr "%-10s %-9s %9.2f %9.2f %+7.1f%%@." m.m_name "steps/us"
              base_tput now_tput
              (if base_tput > 0.0 then
                 (now_tput -. base_tput) /. base_tput *. 100.0
               else 0.0);
          (* result shape must not drift *)
          let same key now =
            let base = num row key in
            if (not (Float.is_nan base)) && int_of_float base <> now then
              fail "%s: %s changed %d -> %d" m.m_name key (int_of_float base)
                now
          in
          same "dead_members" m.m_dead;
          same "object_space" m.m_objspace;
          same "dead_space" m.m_deadspace;
          (* per-algorithm call-graph shape must not drift either: a
             node/edge/dead-count change means precision moved *)
          (match J.member "callgraph" row with
          | Some cgs ->
              List.iter
                (fun (name, a) ->
                  match J.member name cgs with
                  | Some obj ->
                      let chk key now =
                        let base = num obj key in
                        if (not (Float.is_nan base)) && int_of_float base <> now
                        then
                          fail "%s: callgraph.%s.%s changed %d -> %d" m.m_name
                            name key (int_of_float base) now
                      in
                      chk "nodes" a.a_nodes;
                      chk "edges" a.a_edges;
                      chk "dead_members" a.a_dead
                  | None -> ())
                m.m_callgraph
          | None -> ());
          (* the precision of PTA must stay affordable: its build may
             not take more than twice the CHA build on any benchmark *)
          (match
             ( List.assoc_opt "cha" m.m_callgraph,
               List.assoc_opt "pta" m.m_callgraph )
           with
          | Some cha, Some pta ->
              Fmt.pr "%-10s %-9s %9.3f %9.3f %8s@." m.m_name "cg-pta"
                cha.a_wall pta.a_wall "(2x cap)";
              if
                pta.a_wall > 2.0 *. cha.a_wall
                && pta.a_wall > cha.a_wall +. noise_floor_ms
              then
                fail "%s: PTA build %.3fms exceeds 2x CHA build %.3fms"
                  m.m_name pta.a_wall cha.a_wall
          | _ -> ());
          (* counter drift is informational unless it is an interpreter
             semantics counter *)
          let base_counters =
            match J.member "counters" row with
            | Some (J.Obj kvs) ->
                List.filter_map
                  (fun (k, v) ->
                    match v with J.Num f -> Some (k, int_of_float f) | _ -> None)
                  kvs
            | _ -> []
          in
          List.iter
            (fun (k, now) ->
              match List.assoc_opt k base_counters with
              | Some base when base <> now ->
                  Fmt.pr "%-10s   counter %s: %d -> %d@." m.m_name k base now;
                  if k = "interp.steps" || k = "interp.allocations" then
                    fail "%s: %s changed %d -> %d" m.m_name k base now
              | _ -> ())
            m.m_counters)
    (Lazy.force measured);
  match List.rev !failures with
  | [] ->
      Fmt.pr "@.comparison OK: no phase regressed beyond the gate@.";
      true
  | fs ->
      Fmt.epr "@.comparison FAILED:@.";
      List.iter (fun f -> Fmt.epr "  - %s@." f) fs;
      false

(* -- driver ------------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let args =
    let rec go acc = function
      | "--engine" :: e :: rest ->
          (match e with
          | "tree" -> engine := Runtime.Interp.Tree
          | "bytecode" -> engine := Runtime.Interp.Bytecode
          | _ ->
              Fmt.epr "unknown engine '%s' (tree|bytecode)@." e;
              exit 2);
          go acc rest
      | "--jobs" :: n :: rest ->
          (match int_of_string_opt n with
          | Some n when n >= 1 -> jobs := n
          | _ ->
              Fmt.epr "--jobs expects a positive integer@.";
              exit 2);
          go acc rest
      | "--out" :: path :: rest ->
          json_out := path;
          go acc rest
      | "--stress-src" :: path :: rest ->
          (* the pinned stress input as MiniC++ source, so the CLI can
             run the very same program through the analysis pipeline *)
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc (Synth.source Synth.stress));
          Fmt.pr "wrote %s@." path;
          go acc rest
      | a :: rest -> go (a :: acc) rest
      | [] -> List.rev acc
    in
    go [] args
  in
  let compare_path, args =
    let rec go acc = function
      | "--compare" :: path :: rest -> (Some path, List.rev_append acc rest)
      | a :: rest -> go (a :: acc) rest
      | [] -> (None, List.rev acc)
    in
    go [] args
  in
  (* snapshot the baseline before any action can overwrite it ([json
     --compare FILE] refreshes the file and diffs against what it said
     before this run) *)
  let baseline =
    Option.map
      (fun path ->
        let ic =
          try open_in_bin path
          with Sys_error e ->
            Fmt.epr "cannot open baseline: %s@." e;
            exit 2
        in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> (path, really_input_string ic (in_channel_length ic))))
      compare_path
  in
  let all = (args = [] && compare_path = None) || args = [ "all" ] in
  if all || List.mem "table1" args then table1 ();
  if all || List.mem "figure3" args then figure3 ();
  if all || List.mem "table2" args then table2 ();
  if all || List.mem "figure4" args then figure4 ();
  if all || List.mem "ablation" args then ablation ();
  if all || List.mem "perf" args then perf ();
  if all || List.mem "pta-stress" args || List.mem "--pta-stress" args then
    pta_stress ();
  if all || List.mem "json" args then bench_json ();
  match baseline with
  | Some (path, contents) ->
      if not (compare_baseline path contents) then exit 1
  | None -> ()
