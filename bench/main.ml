(* Reproduction harness: regenerates every table and figure of the
   paper's evaluation (Section 4), plus the ablations discussed in §3.1
   and §3.2. Timing the system is bench/e2e's job.

     dune exec bench/main.exe             -- the five sections below
     dune exec bench/main.exe -- table1   -- benchmark characteristics
     dune exec bench/main.exe -- figure3  -- static dead-member percentages
     dune exec bench/main.exe -- table2   -- dynamic object-space numbers
     dune exec bench/main.exe -- figure4  -- dead space / HWM reduction bars
     dune exec bench/main.exe -- ablation -- call-graph & policy ablations
     dune exec bench/main.exe -- all      -- same as no arguments

   and two probes of the points-to solver at scale:

     dune exec bench/main.exe -- pta-stress      -- solver JSON on stdout
     dune exec bench/main.exe -- stress-src FILE -- write its input program

   Any other argument prints a usage line and exits 2. The default
   output is pinned by bench/paper_tables.expected. *)

open Benchmarks

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
    Runtime.Interp.run ~dead:(Deadmem.Liveness.dead_set result) prog
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

(* -- points-to stress ------------------------------------------------------------ *)

(* The scalability probe of the points-to solver: one 196k-constraint
   synthetic input at a pinned seed (Synth.stress), solved in both
   modes, measuring wall clock, total allocation, and live heap retained
   by the solution. It prints one JSON object; CI pins the deterministic
   fields (constraints, solver counters) exactly and bounds allocation
   and live heap. *)

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

let stats_json (s : Pta.stats) =
  Fmt.str
    "{\"delta_props\":%d,\"solver_iters\":%d,\"contexts\":%d,\"fallback_sites\":%d}"
    s.Pta.p_delta_props s.Pta.p_solver_iters s.Pta.p_contexts s.Pta.p_fallback_sites

let pta_stress () =
  let prog = Synth.program Synth.stress in
  (* 1-CFA first: its dispatch lookups fill the class table's memo, so
     the plain solve's words measure the solver alone *)
  let pta1_stats, pta1_wall =
    let sol1, w1, _, _ =
      measure_solver (fun () -> Pta.analyze ~mode:Pta.OneCfa prog)
    in
    (Pta.stats sol1, w1)
  in
  let sol, wall, alloc, live = measure_solver (fun () -> Pta.analyze prog) in
  Fmt.pr
    "{\n\
    \  \"seed\": %d,\n\
    \  \"constraints\": %d,\n\
    \  \"pta\": {\"wall_ms\": %.1f, \"alloc_words\": %.0f, \"live_words\": %d, \"stats\": %s},\n\
    \  \"pta1\": {\"wall_ms\": %.1f, \"stats\": %s}\n\
     }@."
    Synth.stress.Synth.seed (Pta.num_constraints sol) wall alloc live
    (stats_json (Pta.stats sol))
    pta1_wall (stats_json pta1_stats)

(* -- command line ------------------------------------------------------------------ *)

let sections =
  [
    ("table1", table1);
    ("figure3", figure3);
    ("table2", table2);
    ("figure4", figure4);
    ("ablation", ablation);
  ]

let usage =
  "usage: main.exe [table1|figure3|table2|figure4|ablation|all|pta-stress]... \
   | main.exe stress-src FILE"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "stress-src"; path ] ->
      (* the pinned stress input as MiniC++ source, so the CLI can run
         the very same program through the analysis pipeline *)
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Synth.source Synth.stress));
      Fmt.pr "wrote %s@." path
  | args
    when List.for_all
           (fun a ->
             a = "all" || a = "pta-stress" || List.mem_assoc a sections)
           args ->
      let all = args = [] || List.mem "all" args in
      List.iter
        (fun (name, print) -> if all || List.mem name args then print ())
        sections;
      if List.mem "pta-stress" args then pta_stress ()
  | _ ->
      prerr_endline usage;
      exit 2
