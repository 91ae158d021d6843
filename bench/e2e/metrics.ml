(* Every metric the benchmark reports, with its unit and direction. The
   end-to-end bounds are the regression bounds BENCHMARK.json declares;
   the smoke run fails when the two disagree. Per-layer values are means
   per traced op unless the name says otherwise (p50/p90, ratios). *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

type e2e = { e_name : string; e_unit : string; e_better : better; bound : float }

let end_to_end =
  [
    { e_name = "setup_s"; e_unit = "s"; e_better = Lower; bound = 0.25 };
    { e_name = "ops_per_s"; e_unit = "ops/s"; e_better = Higher; bound = 0.2 };
    { e_name = "latency_p50_ms"; e_unit = "ms"; e_better = Lower; bound = 0.2 };
    { e_name = "latency_p90_ms"; e_unit = "ms"; e_better = Lower; bound = 0.2 };
    { e_name = "peak_rss_mb"; e_unit = "MiB"; e_better = Lower; bound = 0.15 };
  ]

(* Where a per-layer value comes from: a layer span's busy time or
   allocation, a deterministic count accumulated at the layer boundary,
   or a value the harness or the workload derives. *)
type src = Busy of string | Alloc of string | Count of string | Derived

type layer = { l_name : string; l_unit : string; l_better : better; src : src }

let busy span = { l_name = span ^ ".busy_ms"; l_unit = "ms"; l_better = Lower; src = Busy span }
let alloc span = { l_name = span ^ ".alloc_mwords"; l_unit = "Mwords"; l_better = Lower; src = Alloc span }
let count ?(better = Lower) name = { l_name = name; l_unit = "count"; l_better = better; src = Count name }
let derived ?(better = Lower) name unit = { l_name = name; l_unit = unit; l_better = better; src = Derived }

let per_layer =
  [
    busy "runtime.execute";
    alloc "runtime.execute";
    count "runtime.execute.steps";
    derived ~better:Higher "runtime.execute.steps_per_us" "1/us";
    count "runtime.execute.dispatches";
    count "runtime.execute.objects";
    busy "runtime.resolve";
    alloc "runtime.resolve";
    busy "runtime.compile";
    alloc "runtime.compile";
    count "runtime.compile.instructions";
    busy "frontend.lex";
    alloc "frontend.lex";
    count "frontend.lex.tokens";
    busy "frontend.parse";
    alloc "frontend.parse";
    busy "sema.typecheck";
    alloc "sema.typecheck";
    busy "callgraph.build";
    count "callgraph.nodes";
    count "callgraph.edges";
    busy "pta.solve";
    count "pta.constraints";
    count "pta.delta_props";
    count ~better:Higher "pta.memo_hits";
    count "pta.sets_interned";
    count "pta.solver_iters";
    busy "deadmem.analyze";
    alloc "deadmem.analyze";
    derived "deadmem.liveness.self_ms" "ms";
    count ~better:Higher "deadmem.dead_members";
    derived "server.queue_ms_p50" "ms";
    derived "server.queue_ms_p90" "ms";
    derived "server.service_ms_p50.run" "ms";
    derived "server.service_ms_p90.run" "ms";
    derived "server.service_ms_p50.analyze" "ms";
    derived "server.service_ms_p90.analyze" "ms";
    derived "server.phase.parse_ms" "ms";
    derived "server.phase.analyze_ms" "ms";
    derived "server.phase.run_ms" "ms";
    derived ~better:Higher "server.phase.coverage" "ratio";
    derived ~better:Higher "server.cache_hit_ratio" "ratio";
    derived "server.worker_restarts" "count";
    derived "client.transport_ms_p50" "ms";
    derived "cli.startup_ms_p50" "ms";
    derived "cli.process_ms_p50" "ms";
    derived "cli.work_ms_p50" "ms";
    derived "gc.minor_collections" "count";
    derived "gc.major_collections" "count";
    derived "gc.top_heap_mwords" "Mwords";
    derived ~better:Higher "trace.layer_coverage" "ratio";
    derived "trace.overhead_pct" "%";
  ]

(* Counts that must repeat exactly between runs of one workload and
   seed: they depend on the inputs and the program, never on timing. *)
let deterministic =
  List.filter_map
    (fun l -> match l.src with Count _ -> Some l.l_name | _ -> None)
    per_layer
