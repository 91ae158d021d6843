(* End-to-end benchmark of deadmem. See README.md in this directory.

     deadmem_bench.exe --workload W --seed N --seconds S --trace 0|1
         one workload in this process; the last stdout line is
         {"correct","attempted","failed","metrics"}: end-to-end metrics
         untraced, per-layer metrics traced
     deadmem_bench.exe [--seed N] [--trace 0|1]
         all four workloads, each in a child process of its own
     deadmem_bench.exe --smoke
         every workload for a couple of ops, traced; checks the metric
         names against BENCHMARK.json
     deadmem_bench.exe --repeat-check A.jsonl B.jsonl ...
         compare sets of recorded runs against the metric bounds *)

module J = Telemetry.Json

let workloads = [ Wl_paper.workload; Wl_synth.workload; Wl_serve.workload; Wl_cli.workload ]

(* Workloads whose op time the traced layers must account for. *)
let coverage_floor = 0.97
let coverage_checked = [ "paper_suite"; "synth_pta" ]

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable trace_out : string option;
  mutable results : string option;
  mutable cli : string;
  mutable workdir : string;
  mutable smoke : bool;
  mutable manifest : string;
  mutable repeat_check : string list;
}

let usage () =
  prerr_endline
    "usage: deadmem_bench.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
    \       [--trace-out FILE] [--results FILE] [--cli PATH] [--workdir DIR]\n\
    \       [--smoke] [--manifest BENCHMARK.json] | --repeat-check SET.jsonl...";
  exit 2

let parse_args argv =
  let o =
    {
      workload = None;
      seed = 1;
      seconds = 10.;
      trace = false;
      trace_out = None;
      results = None;
      cli = "_build/default/bin/deadmem_cli.exe";
      workdir = "_bench";
      smoke = false;
      manifest = "BENCHMARK.json";
      repeat_check = [];
    }
  in
  let num f v = match f v with Some x -> x | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: r -> o.workload <- Some v; go r
    | "--seed" :: v :: r -> o.seed <- num int_of_string_opt v; go r
    | "--seconds" :: v :: r -> o.seconds <- num float_of_string_opt v; go r
    | "--trace" :: ("0" | "1" as v) :: r -> o.trace <- v = "1"; go r
    | "--trace-out" :: v :: r -> o.trace_out <- Some v; go r
    | "--results" :: v :: r -> o.results <- Some v; go r
    | "--cli" :: v :: r -> o.cli <- v; go r
    | "--workdir" :: v :: r -> o.workdir <- v; go r
    | "--manifest" :: v :: r -> o.manifest <- v; go r
    | "--smoke" :: r -> o.smoke <- true; go r
    | "--repeat-check" :: files -> o.repeat_check <- files
    | a :: _ ->
        prerr_endline ("unknown argument: " ^ a);
        usage ()
  in
  go (List.tl (Array.to_list argv));
  o

let jnum x = Printf.sprintf "%.17g" x
let jstr s = "\"" ^ Frontend.Source.json_escape s ^ "\""

let metrics_json units values =
  "{"
  ^ String.concat ","
      (List.map
         (fun (name, v) ->
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (jstr name) (jnum v)
             (jstr (List.assoc name units)))
         values)
  ^ "}"

let e2e_units = List.map (fun (m : Metrics.e2e) -> (m.e_name, m.e_unit)) Metrics.end_to_end
let layer_units = List.map (fun (m : Metrics.layer) -> (m.l_name, m.l_unit)) Metrics.per_layer
let all_units = e2e_units @ layer_units

let info_units =
  [
    ("failed_frac", "fraction");
    ("wall.ops_per_s", "ops/s");
    ("wall.latency_p50_ms", "ms");
    ("wall.latency_p90_ms", "ms");
    ("calib.speed_p50", "x");
    ("latency_p99_ms", "ms");
  ]

(* -- one workload ------------------------------------------------------------- *)

let print_table title units values =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, v) -> Printf.printf "  %-34s %16.6g  %s\n" name v (List.assoc name units))
    values

let validate_trace path =
  match J.parse ~max_depth:8 (Osproc.read_file path) with
  | Ok j -> (
      match Option.bind (J.member "traceEvents" j) J.to_list with
      | Some (_ :: _) -> None
      | _ -> Some (path ^ ": no trace events"))
  | Error e -> Some (path ^ ": invalid trace JSON: " ^ e)

let run_one o (w : Harness.workload) =
  if not (Sys.file_exists o.cli) then begin
    Printf.eprintf "deadmem executable not found at %s (pass --cli)\n" o.cli;
    exit 2
  end;
  Osproc.mkdir_p o.workdir;
  let env =
    { Harness.seed = o.seed; cli = o.cli; workdir = o.workdir; smoke = o.smoke; traced = o.trace }
  in
  let r =
    if o.smoke then Harness.run w env ~seconds:0. ~min_ops:1 ~setup_reps:1
    else Harness.run w env ~seconds:o.seconds ~min_ops:120 ~setup_reps:5
  in
  let coverage = Option.value (List.assoc_opt "trace.layer_coverage" r.r_layers) ~default:1. in
  let trace_errors =
    match r.r_trace with
    | None -> []
    | Some tr ->
        let path =
          Option.value o.trace_out
            ~default:(Filename.concat o.workdir (Printf.sprintf "trace-%s-seed%d.json" w.name o.seed))
        in
        Osproc.write_file path (Trace.chrome_json tr);
        Printf.printf "trace: %s (%d spans)\n" path (List.length tr.spans);
        (if List.mem w.name coverage_checked && coverage < coverage_floor then
           [ Printf.sprintf "trace.layer_coverage %.4f is below %.2f" coverage coverage_floor ]
         else [])
        @ Option.to_list (validate_trace path)
  in
  let errors = r.r_errors @ trace_errors in
  let correct = r.r_failed = 0 && trace_errors = [] in
  Printf.printf "workload %s, seed %d, %s: %d ops measured, %d attempted, %d failed\n" w.name
    o.seed (if o.trace then "traced" else "untraced") r.r_ops r.r_attempted r.r_failed;
  List.iter (fun e -> Printf.printf "  FAILED: %s\n" e) errors;
  print_table
    (if o.trace then "end-to-end (untraced cycles of a traced run; informational)"
     else "end-to-end (times scaled to the reference CPU speed)")
    e2e_units r.r_e2e;
  print_table "informational (wall = unscaled)" info_units r.r_info;
  if o.trace then print_table "per layer (mean per traced op unless named otherwise)" layer_units r.r_layers;
  let metrics = r.r_e2e @ r.r_layers in
  let results = Option.value o.results ~default:(Filename.concat o.workdir "results.jsonl") in
  Osproc.append_line results
    (Printf.sprintf
       "{\"workload\":%s,\"seed\":%d,\"seconds\":%s,\"traced\":%b,\"smoke\":%b,\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"ops\":%d,\"errors\":[%s],\"info\":%s,\"metrics\":%s}"
       (jstr w.name) o.seed (jnum o.seconds) o.trace o.smoke correct r.r_attempted r.r_failed
       r.r_ops
       (String.concat "," (List.map jstr errors))
       (metrics_json info_units r.r_info)
       (metrics_json all_units metrics));
  let shown = if o.smoke then metrics else if o.trace then r.r_layers else r.r_e2e in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n%!" correct
    r.r_attempted r.r_failed (metrics_json all_units shown);
  exit (if correct then 0 else 1)

(* -- all workloads, each in a child process ------------------------------------- *)

(* The [metrics] of a result object, as (name, value) pairs. *)
let metric_values j =
  match J.member "metrics" j with
  | Some (J.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> match J.member "value" v with Some (J.Num f) -> Some (k, f) | _ -> None)
        kvs
  | _ -> []

(* The metric declarations in BENCHMARK.json must be the ones this
   program reports, with the same units, directions and bounds. *)
let manifest_errors path =
  match J.parse (Osproc.read_file path) with
  | exception Sys_error e -> [ e ]
  | Error e -> [ path ^ ": " ^ e ]
  | Ok j ->
      (* one "name unit better bound" line per entry; absent fields are empty *)
      let line = String.concat " " in
      let declared key =
        Option.value ~default:[] (Option.bind (J.member key j) J.to_list)
        |> List.map (fun e ->
               line
                 (List.map
                    (fun k ->
                      match J.member k e with
                      | Some (J.Str s) -> s
                      | Some (J.Num f) -> Printf.sprintf "%g" f
                      | _ -> "")
                    [ "name"; "unit"; "better"; "bound" ]))
      in
      let differ key ours =
        let theirs = declared key in
        let only where a b =
          List.filter_map
            (fun l -> if List.mem l b then None else Some (Printf.sprintf "%s: only in %s: %s" key where l))
            a
        in
        only "BENCHMARK.json" theirs ours @ only "the benchmark" ours theirs
      in
      differ "workloads" (List.map (fun (w : Harness.workload) -> line [ w.name; ""; ""; "" ]) workloads)
      @ differ "end_to_end"
          (List.map
             (fun (m : Metrics.e2e) ->
               line [ m.e_name; m.e_unit; Metrics.better_name m.e_better; Printf.sprintf "%g" m.bound ])
             Metrics.end_to_end)
      @ differ "per_layer"
          (List.map
             (fun (m : Metrics.layer) -> line [ m.l_name; m.l_unit; Metrics.better_name m.l_better; "" ])
             Metrics.per_layer)

let run_all o =
  let t0 = Osproc.now () in
  let outcomes =
    List.map
      (fun (w : Harness.workload) ->
        let argv =
          Array.of_list
            ([ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int o.seed;
               "--seconds"; jnum o.seconds; "--trace"; (if o.trace then "1" else "0");
               "--cli"; o.cli; "--workdir"; o.workdir ]
            @ (match o.results with Some f -> [ "--results"; f ] | None -> [])
            @ if o.smoke then [ "--smoke" ] else [])
        in
        let code, out = Osproc.run_capture ~stderr:Unix.stderr argv in
        (* a passing smoke run stays quiet under `dune runtest` *)
        if code <> 0 || not o.smoke then print_string out;
        (* the child's last line: {"correct","attempted","failed","metrics"} *)
        let last =
          match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) with
          | l :: _ -> Result.value (J.parse l) ~default:J.Null
          | [] -> J.Null
        in
        let count key = Option.value ~default:0 (Option.bind (J.member key last) J.to_int) in
        (w.name, code = 0, count "attempted", count "failed", metric_values last))
      workloads
  in
  let smoke_errors =
    if not o.smoke then []
    else
      List.concat_map
        (fun (name, _, _, _, metrics) ->
          List.filter_map
            (fun (m, _) ->
              if List.mem_assoc m metrics then None
              else Some (Printf.sprintf "%s did not print %s" name m))
            all_units)
        outcomes
      @ manifest_errors o.manifest
  in
  let correct = smoke_errors = [] && List.for_all (fun (_, ok, _, _, _) -> ok) outcomes in
  let total f = List.fold_left (fun acc x -> acc + f x) 0 outcomes in
  if o.smoke then begin
    List.iter (fun m -> Printf.printf "SMOKE FAILED: %s\n" m) smoke_errors;
    exit (if correct then 0 else 1)
  end;
  Printf.printf "all workloads: %s in %.1f s\n" (if correct then "correct" else "FAILED")
    (Osproc.now () -. t0);
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"workloads\":{%s}}\n%!" correct
    (total (fun (_, _, a, _, _) -> a))
    (total (fun (_, _, _, f, _) -> f))
    (String.concat ","
       (List.map
          (fun (name, _, _, _, metrics) ->
            Printf.sprintf "%s:{%s}" (jstr name)
              (String.concat ","
                 (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (jstr k) (jnum v)) metrics)))
          outcomes));
  exit (if correct then 0 else 1)

(* -- repeat check ----------------------------------------------------------------- *)

type recorded = { workload : string; seed : int; traced : bool; values : (string * float) list }

let load_set path =
  String.split_on_char '\n' (Osproc.read_file path)
  |> List.filter_map (fun line ->
         match J.parse line with
         | Error _ -> None
         | Ok j ->
             Option.map
               (fun workload ->
                 {
                   workload;
                   seed = Option.value ~default:0 (Option.bind (J.member "seed" j) J.to_int);
                   traced = J.member "traced" j = Some (J.Bool true);
                   values = metric_values j;
                 })
               (Option.bind (J.member "workload" j) J.to_string))

let repeat_check files =
  let sets = List.map (fun f -> (f, load_set f)) files in
  let bad = ref false in
  Printf.printf "%-12s %-15s %s  %s\n" "workload" "metric"
    (String.concat "  "
       (List.mapi (fun i _ -> Printf.sprintf "%-38s" (Printf.sprintf "set %d median [q1, q3] spread" (i + 1))) sets))
    "verdict vs set 1";
  List.iter
    (fun (w : Harness.workload) ->
      List.iter
        (fun (m : Metrics.e2e) ->
          let per_set =
            List.map
              (fun (_, runs) ->
                List.filter_map
                  (fun r ->
                    if r.workload = w.name && not r.traced then List.assoc_opt m.e_name r.values
                    else None)
                  runs)
              sets
          in
          if List.exists (( <> ) []) per_set then begin
            let summary vs =
              let q1, med, q3 = Stats.quartiles vs in
              (med, q1, q3, (q3 -. q1) /. med)
            in
            let sums = List.map summary per_set in
            let cells =
              List.map2
                (fun vs (med, q1, q3, spread) ->
                  Printf.sprintf "%-38s"
                    (Printf.sprintf "%.4g [%.4g, %.4g] %.1f%% (n=%d)" med q1 q3 (spread *. 100.)
                       (List.length vs)))
                per_set sums
            in
            let base_med, _, _, base_spread = List.hd sums in
            let worse med =
              match m.e_better with
              | Metrics.Lower -> (med -. base_med) /. base_med
              | Higher -> (base_med -. med) /. base_med
            in
            let verdicts =
              List.mapi
                (fun i ((med, _, _, spread), vs) ->
                  if i = 0 then None
                  else
                    let w = worse med in
                    let base_vs = List.hd per_set in
                    let all_better =
                      List.for_all
                        (fun x ->
                          List.for_all
                            (fun b -> match m.e_better with Metrics.Lower -> x < b | Higher -> x > b)
                            base_vs)
                        vs
                    in
                    Some
                      (if (base_spread > m.bound || spread > m.bound) && not all_better then
                         Printf.sprintf "set %d: unresolved (%+.1f%%, spread above the %.0f%% bound)"
                           (i + 1) (-.w *. 100.) (m.bound *. 100.)
                       else if w > m.bound then begin
                         bad := true;
                         Printf.sprintf "set %d: WORSE by %.1f%% (bound %.0f%%)" (i + 1) (w *. 100.)
                           (m.bound *. 100.)
                       end
                       else
                         Printf.sprintf "set %d: ok (%+.1f%%, bound %.0f%%)" (i + 1) (-.w *. 100.)
                           (m.bound *. 100.)))
                (List.combine sums per_set)
              |> List.filter_map Fun.id
            in
            Printf.printf "%-12s %-15s %s  %s\n" w.name m.e_name (String.concat "  " cells)
              (String.concat "; " verdicts)
          end)
        Metrics.end_to_end)
    workloads;
  (* deterministic counts: identical in every traced run of a workload
     and seed, across all sets *)
  let traced = List.concat_map (fun (_, runs) -> List.filter (fun r -> r.traced) runs) sets in
  let keys = List.sort_uniq compare (List.map (fun r -> (r.workload, r.seed)) traced) in
  List.iter
    (fun (wname, seed) ->
      let runs = List.filter (fun r -> r.workload = wname && r.seed = seed) traced in
      let mismatched =
        List.filter
          (fun name ->
            match List.sort_uniq compare (List.filter_map (fun r -> List.assoc_opt name r.values) runs) with
            | [] | [ _ ] -> false
            | _ -> true)
          Metrics.deterministic
      in
      if mismatched <> [] then bad := true;
      Printf.printf "%s seed %d: %d traced runs, deterministic counts %s\n" wname seed (List.length runs)
        (if mismatched = [] then "identical" else "DIFFER: " ^ String.concat ", " mismatched))
    keys;
  exit (if !bad then 1 else 0)

let () =
  (* a daemon that dies mid-write must fail the op, not this process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let o = parse_args Sys.argv in
  if o.smoke then o.trace <- true;
  if o.repeat_check <> [] then repeat_check o.repeat_check
  else
    match o.workload with
    | None -> run_all o
    | Some name -> (
        match List.find_opt (fun (w : Harness.workload) -> w.name = name) workloads with
        | Some w -> run_one o w
        | None ->
            prerr_endline ("unknown workload: " ^ name);
            exit 2)
