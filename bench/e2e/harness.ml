(* The measuring loop shared by every workload.

   A workload is set up several times (the median is [setup_s]; every
   set-up but the last is torn down again), then runs whole cycles of
   ops in a closed loop until [seconds] have passed and at least
   [min_ops] ops completed. A cycle visits every input of the workload
   once in a seeded order, so each run measures the same mix whatever
   its length, and per-op means of deterministic counts repeat exactly.

   Times are scaled to the reference CPU speed of {!Calib}, sampled
   just before every timed op. Throughput follows from the scaled
   latencies by Little's law for a closed loop without think time:
   clients / mean latency.

   A traced run alternates traced and untraced cycles: the traced ones
   give the per-layer numbers, and comparing the two gives the tracing
   overhead. End-to-end metrics come from untraced cycles only. *)

type env = {
  seed : int;
  cli : string;  (** path of the deadmem executable *)
  workdir : string;  (** scratch files: sources, socket, logs *)
  smoke : bool;  (** truncate every cycle to a couple of ops *)
  traced : bool;  (** a traced run (half its cycles record spans) *)
}

type recorder = {
  mu : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** first few, newest first *)
  mutable measuring : bool;  (** false while setting up: checked, not timed *)
  mutable speeds : float list;  (** {!Calib.speed} before each measured op *)
  mutable lat : float list;  (** scaled seconds, untraced measured ops *)
  mutable lat_wall : float list;  (** the same ops, wall seconds *)
  mutable lat_traced : float list;  (** scaled seconds, traced ops *)
}

(* What one cycle's ops run under. *)
type cycle = { env : env; rc : recorder; tr : Trace.t option }

let record rc ~traced ~speed ~wall verdict =
  Mutex.protect rc.mu @@ fun () ->
  rc.attempted <- rc.attempted + 1;
  (match verdict with
  | Ok () -> ()
  | Error e ->
      rc.failed <- rc.failed + 1;
      if List.length rc.errors < 5 then rc.errors <- e :: rc.errors);
  if rc.measuring then begin
    rc.speeds <- speed :: rc.speeds;
    if traced then rc.lat_traced <- (wall *. speed) :: rc.lat_traced
    else begin
      rc.lat <- (wall *. speed) :: rc.lat;
      rc.lat_wall <- wall :: rc.lat_wall
    end
  end

(* One op: [run] is timed (as the op's root span when traced), [check]
   compares its result with the expected answer afterwards, untimed;
   traced ops also take their probes and counts there. An exception in
   either counts as a failed op. *)
let op (c : cycle) ?(tid = 1) ~label (run : Trace.scope option -> 'a)
    (check : Trace.scope option -> 'a -> (unit, string) result) =
  let speed = if c.rc.measuring then Calib.speed () else 1. in
  let scope =
    Option.map
      (fun tr ->
        let id = Trace.fresh tr in
        { Trace.tr; op = id; parent = id; tid; scale = speed })
      c.tr
  in
  let a0 = if c.tr = None then 0. else Gc.minor_words () in
  let t0 = Osproc.now () in
  let r = match run scope with v -> Ok v | exception e -> Error e in
  let t1 = Osproc.now () in
  Option.iter
    (fun s -> Trace.add_root s ~label ~alloc_words:(Gc.minor_words () -. a0) t0 t1)
    scope;
  let verdict =
    match r with
    | Ok v -> ( try check scope v with e -> Error (label ^ ": " ^ Printexc.to_string e))
    | Error e -> Error (label ^ ": " ^ Printexc.to_string e)
  in
  record c.rc ~traced:(c.tr <> None) ~speed ~wall:(t1 -. t0) verdict

(* A set-up workload. [layers] gives the workload's own derived
   per-layer values after a traced run; [peak_rss_kib] is read after
   [stop]. *)
type instance = {
  cycle : cycle -> unit;
  stop : unit -> unit;
  layers : Trace.t -> (string * float) list;
  peak_rss_kib : unit -> int;
  clients : int;  (** concurrent closed-loop clients *)
  in_process : bool;  (** the work runs in this process (GC numbers apply) *)
}

type workload = { name : string; setup : cycle -> instance }

(* Seeded helpers shared by the workloads. *)
let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* [n] values spread evenly over [lo, hi], ascending. *)
let strata n lo hi = Array.init n (fun k -> lo + ((hi - lo) * ((2 * k) + 1) / (2 * n)))

(* At most two ops per cycle in a smoke run. *)
let truncate (env : env) a =
  if env.smoke && Array.length a > 2 then Array.sub a 0 2 else a

let ms s = s *. 1000.
let p50_ms xs = ms (Stats.median xs)
let mean xs = Stats.sum xs /. float_of_int (max 1 (List.length xs))

type result = {
  r_attempted : int;
  r_failed : int;
  r_errors : string list;
  r_ops : int;  (** measured untraced ops *)
  r_e2e : (string * float) list;
  r_info : (string * float) list;  (** printed and recorded, not gated *)
  r_layers : (string * float) list;  (** empty when untraced *)
  r_trace : Trace.t option;
}

let finite x = if Float.is_finite x then x else 0.

let per_layer_values inst tr ~gc ~overhead_pct =
  let nops = float_of_int (List.length (Trace.ops tr)) in
  let per_op x = if nops > 0. then x /. nops else 0. in
  let derived =
    [
      ( "runtime.execute.steps_per_us",
        Trace.counted tr "runtime.execute.steps"
        /. (Trace.busy_s tr "runtime.execute" *. 1e6) );
      ( "deadmem.liveness.self_ms",
        per_op (ms (Trace.busy_s tr "deadmem.analyze" -. Trace.busy_s tr "callgraph.build")) );
      ("trace.layer_coverage", Trace.layer_coverage tr);
      ("trace.overhead_pct", overhead_pct);
    ]
    @ (if inst.in_process then
         let minor, major, top = gc in
         [
           ("gc.minor_collections", per_op minor);
           ("gc.major_collections", per_op major);
           ("gc.top_heap_mwords", top /. 1e6);
         ]
       else [])
    @ inst.layers tr
  in
  List.map
    (fun (l : Metrics.layer) ->
      let v =
        match l.src with
        | Metrics.Busy s -> per_op (ms (Trace.busy_s tr s))
        | Alloc s -> per_op (Trace.alloc_words tr s) /. 1e6
        | Count s -> per_op (Trace.counted tr s)
        | Derived -> Option.value (List.assoc_opt l.l_name derived) ~default:0.
      in
      (l.l_name, finite v))
    Metrics.per_layer

let run (w : workload) env ~seconds ~min_ops ~setup_reps =
  let traced = env.traced in
  let rc =
    {
      mu = Mutex.create ();
      attempted = 0;
      failed = 0;
      errors = [];
      measuring = false;
      speeds = [];
      lat = [];
      lat_wall = [];
      lat_traced = [];
    }
  in
  let setup_cycle = { env; rc; tr = None } in
  let rec setups i acc =
    let speed = Calib.speed ~samples:3 () in
    let t0 = Osproc.now () in
    let inst = w.setup setup_cycle in
    let dt = (Osproc.now () -. t0) *. speed in
    if i + 1 < setup_reps then begin
      inst.stop ();
      setups (i + 1) (dt :: acc)
    end
    else (inst, dt :: acc)
  in
  let inst, setup_times = setups 0 [] in
  let tr = if traced then Some (Trace.create ()) else None in
  rc.measuring <- true;
  let wall = ref 0. in
  let gc_minor = ref 0. and gc_major = ref 0. in
  let start = Osproc.now () in
  let k = ref 0 in
  let ops () = List.length rc.lat + List.length rc.lat_traced in
  Fun.protect ~finally:inst.stop (fun () ->
      while
        let elapsed = Osproc.now () -. start in
        elapsed < 120.
        && (elapsed < seconds || ops () < min_ops || (traced && !k < 2))
      do
        let traced_cycle = traced && !k mod 2 = 0 in
        let g0 = Gc.quick_stat () in
        let c0 = Osproc.now () in
        inst.cycle { env; rc; tr = (if traced_cycle then tr else None) };
        if not traced_cycle then wall := !wall +. (Osproc.now () -. c0);
        if traced_cycle then begin
          let g1 = Gc.quick_stat () in
          gc_minor := !gc_minor +. float_of_int (g1.minor_collections - g0.minor_collections);
          gc_major := !gc_major +. float_of_int (g1.major_collections - g0.major_collections)
        end;
        incr k
      done);
  let n = List.length rc.lat in
  let rss = if inst.in_process then Osproc.self_hwm_kib () else inst.peak_rss_kib () in
  let clients = float_of_int inst.clients in
  let e2e =
    [
      ("setup_s", Stats.median setup_times);
      ("ops_per_s", clients /. mean rc.lat);
      ("latency_p50_ms", p50_ms rc.lat);
      ("latency_p90_ms", ms (Stats.p90 rc.lat));
      ("peak_rss_mb", float_of_int rss /. 1024.);
    ]
  in
  let info =
    [
      ("failed_frac", float_of_int rc.failed /. float_of_int (max 1 rc.attempted));
      ("wall.ops_per_s", float_of_int n /. !wall);
      ("wall.latency_p50_ms", p50_ms rc.lat_wall);
      ("wall.latency_p90_ms", ms (Stats.p90 rc.lat_wall));
      ("calib.speed_p50", Stats.median rc.speeds);
    ]
    @ if n >= 1000 then [ ("latency_p99_ms", ms (Stats.p99 rc.lat)) ] else []
  in
  let layers =
    match tr with
    | None -> []
    | Some tr ->
        let overhead_pct = ((mean rc.lat_traced /. mean rc.lat) -. 1.) *. 100. in
        let top = float_of_int (Gc.quick_stat ()).top_heap_words in
        per_layer_values inst tr ~gc:(!gc_minor, !gc_major, top) ~overhead_pct
  in
  {
    r_attempted = rc.attempted;
    r_failed = rc.failed;
    r_errors = List.rev rc.errors;
    r_ops = n;
    r_e2e = List.map (fun (k, v) -> (k, finite v)) e2e;
    r_info = List.map (fun (k, v) -> (k, finite v)) info;
    r_layers = layers;
    r_trace = tr;
  }
