(* serve_mix: `deadmem serve --socket --jobs 2`, driven by two
   closed-loop connections from this process, the way editor and CI
   clients each wait for their reply. A cycle is 27 requests in a seeded
   order, 81% runs and 19% analyses:

   - 22 `run` with profile:true, two per paper port. After set-up these
     hit the content cache, so only execution remains: compile is
     amortized here but paid on every op of paper_suite.
   - 5 `analyze` with callgraph "pta" on small generated programs, each
     unique, so they miss the cache and pay the frontend and PTA.

   With this mix the median request falls between the two runs of one
   port (lcom) rather than on the edge between two ports, so it does not
   jump from one port's latency to the next with the noise.

   A traced run also starts the daemon with `--slow-ms 1` and joins its
   slow-request lines to the client's requests on the trace id. The
   server-side numbers (its stats, its slow log, and transport = client
   wall latency minus the server's total) are wall times as the daemon
   measured them, not scaled. *)

module J = Telemetry.Json

let runs_per_port = 2
let analyses = 5

(* -- one connection ---------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some { fd; pending = Buffer.create 4096; chunk = Bytes.create 65536 }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let rec write_all fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len

(* Send one frame and wait for its one response line. *)
let request c line =
  let b = Bytes.of_string (line ^ "\n") in
  write_all c.fd b 0 (Bytes.length b);
  let rec read () =
    let s = Buffer.contents c.pending in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear c.pending;
        Buffer.add_substring c.pending s (i + 1) (String.length s - i - 1);
        String.sub s 0 i
    | None -> (
        match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
        | 0 -> failwith "daemon closed the connection"
        | n ->
            Buffer.add_subbytes c.pending c.chunk 0 n;
            read ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ())
  in
  read ()

(* -- requests and their answers -------------------------------------------- *)

type item =
  | Run of Expected.golden * string  (** escaped source *)
  | Analyze of int * int * string  (** generator seed, classes, escaped source *)

let frame item ~id =
  let trace = Printf.sprintf "b%d" id in
  ( trace,
    match item with
    | Run (_, src) ->
        Printf.sprintf {|{"id":%d,"cmd":"run","profile":true,"trace_id":"%s","source":"%s"}|}
          id trace src
    | Analyze (_, _, src) ->
        Printf.sprintf {|{"id":%d,"cmd":"analyze","callgraph":"pta","trace_id":"%s","source":"%s"}|}
          id trace src )

let path j keys = List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) keys
let int_at j keys = Option.value ~default:min_int (Option.bind (path j keys) J.to_int)

let check_response item resp =
  let label = match item with Run (g, _) -> g.Expected.name | Analyze (seed, _, _) -> Printf.sprintf "synth-%d" seed in
  match J.parse resp with
  | Error e -> Error (Printf.sprintf "%s: unparsable response (%s)" label e)
  | Ok j when path j [ "ok" ] <> Some (J.Bool true) ->
      Error (Printf.sprintf "%s: %s" label resp)
  | Ok j -> (
      let res = [ "result" ] in
      match item with
      | Run (g, _) ->
          let snap k = int_at j (res @ [ "snapshot"; k ]) in
          Expected.check_run g
            {
              Expected.r_return = int_at j (res @ [ "return_value" ]);
              r_output =
                Option.value ~default:"" (Option.bind (path j (res @ [ "output" ])) J.to_string);
              r_steps = int_at j (res @ [ "steps" ]);
              r_allocations = None;
              r_object_space = snap "object_space";
              r_dead_space = snap "dead_space";
              r_hwm = snap "high_water_mark";
              r_hwm_reduced = snap "high_water_mark_reduced";
              r_num_objects = snap "num_objects";
              r_scalar_bytes = snap "scalar_bytes";
              r_leaked = snap "leaked_objects";
            }
      | Analyze (_, classes, _) ->
          let dead =
            Option.value ~default:[] (Option.bind (path j (res @ [ "dead_members" ])) J.to_list)
            |> List.filter_map J.to_string
          in
          Expected.check_synth ~label ~classes dead)

let cached resp =
  match J.parse resp with
  | Ok j -> path j [ "result"; "cached" ] = Some (J.Bool true)
  | Error _ -> false

(* -- the daemon's own numbers ---------------------------------------------- *)

(* Lower bound of the daemon's latency-histogram bucket whose upper
   bound is [upper]. *)
let bucket_lower upper =
  let rec go i prev =
    let u = Telemetry.Histogram.bucket_upper i in
    if u >= upper then prev else go (i + 1) u
  in
  go 0 0

(* Quantile of histogram buckets [(upper_us, count)] merged from several
   ops, in ms, interpolated linearly inside the bucket that holds the
   rank (as Prometheus' histogram_quantile does), so it is not pinned to
   a bucket bound. *)
let bucket_quantile buckets q =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (u, n) -> Hashtbl.replace tbl u (n + Option.value (Hashtbl.find_opt tbl u) ~default:0))
    buckets;
  let sorted = List.sort compare (Hashtbl.fold (fun u n acc -> (u, n) :: acc) tbl []) in
  let rank = q *. float_of_int (List.fold_left (fun a (_, n) -> a + n) 0 sorted) in
  let rec go cum = function
    | [] -> 0.
    | (u, n) :: rest ->
        if float_of_int (cum + n) >= rank then
          let lo = float_of_int (bucket_lower u) in
          lo +. ((float_of_int u -. lo) *. (rank -. float_of_int cum) /. float_of_int n)
        else go (cum + n) rest
  in
  go 0 sorted /. 1000.

let stats_layers stats =
  match J.parse stats with
  | Error _ -> []
  | Ok j ->
      let buckets op kind =
        Option.value ~default:[]
          (Option.bind (path j [ "result"; "latency"; op; kind; "buckets" ]) J.to_list)
        |> List.filter_map (function
             | J.Arr [ u; n ] -> (
                 match (J.to_int u, J.to_int n) with Some u, Some n -> Some (u, n) | _ -> None)
             | _ -> None)
      in
      let queue = buckets "run" "queue_us" @ buckets "analyze" "queue_us" in
      [
        ("server.queue_ms_p50", bucket_quantile queue 0.5);
        ("server.queue_ms_p90", bucket_quantile queue 0.9);
      ]
      @ List.concat_map
          (fun op ->
            let service = buckets op "service_us" in
            [
              ("server.service_ms_p50." ^ op, bucket_quantile service 0.5);
              ("server.service_ms_p90." ^ op, bucket_quantile service 0.9);
            ])
          [ "run"; "analyze" ]
      @ [ ("server.worker_restarts", float_of_int (max 0 (int_at j [ "result"; "worker_restarts" ]))) ]

type slow = { total_ms : float; queue_ms : float; phases : (string * float) list }

let slow_lines log =
  let tbl = Hashtbl.create 1024 in
  (match Osproc.read_file log with
  | exception Sys_error _ -> ()
  | text ->
      List.iter
        (fun line ->
          match J.parse line with
          | Ok j when J.member "slow_request" j = Some (J.Bool true) -> (
              let num k = match path j k with Some (J.Num f) -> f | _ -> 0. in
              match Option.bind (J.member "trace_id" j) J.to_string with
              | Some t ->
                  let phases =
                    match J.member "phases" j with
                    | Some (J.Obj kvs) ->
                        List.filter_map (function k, J.Num f -> Some (k, f) | _ -> None) kvs
                    | _ -> []
                  in
                  Hashtbl.replace tbl t
                    { total_ms = num [ "total_ms" ]; queue_ms = num [ "queue_ms" ]; phases }
              | None -> ())
          | _ -> ())
        (String.split_on_char '\n' text));
  tbl

(* Join the slow log to the traced requests: server spans under each
   client op, phase means, the share of requests found, and transport
   (client latency minus the server's own total). *)
let slow_layers tr log =
  let slow = slow_lines log in
  let ops = Trace.ops tr in
  let matched = ref 0 and transport = ref [] in
  let phase_sum = Hashtbl.create 4 in
  List.iter
    (fun (o : Trace.span) ->
      match Hashtbl.find_opt slow o.label with
      | None -> ()
      | Some s ->
          incr matched;
          transport := ((Trace.wall o *. 1000.) -. s.total_ms) /. 1000. :: !transport;
          let scope = { Trace.tr; op = o.id; parent = o.id; tid = o.tid; scale = o.scale } in
          let t = ref o.t0 in
          List.iter
            (fun (name, ms) ->
              Trace.synthetic scope ("server." ^ name) ~t0:!t ~dur:(ms /. 1000.);
              t := !t +. (ms /. 1000.);
              if name <> "queue" then
                Hashtbl.replace phase_sum name
                  (ms +. Option.value (Hashtbl.find_opt phase_sum name) ~default:0.))
            (("queue", s.queue_ms) :: s.phases))
    ops;
  let per_matched name =
    Option.value (Hashtbl.find_opt phase_sum name) ~default:0. /. float_of_int (max 1 !matched)
  in
  [
    ("server.phase.parse_ms", per_matched "parse");
    ("server.phase.analyze_ms", per_matched "analyze");
    ("server.phase.run_ms", per_matched "run");
    ("server.phase.coverage", float_of_int !matched /. float_of_int (max 1 (List.length ops)));
    ("client.transport_ms_p50", Harness.p50_ms !transport);
  ]

(* -- the workload ------------------------------------------------------------ *)

(* Start the daemon under rss_probe and open the two client connections. *)
let start (env : Harness.env) ~sock ~log ~report =
  (try Sys.remove log with Sys_error _ -> ());
  let argv =
    Array.append
      [| env.cli; "serve"; "--socket"; sock; "--jobs"; "2" |]
      (if env.traced then [| "--slow-ms"; "1" |] else [||])
  in
  let pid =
    Osproc.spawn
      ?stderr_file:(if env.traced then Some log else None)
      (Osproc.under_rss_probe ~report argv)
  in
  let deadline = Osproc.now () +. 10. in
  let rec connect2 () =
    match (connect sock, connect sock) with
    | Some a, Some b -> [| a; b |]
    | a, b ->
        Option.iter (fun c -> Unix.close c.fd) a;
        Option.iter (fun c -> Unix.close c.fd) b;
        if Osproc.now () > deadline then begin
          ignore (Osproc.wait_timeout pid ~timeout:0.);
          failwith "deadmem serve did not come up within 10 s"
        end;
        Unix.sleepf 0.005;
        connect2 ()
  in
  (pid, connect2 ())

let workload =
  {
    Harness.name = "serve_mix";
    setup =
      (fun c ->
        let env = c.env in
        Osproc.mkdir_p env.workdir;
        let sock = Filename.concat env.workdir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
        let log = Filename.concat env.workdir "serve-slow.log" in
        let report = Filename.concat env.workdir "serve-rss" in
        let pid, conns = start env ~sock ~log ~report in
        let ports =
          List.map
            (fun (b : Benchmarks.Suite.t) ->
              Run (Expected.find b.name, Frontend.Source.json_escape b.source))
            Benchmarks.Suite.all
        in
        let st = Harness.rng env.seed 5 in
        let next_id = Atomic.make 0 and next_prog = ref 0 in
        let classes = Harness.strata analyses 8 16
        and sites = Harness.strata analyses 8 16
        and chains = Harness.strata analyses 2 4
        and chain_len = Harness.strata analyses 80 160 in
        let analyze_items () =
          List.init analyses (fun i ->
              incr next_prog;
              let p =
                {
                  Benchmarks.Synth.seed = (env.seed * 1_000_000) + !next_prog;
                  classes = classes.(i);
                  sites = sites.(i);
                  chains = chains.(i);
                  chain_len = chain_len.(i);
                }
              in
              Analyze (p.seed, p.classes, Frontend.Source.json_escape (Benchmarks.Synth.source p)))
        in
        let op (c : Harness.cycle) ~tid conn item =
          let trace, line = frame item ~id:(Atomic.fetch_and_add next_id 1) in
          Harness.op c ~tid ~label:trace
            (fun _ -> request conn line)
            (fun s resp ->
              if s <> None then begin
                Trace.count s "serve.responses" (fun () -> 1.);
                Trace.count s "serve.cached" (fun () -> if cached resp then 1. else 0.)
              end;
              check_response item resp)
        in
        (* priming: every port's run is parsed, analyzed and compiled once,
           and the analyze path is exercised *)
        List.iter (op c ~tid:1 conns.(0)) (Harness.truncate env (Array.of_list ports) |> Array.to_list);
        op c ~tid:1 conns.(0) (List.hd (analyze_items ()));
        let stats = ref "" in
        let stop () =
          (try
             if env.traced then stats := request conns.(0) {|{"cmd":"stats"}|};
             ignore (request conns.(0) {|{"cmd":"shutdown"}|})
           with e -> prerr_endline ("serve_mix: shutdown: " ^ Printexc.to_string e));
          Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
          ignore (Osproc.wait_timeout pid ~timeout:10.)
        in
        {
          Harness.cycle =
            (fun c ->
              let runs = List.concat (List.init runs_per_port (fun _ -> ports)) in
              let items =
                Harness.truncate c.env
                  (Harness.shuffle st (Array.of_list (runs @ analyze_items ())))
              in
              let cursor = Atomic.make 0 in
              let client tid conn () =
                let rec go () =
                  let i = Atomic.fetch_and_add cursor 1 in
                  if i < Array.length items then begin
                    op c ~tid conn items.(i);
                    go ()
                  end
                in
                go ()
              in
              let t2 = Thread.create (client 2 conns.(1)) () in
              client 1 conns.(0) ();
              Thread.join t2);
          stop;
          layers =
            (fun tr ->
              let responses = Trace.counted tr "serve.responses" in
              ("server.cache_hit_ratio",
               if responses > 0. then Trace.counted tr "serve.cached" /. responses else 0.)
              :: (stats_layers !stats @ slow_layers tr log));
          peak_rss_kib = (fun () -> Osproc.read_rss_kib report);
          clients = 2;
          in_process = false;
        });
  }
