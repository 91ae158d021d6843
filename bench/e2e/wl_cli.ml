(* cli_check: one cold `deadmem check --format=json FILE` process per
   op, cycling the 11 ports in a seeded order. The only workload where
   process start-up and module initialisation show; the rest is the
   frontend and RTA liveness. Runtime and PTA are bypassed. Traced ops
   add a `deadmem --version` probe, whose time is the start-up cost.

   Set-up runs every port twice: once directly (page cache warm, answer
   checked) and once under rss_probe, whose largest report is the
   workload's peak RSS. *)

module J = Telemetry.Json

let p50_span tr name =
  Harness.p50_ms
    (List.filter_map
       (fun (s : Trace.span) -> if s.name = name then Some (Trace.dur s) else None)
       tr.Trace.spans)

let layers tr =
  let startup = p50_span tr "cli.startup" and process = p50_span tr "cli.process" in
  [
    ("cli.startup_ms_p50", startup);
    ("cli.process_ms_p50", process);
    ("cli.work_ms_p50", process -. startup);
  ]

let check_output g (code, out) =
  match J.parse (String.trim out) with
  | Error e -> Error (Printf.sprintf "%s: exit %d, unparsable output (%s)" g.Expected.name code e)
  | Ok j -> (
      match (code, J.member "ok" j, Option.bind (J.member "dead_members" j) J.to_int) with
      | 0, Some (J.Bool true), Some n -> Expected.check_dead_count g n
      | _ -> Error (Printf.sprintf "%s: exit %d, output %s" g.name code (String.trim out)))

let op ?(wrap = Fun.id) (c : Harness.cycle) (name, file) =
  let g = Expected.find name in
  Harness.op c ~label:name
    (fun s ->
      Trace.span s "cli.process" (fun () ->
          Osproc.run_capture (wrap [| c.env.cli; "check"; "--format=json"; file |])))
    (fun s r ->
      if s <> None then
        ignore (Trace.probe s "cli.startup" (fun () -> Osproc.run_capture [| c.env.cli; "--version" |]));
      check_output g r)

let workload =
  {
    Harness.name = "cli_check";
    setup =
      (fun c ->
        let dir = Filename.concat c.env.workdir "cli" in
        Osproc.mkdir_p dir;
        let files =
          Array.of_list
            (List.map
               (fun (b : Benchmarks.Suite.t) ->
                 let f = Filename.concat dir (b.name ^ ".mcc") in
                 Osproc.write_file f b.source;
                 (b.name, f))
               Benchmarks.Suite.all)
        in
        let st = Harness.rng c.env.seed 4 in
        let ports = Harness.truncate c.env files in
        Array.iter (op c) ports;
        let report = Filename.concat dir "rss" in
        let peak =
          Array.fold_left
            (fun peak port ->
              op ~wrap:(Osproc.under_rss_probe ~report) c port;
              max peak (Osproc.read_rss_kib report))
            0 ports
        in
        {
          Harness.cycle =
            (fun c -> Array.iter (op c) (Harness.truncate c.env (Harness.shuffle st (Array.copy files))));
          stop = ignore;
          layers;
          peak_rss_kib = (fun () -> peak);
          clients = 1;
          in_process = false;
        });
  }
