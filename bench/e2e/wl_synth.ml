(* synth_pta: the analysis verdict on points-to-heavy input. A pool of
   generated programs (Synth: allocation sites flowing through long copy
   chains, the repetitive set flows that dominate points-to analysis)
   goes through lex, parse, type-check and liveness with the PTA call
   graph; nothing is executed. Program [i] of the pool takes the [i]-th
   of [pool] sizes spread evenly over each range below, so every seed
   measures the same size mix; the seed picks each program's generator
   seed (its allocation sites, cross-links and field traffic) and the
   order. Call graph and PTA dominate, the frontend is the rest; the
   runtime is bypassed.

   Traced ops add two probes outside the op: a [Callgraph.build] with
   PTA (so liveness' own share can be derived) and a bare [Pta.analyze]. *)

let pool = 24

let config = { Deadmem.Config.paper with call_graph = Callgraph.Pta }

let programs seed =
  let classes = Harness.strata pool 8 32
  and sites = Harness.strata pool 16 48
  and chains = Harness.strata pool 6 12
  and chain_len = Harness.strata pool 200 400 in
  Array.init pool (fun i ->
      let p =
        {
          Benchmarks.Synth.seed = (seed * 1000) + i;
          classes = classes.(i);
          sites = sites.(i);
          chains = chains.(i);
          chain_len = chain_len.(i);
        }
      in
      (p, Benchmarks.Synth.source p))

let op (c : Harness.cycle) ((p : Benchmarks.Synth.params), src) =
  let label = Printf.sprintf "synth-%d" p.seed in
  Harness.op c ~label
    (fun s ->
      let prog = Wl_paper.front s src in
      let result =
        Trace.span s "deadmem.analyze" (fun () -> Deadmem.Liveness.analyze ~config prog)
      in
      (prog, result))
    (fun s (prog, result) ->
      let dead = List.map Sema.Member.to_string (Deadmem.Liveness.dead_members result) in
      if s <> None then begin
        ignore
          (Trace.probe s "callgraph.build" (fun () ->
               Callgraph.build ~algorithm:config.call_graph prog));
        ignore (Trace.probe s "pta.solve" (fun () -> Pta.analyze prog));
        Wl_paper.count_callgraph s result.callgraph;
        Trace.count s "deadmem.dead_members" (fun () -> float_of_int (List.length dead));
        Option.iter
          (fun (st : Pta.stats) ->
            List.iter
              (fun (name, v) -> Trace.count s name (fun () -> float_of_int v))
              [
                ("pta.constraints", st.p_constraints);
                ("pta.delta_props", st.p_delta_props);
                ("pta.memo_hits", st.p_memo_hits);
                ("pta.sets_interned", st.p_sets_interned);
                ("pta.solver_iters", st.p_solver_iters);
              ])
          result.callgraph.pta_stats
      end;
      Expected.check_synth ~label ~classes:p.classes dead)

let workload =
  {
    Harness.name = "synth_pta";
    setup =
      (fun c ->
        let progs = programs c.env.seed in
        let st = Harness.rng c.env.seed 3 in
        op c progs.(0);
        {
          Harness.cycle =
            (fun c -> Array.iter (op c) (Harness.truncate c.env (Harness.shuffle st (Array.copy progs))));
          stop = ignore;
          layers = (fun _ -> []);
          peak_rss_kib = (fun () -> 0);
          clients = 1;
          in_process = true;
        });
  }
