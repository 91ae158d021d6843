(* The call-graph tiers side by side on one program: the precision
   trajectory the paper's §3.1 observation predicts (call-graph
   precision bounds analysis precision). `deadmem precision`, the
   daemon's [precision] op and the paper reproducer's ablation A1 all
   measure through here; the graph's sizes and solver counters are
   read off the call graph the analysis itself ran over. *)

type cell = {
  tier : Callgraph.algorithm;
  nodes : int;
  edges : int;
  dead : int;
  solver : Pta.stats option;  (** the points-to tiers' solve *)
}

let tiers = [ Callgraph.Cha; Callgraph.Rta; Callgraph.Pta; Callgraph.Pta1 ]

let measure ?(tiers = tiers) prog =
  List.map
    (fun tier ->
      let r = Liveness.analyze ~config:(Config.make tier) prog in
      let cg = r.Liveness.callgraph in
      {
        tier;
        nodes = Callgraph.num_nodes cg;
        edges = Callgraph.num_edges cg;
        dead = List.length (Liveness.dead_members r);
        solver = cg.Callgraph.pta_stats;
      })
    tiers

let tier_name c = String.lowercase_ascii (Callgraph.algorithm_to_string c.tier)

let row_json name cells =
  let cell c =
    let solver =
      match c.solver with
      | None -> ""
      | Some (s : Pta.stats) ->
          Printf.sprintf
            {|,"solver":{"fallback_sites":%d,"delta_props":%d,"solver_iters":%d,"contexts":%d,"constraints":%d}|}
            s.Pta.p_fallback_sites s.Pta.p_delta_props s.Pta.p_solver_iters
            s.Pta.p_contexts s.Pta.p_constraints
    in
    Printf.sprintf {|"%s":{"nodes":%d,"edges":%d,"dead_members":%d%s}|}
      (tier_name c) c.nodes c.edges c.dead solver
  in
  Printf.sprintf {|{"benchmark":"%s",%s}|}
    (Frontend.Source.json_escape name)
    (String.concat "," (List.map cell cells))
