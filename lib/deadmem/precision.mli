(** Call-graph precision: one program analysed once per call-graph
    tier, with the graph's size, the dead-member count and the
    points-to solver's counters per tier (paper §3.1: call-graph
    precision bounds analysis precision). *)

type cell = {
  tier : Callgraph.algorithm;
  nodes : int;  (** call-graph nodes (reachable functions) *)
  edges : int;
  dead : int;  (** members classified dead under this tier *)
  solver : Pta.stats option;  (** [Some] for the points-to tiers *)
}

(** CHA, RTA, PTA and PTA1, coarsest first. *)
val tiers : Callgraph.algorithm list

(** [measure prog] runs {!Liveness.analyze} under [Config.make tier]
    for each of [tiers] (default {!tiers}) and reads each cell off the
    result's own call graph. *)
val measure : ?tiers:Callgraph.algorithm list -> Sema.Typed_ast.program -> cell list

(** Lower-case tier name: ["cha"], ["rta"], ["pta"], ["pta1"]. *)
val tier_name : cell -> string

(** One benchmark's row as the JSON object `deadmem precision
    --format=json` prints and the daemon's [precision] op answers:
    [{"benchmark":NAME,"cha":{"nodes":…,"edges":…,"dead_members":…},…}],
    points-to tiers with a ["solver"] object. *)
val row_json : string -> cell list -> string
