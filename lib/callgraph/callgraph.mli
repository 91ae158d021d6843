(** Call-graph construction for MiniC++ programs.

    The paper builds its call graph with a slightly modified Program
    Virtual-call Graph algorithm and notes (§3.1) that call-graph
    precision bounds analysis precision. Two algorithms are provided:

    - {!Cha} — Class Hierarchy Analysis: a virtual call through a
      receiver of static class [S] may dispatch to the override in any
      subclass of [S];
    - {!Rta} — Rapid Type Analysis (Bacon & Sweeney, OOPSLA'96): like
      CHA, but candidate dynamic classes are restricted to classes whose
      constructor is reachable;
    - {!Pta} — Andersen-style points-to analysis: virtual calls, virtual
      deletes and function-pointer calls resolve against the receiver's
      computed points-to set intersected with the RTA candidate cone, so
      the reachable set is always a subset of RTA's. Unknown receivers
      fall back to RTA resolution per site.
    - {!Pta1} — PTA refined with 1-CFA allocation-site cloning
      ({!Pta.OneCfa}): callees are analyzed per receiver allocation site
      so factory-style merges stop polluting receiver sets. Each site
      resolves to the intersection of the plain and refined answers, so
      [Pta1] never yields more targets than [Pta].

    All honour the paper's conservative extra roots (§3.3): functions
    whose address is taken in reachable code, and methods of user classes
    overriding a virtual method of a {e library} class (the library may
    call back into them). Constructor/destructor obligations — base and
    member subobject construction, scope-exit and [delete]-time
    destruction with virtual-destructor dispatch — are explicit edges. *)

open Sema.Typed_ast
module StringSet : Set.S with type elt = string and type t = Set.Make(String).t

type algorithm = Cha | Rta | Pta | Pta1

val algorithm_to_string : algorithm -> string

type t = {
  algorithm : algorithm;
  nodes : FuncSet.t;  (** functions reachable from the roots *)
  edges : FuncSet.t FuncMap.t;  (** caller -> callees *)
  roots : FuncSet.t;  (** [main] + extra roots *)
  instantiated : StringSet.t;  (** classes whose ctor is reachable *)
  address_taken : FuncSet.t;
  edge_sites : (Func_id.t list * (string * Frontend.Source.span) list) list FuncMap.t;
      (** caller -> its dispatch sites decided by a points-to solution,
          each as its targets and the allocation sites of its receiver's
          objects, as [(class, span)] pairs (see {!dispatch_sites} for
          one edge's merged set) *)
  pta_stats : Pta.stats option;
      (** solver statistics of the points-to solution that decided
          dispatch ([Pta]: the plain solution; [Pta1]: the 1-CFA
          refinement); [None] for [Cha]/[Rta] *)
}

(** Build the call graph of a program. [library_classes] triggers the
    override-root rule; [extra_roots] adds entry points beyond [main]. *)
val build :
  ?algorithm:algorithm ->
  ?library_classes:StringSet.t ->
  ?extra_roots:Func_id.t list ->
  program ->
  t

(** [dispatch_sites t ~src dst] is the allocation-site provenance of the
    call edge [src -> dst] — the sites of every call site's receiver
    that produces the edge, sorted, without duplicates — or [[]] when
    the edge was not resolved from a points-to set. *)
val dispatch_sites :
  t -> src:Func_id.t -> Func_id.t -> (string * Frontend.Source.span) list

val reachable : t -> Func_id.t -> bool
val callees : t -> Func_id.t -> FuncSet.t
val num_nodes : t -> int
val num_edges : t -> int

(** [path t ~from target] is a shortest call chain
    [[from; ...; target]] along call edges, or [None] when [target] is
    unreachable from [from]. *)
val path : t -> from:Func_id.t -> Func_id.t -> Func_id.t list option

(** A shortest witness chain ending at the argument, starting from
    [main] when possible, otherwise from any other root (address-taken
    function, library-override method, extra root). *)
val path_from_root : t -> Func_id.t -> Func_id.t list option

val pp : Format.formatter -> t -> unit

(** Graphviz rendering of the graph. *)
val to_dot : t -> string
