(** Andersen-style inclusion-based points-to analysis over MiniC++.

    Flow-insensitive subset constraints are generated from the typed AST
    and solved with one worklist that propagates only what each node
    gained since it was last popped. The abstraction is {e field-based}:
    one node per [(defining class, name)] data member — the same
    {!Sema.Member.t} identity the dead-member analysis classifies — so a
    store to [p->f] and a load of [q->f] meet in the single node for
    [C::f].

    Reachability is computed on the fly: constraints for a function are
    generated the first time it becomes reachable, and virtual-call /
    function-pointer dispatch discovered during solving feeds new
    functions back into the worklist. The paper's §3.3 conservative
    roots (address-taken functions, library-override methods) are
    honoured by treating their parameters and receivers as unknown
    ([⊤]).

    Anything the constraint language cannot model soundly — a store
    through an unknown pointer, a member-pointer store — raises a global
    {!havoc} flag; clients must then fall back to RTA behaviour for
    every dispatch site. Per-expression unknowns are tracked with a
    [⊤] element that individual queries report as [None].

    The solver propagates {e differences} over sorted-array {!Ptset}
    sets, in worklist rounds. A pointer local that is never written
    after its initializer gets no node of its own: it shares its
    initializer's, so copy chains cost neither nodes nor edges.
    {!Pta_ref} computes the [Insensitive] solution naively; the test
    suite holds the two equal on every expression. *)

open Sema.Typed_ast

type solution

(** Tables keyed on expression {e occurrences}: keys compare physically,
    the identity every per-expression query below uses. *)
module ExprTbl : Hashtbl.S with type key = texpr

(** Context sensitivity. [Insensitive] is the classic Andersen analysis
    (one instance per function). [OneCfa] clones callees one level deep:
    method calls are analyzed per receiver {e allocation site} and
    direct free-function calls per call site, so objects that merely
    share a factory or a registration helper no longer merge. Heap
    objects themselves remain one per static allocation occurrence in
    both modes. *)
type mode = Insensitive | OneCfa

(** Analyze a program, computing points-to sets for every pointer-valued
    expression reachable from [roots] (default: [main] alone). Runs
    under a ["pta"] telemetry span with nested ["pta.seed"] and
    ["pta.solve"] phases. *)
val analyze : ?mode:mode -> ?roots:Func_id.t list -> program -> solution

val mode : solution -> mode

(** Functions reachable under the PTA call graph (including targets
    reached through fallback dispatch). *)
val reachable : solution -> FuncSet.t

(** Classes whose constructor is reachable — the PTA analogue of RTA's
    instantiated set. *)
val instantiated : solution -> string list

val address_taken : solution -> FuncSet.t

(** True when an unmodelable store forced a global degradation; every
    query below then returns [None]. *)
val havoc : solution -> bool

(** [receiver_classes sol e] is the set of dynamic classes of objects
    the receiver expression [e] may point to, or [None] when the set is
    unknown ([⊤], havoc, or [e] not part of the analyzed program). [e]
    is identified {e physically}: pass the very expression node from the
    program given to {!analyze}. In [OneCfa] mode the answer is the
    union over every context clone of the occurrence. *)
val receiver_classes : solution -> texpr -> string list option

(** [funptr_targets sol e] is the set of functions the pointer
    expression [e] may reference, or [None] when unknown. *)
val funptr_targets : solution -> texpr -> Func_id.t list option

(** [receiver_alloc_sites sol e] names the allocation sites of the
    objects [e] may point to, as [(class, site span)] pairs — the
    provenance behind a dispatch decision. Objects without a textual
    allocation (class-identity objects, address-taken cells) are
    omitted. [None] when the set is unknown. *)
val receiver_alloc_sites :
  solution -> texpr -> (string * Frontend.Source.span) list option

val num_nodes : solution -> int
val num_objects : solution -> int
val num_constraints : solution -> int

(** Deterministic solver statistics: equal inputs give equal counts. *)
type stats = {
  p_nodes : int;
  p_objects : int;
  p_constraints : int;
  p_sets_interned : int;
      (** always 0: sets are not interned. Kept only because the
          benchmark harness still reports it. *)
  p_memo_hits : int;
      (** always 0: set operations are not memoized. Kept like
          [p_sets_interned]. *)
  p_delta_props : int;  (** objects moved by difference propagation *)
  p_solver_iters : int;
      (** worklist rounds; a round pops the nodes queued before it began *)
  p_contexts : int;  (** function instances generated *)
  p_fallback_sites : int;
      (** static dispatch sites the analysis could not pin to a single
          receiver in some context *)
  p_reachable : int;
}

val stats : solution -> stats
