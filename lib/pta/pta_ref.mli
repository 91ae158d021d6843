(** A naive reference points-to solver: the oracle the production
    solver (pta.ml) is differential-tested against, and used by no
    analysis tier. It computes that solver's context-insensitive
    abstraction from [main] by the simplest means: [Set.Make(Int)]
    points-to sets and a flat constraint list re-applied until a pass
    changes nothing. *)

open Sema.Typed_ast

type solution

val analyze : program -> solution
val reachable : solution -> FuncSet.t
val instantiated : solution -> string list
val address_taken : solution -> FuncSet.t
val havoc : solution -> bool

(** The sorted dynamic classes the expression [e] (identified
    physically) may point to, or [None] when unknown — the production
    solver's contract. *)
val receiver_classes : solution -> texpr -> string list option

(** The sorted functions the pointer expression [e] may reference, or
    [None] when unknown. *)
val funptr_targets : solution -> texpr -> Func_id.t list option
