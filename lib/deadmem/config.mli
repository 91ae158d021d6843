(** Analysis configuration: the policy knobs of §3.2–3.3 of the paper. *)

module StringSet : Set.S with type elt = string and type t = Set.Make(String).t

(** How uses of [sizeof] are treated. The paper's default is
    conservative; the user may declare all uses allocation-only, in which
    case they are ignored (true for every benchmark in the paper). *)
type sizeof_policy =
  | Sizeof_conservative
      (** [sizeof] on a class marks all its contained members live *)
  | Sizeof_ignore  (** user asserts sizeof never affects behaviour *)

type t = {
  call_graph : Callgraph.algorithm;
      (** which call-graph construction feeds the analysis *)
  sizeof_policy : sizeof_policy;
  assume_downcasts_safe : bool;
      (** the paper's authors verified every down-cast in their
          benchmarks; set this to trust down-casts likewise *)
  library_classes : StringSet.t;
      (** classes whose source is unavailable: their members are never
          classified, and user overrides of their virtual methods become
          call-graph roots (§3.3) *)
  extra_roots : Sema.Typed_ast.Func_id.t list;
      (** additional entry points (e.g. exported callbacks) *)
}

(** Fully conservative: exactly what the algorithm guarantees with no
    user input. *)
val default : t

(** The configuration of the paper's evaluation: [sizeof] ignored,
    down-casts trusted, RTA call graph. *)
val paper : t

val with_library_classes : string list -> t -> t

(** [make alg] is {!paper} with call graph [alg]; {!default} instead
    when [conservative]; [library_classes] as {!with_library_classes}.
    The one constructor the CLI's flags and the daemon's request
    fields go through. *)
val make :
  ?conservative:bool -> ?library_classes:string list -> Callgraph.algorithm -> t

val pp_sizeof_policy : Format.formatter -> sizeof_policy -> unit
val pp : Format.formatter -> t -> unit
