(* Analysis configuration.

   The paper exposes three policy knobs (§3.2–3.3 and §4):
   - which call-graph construction algorithm feeds the analysis;
   - how [sizeof] is treated: conservative by default, but the user can
     declare that all uses are allocation-only and ignorable (as is the
     case in all of the paper's benchmarks);
   - whether down-casts have been verified safe by the user (true for all
     of the paper's benchmarks);
   - which classes belong to source-unavailable libraries: their members
     are never classified, and user overrides of their virtual methods are
     treated as call-graph roots. *)

module StringSet = Set.Make (String)

type sizeof_policy =
  | Sizeof_conservative  (* sizeof on a class marks its members live *)
  | Sizeof_ignore        (* user asserts sizeof is allocation-only *)

type t = {
  call_graph : Callgraph.algorithm;
  sizeof_policy : sizeof_policy;
  assume_downcasts_safe : bool;
  library_classes : StringSet.t;
  extra_roots : Sema.Typed_ast.Func_id.t list;
}

(* Fully conservative: what the algorithm guarantees with no user input. *)
let default =
  {
    call_graph = Callgraph.Rta;
    sizeof_policy = Sizeof_conservative;
    assume_downcasts_safe = false;
    library_classes = StringSet.empty;
    extra_roots = [];
  }

(* The configuration under which the paper's measurements were taken:
   all benchmark [sizeof] uses are allocation-only, and all down-casts
   were verified safe by the authors (§3.2, §4). *)
let paper =
  {
    default with
    sizeof_policy = Sizeof_ignore;
    assume_downcasts_safe = true;
  }

let with_library_classes names cfg =
  { cfg with library_classes = StringSet.of_list names }

(* The configuration both front doors (CLI flags, daemon request
   fields) build: the paper's unless [conservative]. *)
let make ?(conservative = false) ?(library_classes = []) call_graph =
  let base = if conservative then default else paper in
  with_library_classes library_classes { base with call_graph }

let pp_sizeof_policy ppf = function
  | Sizeof_conservative -> Fmt.string ppf "conservative"
  | Sizeof_ignore -> Fmt.string ppf "ignore"

let pp ppf t =
  Fmt.pf ppf
    "{ call_graph = %s; sizeof = %a; downcasts_safe = %b; library_classes = [%s] }"
    (Callgraph.algorithm_to_string t.call_graph)
    pp_sizeof_policy t.sizeof_policy t.assume_downcasts_safe
    (String.concat ", " (StringSet.elements t.library_classes))
