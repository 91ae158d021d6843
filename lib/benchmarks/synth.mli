(** Seeded synthetic MiniC++ generator for points-to stress inputs.

    Emits programs dominated by what real points-to workloads are
    dominated by: many allocation sites flowing through long copy
    chains, with virtual calls and field traffic mixed in — large
    repetitive sets and repetitive set operations. Deterministic: the
    same {!params} always produce the same source text, so a pinned
    {!stress} seed yields comparable measurements across runs. *)

type params = {
  seed : int;
  classes : int;  (** [Node] subclasses in the hierarchy *)
  sites : int;  (** allocation-site factory functions *)
  chains : int;  (** copy-chain functions *)
  chain_len : int;  (** pointer locals per chain *)
}

(** The pinned stress configuration measured by [bench/main.exe
    pta-stress] and pinned by CI: 589 points-to constraints at
    seed 42. Its chain locals are single-definition copies that the
    solver substitutes by design; the reassigned ladder rungs and the
    shared [Node::next] field still stagger object arrivals. *)
val stress : params

(** The program text. *)
val source : params -> string

(** Parse and type-check {!source} (raises on generator bugs — the
    output must always be a valid MiniC++ translation unit). *)
val program : params -> Sema.Typed_ast.program
