(* Seeded synthetic MiniC++ generator for points-to stress inputs.

   The emitted shape is the workload the Khedker MDE observation says
   dominates real points-to problems: many allocation sites flowing into
   long copy chains, so the same (large) sets travel across many nodes
   and the same set operations repeat. A naive solver pays |set| work at
   every chain link; a sharing + difference-propagation solver pays for
   each set once. The generator is deterministic: same parameters and
   seed, same source text — the stress gate pins a seed so measurements
   are comparable across runs and machines.

   Program shape:
   - a [Node] hierarchy of [classes] subclasses, each overriding a
     virtual [id];
   - [sites] factory functions, each with one allocation site of a
     pseudo-randomly chosen subclass;
   - a staggering ladder in [seed_objects]: rung-to-rung copy edges are
     written while every rung is still empty, then each rung receives
     exactly one factory result. Objects therefore reach the source
     global one per solver iteration rather than all at once during
     constraint generation — each arrival re-propagates down every
     chain, which costs an eager full-set solver a near-identical
     large-set union per chain link per arrival but costs a
     difference-propagation solver only the new singleton;
   - [chains] functions of [chain_len] pointer locals each copying its
     predecessor (plus pseudo-random cross-links), ending in a virtual
     call through the accumulated set. The chain locals are never
     written after their initializer, so by design the points-to
     solver's local copy substitution folds each into its source's
     node; the ladder rungs (reassigned, so never substituted) and the
     [Node::next] hub still stagger the arrivals;
   - pseudo-random field stores/loads through the shared [next] member
     so complex constraints participate too. *)

(* Deterministic 64-bit LCG (MMIX constants): the generator must not
   depend on [Random]'s global state. *)
type rng = { mutable s : int64 }

let make_rng seed = { s = Int64.of_int (0x9E3779B9 + seed) }

let next rng bound =
  rng.s <-
    Int64.add (Int64.mul rng.s 6364136223846793005L) 1442695040888963407L;
  let x = Int64.to_int (Int64.shift_right_logical rng.s 33) in
  x mod bound

type params = {
  seed : int;
  classes : int;  (* Node subclasses *)
  sites : int;  (* allocation-site factory functions *)
  chains : int;  (* copy-chain functions *)
  chain_len : int;  (* pointer locals per chain *)
}

(* The pinned stress configuration: 589 points-to constraints at
   seed 42 (calls on one receiver share a dispatch record, and a call
   with an untracked result adds none). *)
let stress = { seed = 42; classes = 24; sites = 128; chains = 50; chain_len = 1100 }

let source (p : params) : string =
  let rng = make_rng p.seed in
  let classes = max 1 p.classes in
  let sites = max 1 p.sites in
  let chains = max 1 p.chains in
  let chain_len = max 2 p.chain_len in
  let b = Buffer.create (1 lsl 16) in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "// synthetic points-to stress input (seed %d)\n" p.seed;
  pr "class Node {\n";
  pr "public:\n";
  pr "  int tag;\n";
  pr "  Node* next;\n";
  pr "  Node(int t) : tag(t), next(NULL) {}\n";
  pr "  virtual int id() { return tag; }\n";
  pr "  virtual ~Node() {}\n";
  pr "};\n";
  for c = 0 to classes - 1 do
    pr "class Node%d : public Node {\n" c;
    pr "public:\n";
    pr "  int pad%d;\n" c;
    pr "  Node%d(int t) : Node(t), pad%d(%d) {}\n" c c c;
    pr "  virtual int id() { return tag + %d; }\n" (c + 1);
    pr "};\n"
  done;
  (* factories: one allocation site each, class chosen by the rng *)
  for s = 0 to sites - 1 do
    pr "Node* make_%d() { return new Node%d(%d); }\n" s (next rng classes) s
  done;
  pr "Node* g_src;\n";
  pr "Node* g_sink;\n";
  pr "void seed_objects() {\n";
  pr "  Node* r0 = NULL;\n";
  for s = 1 to sites - 1 do
    pr "  Node* r%d = r%d;\n" s (s - 1)
  done;
  pr "  g_src = r%d;\n" (sites - 1);
  (* top rung first: a FIFO solver then always finds the rung below one
     queue cycle behind, so the source global grows one object at a
     time instead of converging in a single cascading pass *)
  for s = sites - 1 downto 0 do
    pr "  r%d = make_%d();\n" s s
  done;
  pr "}\n";
  for ch = 0 to chains - 1 do
    pr "int chain_%d() {\n" ch;
    pr "  Node* v0 = g_src;\n";
    for i = 1 to chain_len - 1 do
      (* mostly straight copies; occasional cross-link back into the
         chain, field traffic, or a mid-chain virtual call *)
      match next rng 16 with
      | 0 when i > 1 -> pr "  Node* v%d = v%d;\n" i (next rng i)
      | 1 ->
          pr "  v%d->next = v%d;\n" (next rng i) (next rng i);
          pr "  Node* v%d = v%d;\n" i (i - 1)
      | 2 -> pr "  Node* v%d = v%d->next;\n" i (next rng i)
      | 3 ->
          pr "  print_int(v%d->id());\n" (next rng i);
          pr "  Node* v%d = v%d;\n" i (i - 1)
      | _ -> pr "  Node* v%d = v%d;\n" i (i - 1)
    done;
    pr "  g_sink = v%d;\n" (chain_len - 1);
    pr "  return v%d->id();\n" (next rng chain_len);
    pr "}\n"
  done;
  pr "int main() {\n";
  pr "  seed_objects();\n";
  for ch = 0 to chains - 1 do
    pr "  print_int(chain_%d());\n" ch
  done;
  pr "  Node* p = g_sink;\n";
  pr "  p->next = g_src;\n";
  pr "  Node* q = p->next;\n";
  pr "  print_int(q->id());\n";
  pr "  delete q;\n";
  pr "  return 0;\n";
  pr "}\n";
  Buffer.contents b

let program (p : params) : Sema.Typed_ast.program =
  Sema.Type_check.check_source ~file:(Printf.sprintf "<synth:%d>" p.seed)
    (source p)
