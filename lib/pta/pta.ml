(* Andersen-style inclusion-based points-to analysis for MiniC++.

   Subset constraints are generated from the typed AST and solved to a
   fixpoint by one difference-propagating worklist. The abstraction is
   flow-insensitive and *field-based*: one node per (defining class,
   member) identity — the same [Member.t] the dead-member analysis
   classifies — so stores to [p->f] and loads of [q->f] meet in the node
   for [C::f].

   Reachability is on the fly: constraints for a function are generated
   the first time it becomes reachable, and dispatch discovered during
   solving feeds new functions back in. A pointer local that is never
   written after its initializer shares the initializer's node instead
   of copying it ([mark_substitutable]). Receivers whose set degrades to
   ⊤ (unknown) fall back to RTA-style resolution over the instantiated
   cone, so the solution is never less conservative than RTA; stores the
   language cannot model raise a global [havoc] flag that degrades every
   dispatch site.

   The solver core (its naive counterpart, {!Pta_ref}, is the oracle the
   test suite checks it against, expression by expression):

   - Points-to sets are {!Ptset} values, immutable sorted int arrays.
     Each node carries [pts] (everything known) plus [delta] (not yet
     propagated), and only deltas flow along edges — a new edge replays
     the full source set against just that edge once, at attach time.
     [Ptset.diff] allocates only when it drops part of its operand, so
     an [add_objs] that brings nothing new allocates nothing, and one
     that brings only new objects allocates just the grown sets.

   - The worklist runs in rounds. A round pops the nodes queued before
     it started; each takes and clears its delta and pending ⊤ and
     pushes them along its copy edges, through its loads and stores and
     into its dispatch sites. Nodes that gain during the round queue for
     the next. Copy cycles are not collapsed: a delta travels a cycle
     once, because [add_objs] keeps only what a node does not already
     hold. The pop order fixes every solver counter the tests pin.

   - Virtual calls on one receiver node with the same static class,
     name and fixed target share one dispatch record ([vsite]), so a
     receiver class is resolved and bound once per record, not once
     per call. A call whose result type is untracked gets no result
     node, and its targets' returns no edge.

   - Per-expression state (an expression's node, an allocation's
     object, a call site's serial) lives in arrays indexed by the
     expression's [tid], the dense id the type checker gives it, so
     neither generation nor the queries hash an expression.

   - [OneCfa] mode refines the abstraction by cloning callees one level
     deep: method calls are analyzed per receiver allocation site
     ([CObj] — the callee instance's [this] holds exactly that object),
     direct free-function calls per call site ([CSite]), and everything
     the analysis cannot attribute (roots, address-taken functions,
     degraded sites) lands in the shared [CRoot] instance with ⊤
     inputs. Heap objects themselves stay one-per-static-occurrence, so
     the instance space is finite; a hard cap collapses further
     contexts to [CRoot] deterministically. *)

open Frontend
open Sema
open Sema.Typed_ast
module StringSet = Set.Make (String)
module StringTbl = Hashtbl.Make (String)
module IntSet = Set.Make (Int)

(* telemetry instruments (no-ops unless collection is enabled) *)
let nodes_counter = Telemetry.Counter.make "pta.nodes"
let objects_counter = Telemetry.Counter.make "pta.objects"
let copy_counter = Telemetry.Counter.make "pta.copy_edges"
let complex_counter = Telemetry.Counter.make "pta.complex_constraints"
let iter_counter = Telemetry.Counter.make "pta.solve_iterations"
let delta_counter = Telemetry.Counter.make "pta.delta_props"
let round_counter = Telemetry.Counter.make "pta.solver_iters"
let reach_gauge = Telemetry.Gauge.make "pta.reachable_functions"
let fallback_gauge = Telemetry.Gauge.make "pta.fallback_sites"
let ctx_gauge = Telemetry.Gauge.make "pta.contexts"

type mode = Insensitive | OneCfa

(* -- contexts ----------------------------------------------------------------

   A function instance is a (function, context) pair. [Insensitive]
   analysis uses the single [CRoot] instance per function; [OneCfa]
   clones per receiver allocation site / call site, bounded by
   [ctx_cap] total instances (overflow collapses to [CRoot]). *)
type ctx =
  | CRoot  (* no context: roots, fallback, overflow *)
  | CSite of int  (* direct call, by static call-site serial *)
  | CObj of int  (* method call, by receiver object id *)

type fctx = Func_id.t * ctx

(* [Stdlib.compare]'s order on [fctx], monomorphically: [CRoot] is an
   immediate, so it sorts before every [CSite] and [CObj]. *)
let compare_ctx a b =
  match (a, b) with
  | CRoot, CRoot -> 0
  | CRoot, _ -> -1
  | _, CRoot -> 1
  | CSite x, CSite y | CObj x, CObj y -> Int.compare x y
  | CSite _, CObj _ -> -1
  | CObj _, CSite _ -> 1

(* The solver's tables hash and compare their keys monomorphically,
   without [Hashtbl.hash]'s and [compare]'s walk of the value.
   [Hashtbl.Make] indexes by the low bits, so every part of a key lands
   in them. *)
let hash_func_id : Func_id.t -> int = function
  | Func_id.FFree f -> String.hash f
  | Func_id.FMethod (c, m) -> (String.hash c * 31) + String.hash m
  | Func_id.FCtor (c, n) -> (String.hash c * 31) + n + 1
  | Func_id.FDtor c -> String.hash c lxor 0x2545F491

module FuncTbl = Hashtbl.Make (struct
  type t = Func_id.t

  let equal = Func_id.equal
  let hash = hash_func_id
end)

module IntTbl = Hashtbl.Make (Int)

module MemberTbl = Hashtbl.Make (struct
  type t = Member.t

  let equal ((c, m) : t) (c', m') = String.equal c c' && String.equal m m'
  let hash ((c, m) : t) = (String.hash c * 31) + String.hash m
end)

(* a query's key: an expression's node list *)
module NodesTbl = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash = List.fold_left (fun h n -> (h * 65599) + n) 0
end)

module FctxTbl = Hashtbl.Make (struct
  type t = fctx

  let equal ((f, c) : t) (f', c') = compare_ctx c c' = 0 && Func_id.equal f f'

  let hash ((f, c) : t) =
    let h =
      match c with CRoot -> 0 | CSite s -> (2 * s) + 1 | CObj o -> (2 * o) + 2
    in
    (hash_func_id f * 65599) + h
end)

module FctxSet = Set.Make (struct
  type t = fctx

  let compare ((f, c) : t) (f', c') =
    let r = Func_id.compare f f' in
    if r <> 0 then r else compare_ctx c c'
end)

let ctx_cap = 200_000

(* -- abstract objects --------------------------------------------------------

   [o_class] is the dynamic class of class-typed allocations (heap and
   stack sites, constructed-object identities, class-typed subobject
   members); [o_fn] identifies function "objects" (address-taken
   functions); [o_payload] is the node holding the contents of scalar
   memory cells (scalar allocations, address-taken variables), or -1
   when the object has no modelled payload. [o_site] is the source span
   of the allocation for sites the program text names. *)
type obj = {
  o_class : string option;
  o_fn : Func_id.t option;
  o_payload : int;
  o_site : Source.span option;
}

(* One call through a dispatch record: its argument nodes (value node,
   write-back sink) and its result node, [nonode] when the result type
   is untracked. *)
type member = { m_args : (int * int option) list; m_ret : int }

(* A dispatch record attached to its receiver node: every virtual-call
   site on that node with the same static class, method name and fixed
   target. The sites see the same receiver objects, so they share what
   dispatch learns — the classes resolved, the instances bound, the
   degradation — and a new receiver class is resolved and bound once
   per record, not once per site. [vs_serials] names each member's
   static occurrence (shared by every context clone); [vs_binds] holds
   only the members with something to bind, so a call with no arguments
   and an untracked result costs nothing per target. [vs_fixed] is the
   statically-resolved target of non-virtual method calls routed
   through receiver objects in [OneCfa] mode. *)
type vsite = {
  vs_fixed : Func_id.t option;
  vs_static : string;  (* static receiver class *)
  vs_name : string;
  mutable vs_serials : int list;
  mutable vs_binds : member list;
  mutable vs_classes : StringSet.t;  (* dynamic classes already dispatched *)
  mutable vs_seen : StringSet.t;  (* receiver classes seen from objects *)
  mutable vs_bound : FctxSet.t;  (* instances already bound *)
  mutable vs_top : bool;  (* degraded to RTA-cone fallback *)
}

(* A function-pointer call site attached to its pointer node. *)
type fsite = {
  fs_serial : int;
  fs_arity : int;
  fs_ret : int;
  mutable fs_bound : FuncSet.t;
  mutable fs_top : bool;
}

(* A [delete] through a class with a virtual destructor. *)
type dsite = {
  ds_serial : int;
  ds_static : string;
  mutable ds_classes : StringSet.t;
  mutable ds_seen : StringSet.t;  (* receiver classes seen from objects *)
  mutable ds_top : bool;
}

type node = {
  mutable pts : Ptset.t;  (* object ids: everything known *)
  mutable delta : Ptset.t;  (* object ids: not yet propagated *)
  mutable top : bool;  (* may point anywhere (⊤) *)
  mutable top_pending : bool;  (* ⊤ not yet propagated *)
  mutable succ : IntSet.t;  (* inclusion edges: pts(succ) ⊇ pts(self) *)
  mutable loads : IntSet.t;  (* dst nodes: dst ⊇ *self *)
  mutable stores : IntSet.t;  (* src nodes: *self ⊇ src *)
  mutable vsites : vsite list;  (* dispatch records on this receiver *)
  mutable fsites : fsite list;
  mutable dsites : dsite list;
  mutable queued : bool;
}

(* Declarations are identified physically and hashed by where they
   start. *)
module DeclTbl = Hashtbl.Make (struct
  type t = tvar_decl

  let equal = ( == )
  let hash (d : tvar_decl) = d.tv_loc.start_offset
end)

(* The node of each expression occurrence, indexed by its [tid].
   [Insensitive] analysis has one instance per function, so an
   expression has at most one node ([nonode] until it has one); [OneCfa]
   keeps one per context clone, newest first. *)
type expr_nodes = Single of int array | Cloned of (ctx * int) list array

type solution = {
  prog : program;
  table : Class_table.t;
  mode : mode;
  mutable nodes : node array;
  mutable n_nodes : int;
  mutable objs : obj array;
  mutable n_objs : int;
  expr_node : expr_nodes;
  (* by [tid], -1 for none: an allocation's one object, and the serials
     of static call sites *)
  mutable site_obj : int array;
  mutable serial_tbl : int array;
  decl_obj : int DeclTbl.t;  (* stack decl -> its one object *)
  mutable n_serials : int;
  mutable subst : Bytes.t;  (* by [tid]: see [mark_substitutable] *)
  scanned : unit FuncTbl.t;  (* functions [mark_substitutable] has seen *)
  var_node : int StringTbl.t FctxTbl.t;  (* instance -> its locals' nodes *)
  this_node : int FctxTbl.t;
  ret_node : int FctxTbl.t;
  global_node : int StringTbl.t;
  field_node : int MemberTbl.t;
  fun_obj : int FuncTbl.t;
  class_obj : int StringTbl.t;
  cell_obj : int IntTbl.t;  (* payload node -> object *)
  worklist : int Queue.t;
  gen_queue : fctx Queue.t;
  instances : unit FctxTbl.t;  (* generated (function, context) pairs *)
  mutable reached : FuncSet.t;
  mutable inst : StringSet.t;  (* classes whose ctor is reachable *)
  mutable addr_taken : FuncSet.t;
  mutable all_vsites : vsite list;
  mutable all_fsites : fsite list;
  mutable all_dsites : dsite list;
  mutable top_vsites : vsite list;  (* degraded sites, re-resolved as
                                       [inst]/[addr_taken] grow *)
  mutable top_fsites : fsite list;
  mutable top_dsites : dsite list;
  mutable havoc : bool;
  mutable n_copy : int;
  mutable n_complex : int;
  mutable n_delta : int;  (* objects moved by difference propagation *)
  mutable rounds : int;  (* solver rounds *)
  (* query answers, keyed by an expression's node list: a program's
     sites share few receiver nodes, so most queries are lookups *)
  class_answers : string list option NodesTbl.t;
  fn_answers : Func_id.t list option NodesTbl.t;
  site_answers : (string * Frontend.Source.span) list option NodesTbl.t;
}

(* -- node / object stores ----------------------------------------------------- *)

let nonode = -1

(* [arr], whose first [n] slots are in use, with room for entry [n]:
   when full, capacity doubles and every slack slot holds [filler] (the
   caller's new entry, so no blank record is built per slot). A slack
   slot is always overwritten before it is read. *)
let grow arr n filler =
  if n < Array.length arr then arr
  else begin
    let nu = Array.make (max 256 (2 * Array.length arr)) filler in
    Array.blit arr 0 nu 0 n;
    nu
  end

let fresh_node st =
  let id = st.n_nodes in
  let blank =
    {
      pts = Ptset.empty;
      delta = Ptset.empty;
      top = false;
      top_pending = false;
      succ = IntSet.empty;
      loads = IntSet.empty;
      stores = IntSet.empty;
      vsites = [];
      fsites = [];
      dsites = [];
      queued = false;
    }
  in
  st.nodes <- grow st.nodes id blank;
  st.nodes.(id) <- blank;
  st.n_nodes <- id + 1;
  Telemetry.Counter.incr nodes_counter;
  id

let new_obj st ~cls ~fn ~payload ~site =
  let id = st.n_objs in
  let o = { o_class = cls; o_fn = fn; o_payload = payload; o_site = site } in
  st.objs <- grow st.objs id o;
  st.objs.(id) <- o;
  st.n_objs <- id + 1;
  Telemetry.Counter.incr objects_counter;
  id

let push st i =
  let n = st.nodes.(i) in
  if not n.queued then begin
    n.queued <- true;
    Queue.add i st.worklist
  end

(* Grow [i]'s set by [s]: only the genuinely new part enters [delta]. *)
let add_objs st i s =
  if not (Ptset.is_empty s) then begin
    let n = st.nodes.(i) in
    let d = Ptset.diff s n.pts in
    if not (Ptset.is_empty d) then begin
      n.pts <- Ptset.union n.pts d;
      n.delta <- Ptset.union n.delta d;
      let moved = Ptset.cardinal d in
      st.n_delta <- st.n_delta + moved;
      Telemetry.Counter.add delta_counter moved;
      push st i
    end
  end

let add_obj st i o = add_objs st i (Ptset.singleton o)

let set_top st i =
  if i >= 0 then begin
    let n = st.nodes.(i) in
    if not n.top then begin
      n.top <- true;
      n.top_pending <- true;
      push st i
    end
  end

let add_edge st src dst =
  if src >= 0 && dst >= 0 && src <> dst then begin
    let n = st.nodes.(src) in
    if not (IntSet.mem dst n.succ) then begin
      n.succ <- IntSet.add dst n.succ;
      st.n_copy <- st.n_copy + 1;
      Telemetry.Counter.incr copy_counter;
      (* replay the full current set against just the new edge;
         future growth arrives via difference propagation *)
      if n.top then set_top st dst;
      add_objs st dst n.pts
    end
  end

let payload st o =
  let p = (st.objs.(o)).o_payload in
  if p >= 0 then Some p else None

(* [dst ⊇ *p] for one batch of [p]'s objects. Loads and stores replay
   the full current set against just the new complex edge at attach
   time; deltas cover the rest. *)
let feed_load st dst ~objs ~is_top =
  if is_top then set_top st dst
  else
    Ptset.iter
      (fun o ->
        match payload st o with
        | Some p -> add_edge st p dst
        | None -> set_top st dst)
      objs

let add_load st p dst =
  let n = st.nodes.(p) in
  n.loads <- IntSet.add dst n.loads;
  st.n_complex <- st.n_complex + 1;
  Telemetry.Counter.incr complex_counter;
  feed_load st dst ~objs:n.pts ~is_top:n.top

(* -- named nodes -------------------------------------------------------------- *)

(* [find tbl key], or [mk ()] added under [key] the first time. *)
let memo find add tbl key mk =
  match find tbl key with
  | v -> v
  | exception Not_found ->
      let v = mk () in
      add tbl key v;
      v

(* The entry of [arr] for expression [e], made by [mk] the first time. *)
let memo_tid arr (e : texpr) mk =
  let v = arr.(e.tid) in
  if v >= 0 then v
  else begin
    let v = mk () in
    arr.(e.tid) <- v;
    v
  end

let memo_fctx tbl key mk = memo FctxTbl.find FctxTbl.add tbl key mk
(* The local-variable table of one function instance. *)
let vars_of st fx = memo_fctx st.var_node fx (fun () -> StringTbl.create 16)

let var_node st vars name =
  match StringTbl.find vars name with
  | n -> n
  | exception Not_found ->
      let n = fresh_node st in
      StringTbl.add vars name n;
      n

let node_of_var st fx name = var_node st (vars_of st fx) name

let node_of_this st fx = memo_fctx st.this_node fx (fun () -> fresh_node st)
let node_of_ret st fx = memo_fctx st.ret_node fx (fun () -> fresh_node st)
let node_of_global st g =
  memo StringTbl.find StringTbl.add st.global_node g (fun () -> fresh_node st)

let fun_object st id =
  memo FuncTbl.find FuncTbl.add st.fun_obj id (fun () ->
      new_obj st ~cls:None ~fn:(Some id) ~payload:(-1) ~site:None)

let class_object st cls =
  memo StringTbl.find StringTbl.add st.class_obj cls (fun () ->
      new_obj st ~cls:(Some cls) ~fn:None ~payload:(-1) ~site:None)

(* The cell object for an address-taken location whose contents live in
   node [n]: pts(&x) = { cell(x) }, payload(cell(x)) = node(x). *)
let cell_object st n =
  memo IntTbl.find IntTbl.add st.cell_obj n (fun () ->
      new_obj st ~cls:None ~fn:None ~payload:n ~site:None)

(* One node per (defining class, member). Class-typed members denote the
   subobject itself: the node is pre-seeded with an object of the
   member's class (its exact dynamic class). *)
let node_of_field st (m : Member.t) =
  memo MemberTbl.find MemberTbl.add st.field_node m (fun () ->
      let n = fresh_node st in
      (match Class_table.find st.table (Member.cls m) with
      | Some ci -> (
          match Class_table.own_field ci (Member.name m) with
          | Some f -> (
              match f.f_type with
              | Ast.TNamed k | Ast.TArr (Ast.TNamed k, _) ->
                  if Class_table.mem st.table k then
                    add_obj st n
                      (new_obj st ~cls:(Some k) ~fn:None ~payload:(-1)
                         ~site:None)
              | _ -> ())
          | None -> ())
      | None -> ());
      n)

(* A stable serial per static call / allocation / delete occurrence,
   shared by every context clone of the enclosing function. *)
let serial_of st (e : texpr) =
  memo_tid st.serial_tbl e (fun () ->
      let s = st.n_serials in
      st.n_serials <- s + 1;
      s)

(* The instance a call with context [c] lands in: [Insensitive] folds
   everything into [CRoot]; [OneCfa] admits new contexts until the cap,
   then collapses deterministically. *)
let ctx_for st fn c =
  match st.mode with
  | Insensitive -> CRoot
  | OneCfa -> (
      match c with
      | CRoot -> c
      | CSite _ | CObj _ ->
          if FctxTbl.mem st.instances (fn, c) then c
          else if FctxTbl.length st.instances >= ctx_cap then CRoot
          else c)

(* -- type classification ------------------------------------------------------- *)

(* Types whose values the analysis tracks: pointers, functions, and
   class types (class-typed expressions denote object identities). *)
let rec tracked st (t : Ast.type_expr) =
  match t with
  | Ast.TPtr _ | Ast.TFun _ -> true
  | Ast.TNamed n -> Class_table.mem st.table n
  | Ast.TRef t | Ast.TArr (t, _) -> tracked st t
  | _ -> false

(* Reference-to-pointer parameters alias the caller's variable: writes
   to the formal must flow back into the actual. (Class-typed reference
   params need no write-back: field stores are field-based and global.) *)
let ref_needs_writeback (t : Ast.type_expr) =
  match t with
  | Ast.TRef r -> (
      match r with Ast.TPtr _ | Ast.TFun _ -> true | _ -> false)
  | _ -> false

(* Array values are collapsed to one node holding what the elements
   hold; indexing denotes that node directly. *)
let rec is_array_ty (t : Ast.type_expr) =
  match t with
  | Ast.TArr _ -> true
  | Ast.TRef t -> is_array_ty t
  | _ -> false

(* Using an array where a pointer is expected (decay) yields a pointer
   {e to} the collapsed node — except arrays of class objects, whose
   node already holds the element objects' identities. *)
let is_decaying_array (t : Ast.type_expr) =
  let rec elem t =
    match t with Ast.TArr (t, _) | Ast.TRef t -> elem t | t -> t
  in
  is_array_ty t && match elem t with Ast.TNamed _ -> false | _ -> true

let receiver_static_class (mc : method_call) : string option =
  if mc.mc_arrow then Ctype.receiver_class_arrow mc.mc_recv.ty
  else Ctype.receiver_class_dot mc.mc_recv.ty

let dtor_is_virtual table cls =
  let rec go c =
    match Class_table.find table c with
    | None -> false
    | Some ci ->
        (match Class_table.dtor ci with
        | Some d -> d.m_virtual
        | None -> false)
        || List.exists (fun (b : Ast.base_spec) -> go b.b_name) ci.c_bases
  in
  go cls

(* -- reachability and dispatch ------------------------------------------------

   [reach] only queues: constraint generation happens in the solve loop,
   so this cluster (dispatch, fallback resolution, instantiation) stays
   free of recursion into the generator. *)

let rec reach st ((fn, _) as fx : fctx) =
  if not (FctxTbl.mem st.instances fx) then begin
    FctxTbl.add st.instances fx ();
    st.reached <- FuncSet.add fn st.reached;
    Queue.add fx st.gen_queue;
    match fn with
    | Func_id.FCtor (cls, _) -> instantiate st cls
    | _ -> ()
  end

(* A class became instantiated: degraded (⊤) dispatch sites gain its
   cone members, exactly as RTA would. *)
and instantiate st cls =
  if not (StringSet.mem cls st.inst) then begin
    st.inst <- StringSet.add cls st.inst;
    List.iter (resolve_vsite_fallback st) st.top_vsites;
    List.iter (resolve_dsite_fallback st) st.top_dsites
  end

and vsite_target st (vs : vsite) cls =
  match vs.vs_fixed with
  | Some t -> Some t
  | None -> (
      match Member_lookup.dispatch st.table ~dyn:cls ~name:vs.vs_name with
      | Some (def, _) -> Some (Func_id.FMethod (def, vs.vs_name))
      | None -> None)

(* Class-level dispatch with the seed solver's dedup: used by
   [Insensitive] site processing and by the fallback paths of both
   modes (receiver [None] = ⊤ inputs into the [CRoot] instance). *)
and dispatch_to st (vs : vsite) ~recv cls =
  if not (StringSet.mem cls vs.vs_classes) then begin
    vs.vs_classes <- StringSet.add cls vs.vs_classes;
    match vsite_target st vs cls with
    | Some target -> bind_virtual st vs ~recv target
    | None -> ()
  end

and bind_virtual st (vs : vsite) ~recv target =
  let fx = (target, CRoot) in
  if not (FctxSet.mem fx vs.vs_bound) then begin
    vs.vs_bound <- FctxSet.add fx vs.vs_bound;
    reach st fx;
    (match recv with
    | Some rn -> add_edge st rn (node_of_this st fx)
    | None -> set_top st (node_of_this st fx));
    bind_members st vs fx
  end

and bind_members st (vs : vsite) fx =
  List.iter (fun m -> bind_args st fx m.m_args m.m_ret) vs.vs_binds

(* Object-level dispatch ([OneCfa]): the callee instance is keyed by the
   receiver object, and its [this] holds exactly that object. *)
and dispatch_obj st (vs : vsite) o cls =
  vs.vs_seen <- StringSet.add cls vs.vs_seen;
  match vsite_target st vs cls with
  | None -> ()
  | Some target ->
      let cx = ctx_for st target (CObj o) in
      let fx = (target, cx) in
      if not (FctxSet.mem fx vs.vs_bound) then begin
        vs.vs_bound <- FctxSet.add fx vs.vs_bound;
        reach st fx;
        bind_members st vs fx
      end;
      add_obj st (node_of_this st fx) o

(* Bind already-generated argument nodes to a target's formals, with
   write-back for reference-to-pointer parameters, and its return to the
   call's result node ([nonode]: the result is untracked, so no edge).
   Unknown externals yield an unknown result. *)
and bind_args st (fx : fctx) args ret =
  match find_func st.prog (fst fx) with
  | Some f ->
      List.iteri
        (fun i (pname, pty) ->
          match List.nth_opt args i with
          | Some (av, sb) ->
              let pn = node_of_var st fx pname in
              add_edge st av pn;
              if ref_needs_writeback pty then begin
                match sb with
                | Some b -> add_edge st pn b
                | None -> do_havoc st
              end
          | None -> ())
        f.tf_params;
      if ret >= 0 then add_edge st (node_of_ret st fx) ret
  | None -> set_top st ret

and resolve_vsite_fallback st (vs : vsite) =
  match vs.vs_fixed with
  | Some target ->
      (* statically-resolved call with an unknown receiver: the [CRoot]
         instance runs with ⊤ [this] *)
      bind_virtual st vs ~recv:None target
  | None ->
      List.iter
        (fun c -> if StringSet.mem c st.inst then dispatch_to st vs ~recv:None c)
        (vs.vs_static :: Class_table.subclasses st.table vs.vs_static)

and degrade_vsite st (vs : vsite) =
  if not vs.vs_top then begin
    vs.vs_top <- true;
    st.top_vsites <- vs :: st.top_vsites;
    resolve_vsite_fallback st vs
  end

and bind_fsite_target st (fs : fsite) id =
  if not (FuncSet.mem id fs.fs_bound) then begin
    fs.fs_bound <- FuncSet.add id fs.fs_bound;
    match find_func st.prog id with
    | Some f when List.length f.tf_params = fs.fs_arity ->
        reach st (id, CRoot);
        (* formals of address-taken functions are already ⊤ *)
        if fs.fs_ret >= 0 then
          add_edge st (node_of_ret st (id, CRoot)) fs.fs_ret
    | Some _ -> ()  (* arity mismatch: not a possible target *)
    | None ->
        reach st (id, CRoot);
        set_top st fs.fs_ret
  end

and resolve_fsite_fallback st (fs : fsite) =
  FuncSet.iter (bind_fsite_target st fs) st.addr_taken

and degrade_fsite st (fs : fsite) =
  if not fs.fs_top then begin
    fs.fs_top <- true;
    st.top_fsites <- fs :: st.top_fsites;
    resolve_fsite_fallback st fs
  end

and resolve_dsite_fallback st (ds : dsite) =
  List.iter
    (fun c ->
      if StringSet.mem c st.inst && not (StringSet.mem c ds.ds_classes) then begin
        ds.ds_classes <- StringSet.add c ds.ds_classes;
        reach st (Func_id.FDtor c, CRoot)
      end)
    (ds.ds_static :: Class_table.subclasses st.table ds.ds_static)

and degrade_dsite st (ds : dsite) =
  if not ds.ds_top then begin
    ds.ds_top <- true;
    st.top_dsites <- ds :: st.top_dsites;
    resolve_dsite_fallback st ds
  end

(* An unmodelable store: every dispatch site, present and future, falls
   back to the RTA cone. The solution stays sound; queries report
   unknown. *)
and do_havoc st =
  if not st.havoc then begin
    st.havoc <- true;
    List.iter (degrade_vsite st) st.all_vsites;
    List.iter (degrade_fsite st) st.all_fsites;
    List.iter (degrade_dsite st) st.all_dsites
  end

(* Conservative roots (paper §3.3 and entry points): inputs are unknown,
   so formals and receiver are ⊤. *)
and make_root st id =
  let fx = (id, CRoot) in
  reach st fx;
  (match find_func st.prog id with
  | Some f ->
      List.iter
        (fun (p, ty) ->
          if tracked st ty then set_top st (node_of_var st fx p))
        f.tf_params
  | None -> ());
  match Func_id.class_of id with
  | Some _ -> set_top st (node_of_this st fx)
  | None -> ()

and take_address st id =
  if not (FuncSet.mem id st.addr_taken) then begin
    st.addr_taken <- FuncSet.add id st.addr_taken;
    make_root st id;
    List.iter (fun fs -> bind_fsite_target st fs id) st.top_fsites
  end

(* -- site processing (driven by the solver) ----------------------------------

   [feed_*] processes one batch of receiver objects through a site: the
   full current set at attach time, the delta afterwards. *)

let feed_vsite st (vs : vsite) ~rnode ~objs ~is_top =
  if vs.vs_top then ()
  else if is_top || st.havoc then degrade_vsite st vs
  else
    Ptset.iter
      (fun o ->
        match (st.objs.(o)).o_class with
        | Some c -> (
            match st.mode with
            | Insensitive ->
                vs.vs_seen <- StringSet.add c vs.vs_seen;
                dispatch_to st vs ~recv:(Some rnode) c
            | OneCfa -> dispatch_obj st vs o c)
        | None -> degrade_vsite st vs)
      objs

let feed_fsite st (fs : fsite) ~objs ~is_top =
  if fs.fs_top then ()
  else if is_top || st.havoc then degrade_fsite st fs
  else
    Ptset.iter
      (fun o ->
        match (st.objs.(o)).o_fn with
        | Some id -> bind_fsite_target st fs id
        | None -> degrade_fsite st fs)
      objs

let feed_dsite st (ds : dsite) ~objs ~is_top =
  if ds.ds_top then ()
  else if is_top || st.havoc then degrade_dsite st ds
  else
    Ptset.iter
      (fun o ->
        match (st.objs.(o)).o_class with
        | Some c ->
            ds.ds_seen <- StringSet.add c ds.ds_seen;
            if not (StringSet.mem c ds.ds_classes) then begin
              ds.ds_classes <- StringSet.add c ds.ds_classes;
              reach st (Func_id.FDtor c, CRoot)
            end
        | None -> degrade_dsite st ds)
      objs

(* [*p ⊇ src]: stores replay like loads, but a store the analysis
   cannot place havocs. *)
let feed_store st src ~objs ~is_top =
  if is_top then do_havoc st
  else
    Ptset.iter
      (fun o ->
        match payload st o with
        | Some p -> add_edge st src p
        | None -> do_havoc st)
      objs

let add_store st p src =
  let n = st.nodes.(p) in
  n.stores <- IntSet.add src n.stores;
  st.n_complex <- st.n_complex + 1;
  Telemetry.Counter.incr complex_counter;
  feed_store st src ~objs:n.pts ~is_top:n.top

(* A virtual call on receiver node [rnode] joins the node's live record
   for its static class, name and fixed target: it is bound to every
   instance the record has bound so far, and the record is fed the
   objects still pending at the node — what a site of its own would
   have dispatched on attaching. A call on a ⊤ node, under havoc, or
   with no live record of its kind opens a new record fed the node's
   whole set. *)
let attach_vsite st ~fixed ~static_cls ~name ~serial (m : member) rnode =
  let n = st.nodes.(rnode) in
  let to_bind = m.m_args <> [] || m.m_ret >= 0 in
  let joinable vs =
    (not vs.vs_top)
    && String.equal vs.vs_name name
    && String.equal vs.vs_static static_cls
    && Option.equal Func_id.equal vs.vs_fixed fixed
  in
  match if n.top || st.havoc then None else List.find_opt joinable n.vsites with
  | Some vs ->
      vs.vs_serials <- serial :: vs.vs_serials;
      if to_bind then begin
        vs.vs_binds <- m :: vs.vs_binds;
        FctxSet.iter (fun fx -> bind_args st fx m.m_args m.m_ret) vs.vs_bound
      end;
      feed_vsite st vs ~rnode ~objs:n.delta ~is_top:false
  | None ->
      let vs =
        {
          vs_fixed = fixed;
          vs_static = static_cls;
          vs_name = name;
          vs_serials = [ serial ];
          vs_binds = (if to_bind then [ m ] else []);
          vs_classes = StringSet.empty;
          vs_seen = StringSet.empty;
          vs_bound = FctxSet.empty;
          vs_top = false;
        }
      in
      st.all_vsites <- vs :: st.all_vsites;
      n.vsites <- vs :: n.vsites;
      feed_vsite st vs ~rnode ~objs:n.pts ~is_top:n.top

let attach_fsite st (fs : fsite) fnode =
  let n = st.nodes.(fnode) in
  n.fsites <- fs :: n.fsites;
  feed_fsite st fs ~objs:n.pts ~is_top:n.top

let attach_dsite st (ds : dsite) dnode =
  let n = st.nodes.(dnode) in
  n.dsites <- ds :: n.dsites;
  feed_dsite st ds ~objs:n.pts ~is_top:n.top

(* -- the solver ---------------------------------------------------------------

   Sets only grow and [add_objs] keeps only the genuinely new part, so
   the order nodes are popped in moves the counters, never the
   solution. *)

(* Push node [i]'s pending difference along its edges and into its
   sites. [delta] and [top_pending] are taken and cleared first, so
   anything [i] gains meanwhile (an edge a load, store or dispatch adds
   into [i]) queues it again. *)
let propagate st i =
  let n = st.nodes.(i) in
  n.queued <- false;
  let delta = n.delta and top = n.top_pending and is_top = n.top in
  n.delta <- Ptset.empty;
  n.top_pending <- false;
  if top || not (Ptset.is_empty delta) then begin
    Telemetry.Counter.incr iter_counter;
    IntSet.iter
      (fun dst ->
        if top then set_top st dst;
        add_objs st dst delta)
      n.succ;
    IntSet.iter (fun dst -> feed_load st dst ~objs:delta ~is_top) n.loads;
    IntSet.iter (fun src -> feed_store st src ~objs:delta ~is_top) n.stores;
    List.iter
      (fun vs -> feed_vsite st vs ~rnode:i ~objs:delta ~is_top)
      n.vsites;
    List.iter (fun fs -> feed_fsite st fs ~objs:delta ~is_top) n.fsites;
    List.iter (fun ds -> feed_dsite st ds ~objs:delta ~is_top) n.dsites
  end

(* -- constraint generation ----------------------------------------------------

   Each reachable function instance's body is walked exactly once; every
   tracked-typed expression occurrence is mapped (by its [tid], per
   context) to the node holding its value, so clients can query
   receivers after the solve. *)

(* Where a write to an lvalue lands. *)
type lv =
  | LNode of int  (* a directly-addressed node *)
  | LIndirect of int  (* the payloads of everything this node points to *)
  | LTop  (* unmodelable: writes of tracked values havoc *)
  | LNone  (* untracked or not an lvalue *)

(* Local copy substitution (Rountev & Chandra's offline variable
   substitution, per function; DESIGN.md §4j): the pointer locals of [f]
   declared once with an expression initializer, not named like a
   parameter, and never written afterwards — never the root, through
   casts and [?:], of an assignment target, an [&] or [++]/[--] operand,
   a call or [new] argument (a [T*&] formal may bind it), or a reference
   local's initializer. Such a local ends with exactly its initializer's
   set. Its inflows all come from its own body, so unlike parameters,
   returns, fields and globals it can be settled at generation time.
   [st.subst] marks each such local's declaration, by its initializer's
   [tid]. One walk visits each statement and, once, each expression. *)
let mark_substitutable st (f : tfunc) =
  (* each declared name: the initializer's [tid] while the name has one
     declaration, of a pointer with an expression initializer; else -1 *)
  let decls = StringTbl.create 16 and written = StringTbl.create 16 in
  let rec write (e : texpr) =
    match e.te with
    | TLocal x -> StringTbl.replace written x ()
    | TCast (_, _, a, _) -> write a
    | TCond (_, a, b) ->
        write a;
        write b
    | _ -> ()
  in
  List.iter (fun (p, _) -> StringTbl.replace written p ()) f.tf_params;
  let expr () (e : texpr) =
    match e.te with
    | TAssign (_, a, _) | TAddrOf a | TIncDec (_, _, a) -> write a
    | TNewObj { args; _ } | TCall (CFree (_, args) | CFunPtr (_, args)) ->
        List.iter write args
    | TCall (CMethod mc) -> List.iter write mc.mc_args
    | _ -> ()
  in
  let exprs = List.iter (fold_expr expr ()) in
  let decl (d : tvar_decl) =
    let init =
      match d.tv_init with
      | TInitExpr e -> (
          fold_expr expr () e;
          match d.tv_type with
          | Ast.TPtr _ | Ast.TFun _ -> e.tid
          | Ast.TRef _ ->
              write e;
              -1
          | _ -> -1)
      | TInitCtor (_, args) ->
          List.iter write args;
          exprs args;
          -1
      | TInitNone -> -1
    in
    match StringTbl.find decls d.tv_name with
    | _ -> StringTbl.replace decls d.tv_name (-1)
    | exception Not_found -> StringTbl.add decls d.tv_name init
  in
  (* a statement's own expressions; [fold_stmts] reaches the nested
     statements *)
  let stmt () (s : tstmt) =
    match s.ts with
    | TSDecl ds -> List.iter decl ds
    | TSExpr e
    | TSIf (e, _, _)
    | TSWhile (e, _)
    | TSDoWhile (_, e)
    | TSReturn (Some e)
    | TSDelete (_, e) ->
        fold_expr expr () e
    | TSFor (_, cond, step, _) ->
        Option.iter (fold_expr expr ()) cond;
        Option.iter (fold_expr expr ()) step
    | TSReturn None | TSBlock _ | TSBreak | TSContinue | TSEmpty -> ()
  in
  List.iter (fun bi -> exprs bi.bi_args) f.tf_base_inits;
  List.iter (fun fi -> exprs fi.fi_args) f.tf_field_inits;
  Option.iter (fold_stmts stmt ()) f.tf_body;
  StringTbl.iter
    (fun x init ->
      if init >= 0 && not (StringTbl.mem written x) then
        Bytes.set st.subst init '\001')
    decls

(* A function instance under generation. Its locals' table is found
   once, and its [this] node the first time the body names it, rather
   than once per reference. *)
type inst = {
  i_fx : fctx;
  i_vars : int StringTbl.t;
  mutable i_this : int;  (* [nonode] until asked *)
}

let inst st fx = { i_fx = fx; i_vars = vars_of st fx; i_this = nonode }

let inst_this st ix =
  if ix.i_this = nonode then ix.i_this <- node_of_this st ix.i_fx;
  ix.i_this

(* An expression's node in context [cx] among its clones' entries, or
   [nonode]. *)
let rec node_in cx = function
  | [] -> nonode
  | (c, n) :: rest -> if compare_ctx c cx = 0 then n else node_in cx rest

let rec gen_expr st ix (e : texpr) : int =
  match st.expr_node with
  | Single nodes ->
      let n = nodes.(e.tid) in
      if n >= 0 then n
      else begin
        let n = gen_new st ix e in
        if n >= 0 then nodes.(e.tid) <- n;
        n
      end
  | Cloned nodes ->
      let prior = nodes.(e.tid) and cx = snd ix.i_fx in
      let n = node_in cx prior in
      if n >= 0 then n
      else begin
        let n = gen_new st ix e in
        if n >= 0 then nodes.(e.tid) <- (cx, n) :: prior;
        n
      end

(* safety net: a tracked expression must always have a node — an
   unmodelled corner becomes ⊤, never a silent drop *)
and gen_new st ix (e : texpr) : int =
  let n = gen_expr_raw st ix e in
  if n < 0 && tracked st e.ty then begin
    let t = fresh_node st in
    set_top st t;
    t
  end
  else n

and gen_expr_raw st ix (e : texpr) : int =
  match e.te with
  | TInt _ | TBool _ | TChar _ | TFloat _ | TEnumConst _ | TSizeofType _ ->
      nonode
  | TNull | TStr _ ->
      (* a value that points to nothing the analysis tracks *)
      if tracked st e.ty then fresh_node st else nonode
  | TSizeofExpr _ -> nonode  (* operand is unevaluated *)
  | TLocal x -> if tracked st e.ty then var_node st ix.i_vars x else nonode
  | TGlobalVar g -> if tracked st e.ty then node_of_global st g else nonode
  | TThis _ -> inst_this st ix
  | TStaticField (c, f) ->
      if tracked st e.ty then node_of_field st (Member.make ~cls:c ~name:f)
      else nonode
  | TField fa ->
      ignore (gen_expr st ix fa.fa_obj);
      if tracked st e.ty then
        node_of_field st (Member.make ~cls:fa.fa_def_class ~name:fa.fa_field)
      else nonode
  | TUnary (_, a) ->
      ignore (gen_expr st ix a);
      nonode
  | TBinary (_, a, b) ->
      (* pointer arithmetic preserves the pointed-to objects *)
      let ga = gen_rval st ix a and gb = gen_rval st ix b in
      if tracked st e.ty then if ga >= 0 then ga else gb else nonode
  | TAssign (op, lhs, rhs) ->
      let gr = gen_rval st ix rhs in
      let lvs = gen_lval st ix lhs in
      if op = Ast.Assign && tracked st rhs.ty then do_assign st lvs gr;
      if tracked st e.ty then gr else nonode
  | TIncDec (_, _, a) ->
      let ga = gen_expr st ix a in
      if tracked st e.ty then ga else nonode
  | TCond (c, t, f) ->
      ignore (gen_expr st ix c);
      let gt = gen_rval st ix t and gf = gen_rval st ix f in
      if tracked st e.ty then begin
        let n = fresh_node st in
        add_edge st gt n;
        add_edge st gf n;
        n
      end
      else nonode
  | TCast (_, _, a, _) ->
      let ga = gen_rval st ix a in
      if tracked st e.ty then
        if ga >= 0 then ga
        else begin
          (* scalar forged into a pointer: unknown target *)
          let n = fresh_node st in
          set_top st n;
          n
        end
      else nonode
  | TAddrOf a -> (
      match Ctype.class_name a.ty with
      | Some _ -> gen_expr st ix a  (* &object = the object's identity *)
      | None ->
          let lvs = gen_lval st ix a in
          let n = fresh_node st in
          List.iter
            (function
              | LNode ln -> add_obj st n (cell_object st ln)
              | LIndirect p -> add_edge st p n  (* &( *p ) = p *)
              | LTop -> set_top st n
              | LNone -> ())
            lvs;
          n)
  | TFunAddr id ->
      take_address st id;
      let n = fresh_node st in
      add_obj st n (fun_object st id);
      n
  | TMemPtr _ -> nonode
  | TDeref a | TIndex (a, _) ->
      (match e.te with
      | TIndex (_, i) -> ignore (gen_expr st ix i)
      | _ -> ());
      let ga = gen_expr st ix a in
      if Option.is_some (Ctype.class_name e.ty) then ga
        (* objects are second-class: denoting one denotes the pointer's
           targets *)
      else if is_array_ty a.ty then
        (* arrays are collapsed: an element read is the array node *)
        if tracked st e.ty then ga else nonode
      else if tracked st e.ty then begin
        let n = fresh_node st in
        if ga >= 0 then add_load st ga n else set_top st n;
        n
      end
      else nonode
  | TMemPtrDeref (recv, mp, _) ->
      ignore (gen_expr st ix recv);
      ignore (gen_expr st ix mp);
      if tracked st e.ty then begin
        let n = fresh_node st in
        set_top st n;
        n
      end
      else nonode
  | TNewObj { cls; ctor; args } ->
      (* one object per static occurrence, shared by all clones *)
      let o =
        memo_tid st.site_obj e (fun () ->
            new_obj st ~cls:(Some cls) ~fn:None ~payload:(-1)
              ~site:(Some e.tloc))
      in
      let gargs = gen_args st ix args in
      let cfx = (ctor, ctx_for st ctor (CObj o)) in
      reach st cfx;
      add_obj st (node_of_this st cfx) o;
      let n = fresh_node st in
      add_obj st n o;
      bind_args st cfx gargs nonode;
      n
  | TNewScalar _ ->
      let o =
        memo_tid st.site_obj e (fun () ->
            let p = fresh_node st in
            new_obj st ~cls:None ~fn:None ~payload:p ~site:(Some e.tloc))
      in
      let n = fresh_node st in
      add_obj st n o;
      n
  | TNewArr (ty, len) ->
      ignore (gen_expr st ix len);
      let n = fresh_node st in
      (match ty with
      | Ast.TNamed cls when Class_table.mem st.table cls ->
          let o =
            memo_tid st.site_obj e (fun () ->
                new_obj st ~cls:(Some cls) ~fn:None ~payload:(-1)
                  ~site:(Some e.tloc))
          in
          let ctor = Func_id.FCtor (cls, 0) in
          let cfx = (ctor, ctx_for st ctor (CObj o)) in
          reach st cfx;
          add_obj st (node_of_this st cfx) o;
          add_obj st n o
      | _ ->
          let o =
            memo_tid st.site_obj e (fun () ->
                let p = fresh_node st in
                new_obj st ~cls:None ~fn:None ~payload:p ~site:(Some e.tloc))
          in
          add_obj st n o);
      n
  | TCall c -> gen_call st ix e c

and do_assign st lvs rhs_node =
  List.iter
    (function
      | LNode n -> add_edge st rhs_node n
      | LIndirect p -> if rhs_node >= 0 then add_store st p rhs_node
      | LTop -> do_havoc st
      | LNone -> ())
    lvs

and gen_lval st ix (e : texpr) : lv list =
  match e.te with
  | TLocal x ->
      [ (if tracked st e.ty then LNode (var_node st ix.i_vars x) else LNone) ]
  | TGlobalVar g ->
      [ (if tracked st e.ty then LNode (node_of_global st g) else LNone) ]
  | TStaticField (c, f) ->
      [
        (if tracked st e.ty then
           LNode (node_of_field st (Member.make ~cls:c ~name:f))
         else LNone);
      ]
  | TField fa ->
      ignore (gen_expr st ix fa.fa_obj);
      [
        (if tracked st e.ty then
           LNode (node_of_field st (Member.make ~cls:fa.fa_def_class ~name:fa.fa_field))
         else LNone);
      ]
  | TDeref a | TIndex (a, _) ->
      (match e.te with
      | TIndex (_, i) -> ignore (gen_expr st ix i)
      | _ -> ());
      let ga = gen_expr st ix a in
      if is_array_ty a.ty then
        (* arrays are collapsed: an element write is a direct write *)
        [ (if ga >= 0 then LNode ga else LNone) ]
      else [ (if ga >= 0 then LIndirect ga else LNone) ]
  | TCond (c, t, f) ->
      ignore (gen_expr st ix c);
      gen_lval st ix t @ gen_lval st ix f
  | TCast (_, _, a, _) -> gen_lval st ix a
  | TMemPtrDeref (recv, mp, _) ->
      ignore (gen_expr st ix recv);
      ignore (gen_expr st ix mp);
      [ LTop ]
  | _ ->
      ignore (gen_expr st ix e);
      [ LTop ]

(* The write-back sink for an argument that may bind to a
   reference-to-pointer formal: writes to the formal flow back here. *)
and arg_backflow st ix (a : texpr) : int option =
  match a.ty with
  | Ast.TPtr _ | Ast.TFun _ -> (
      match a.te with
      | TLocal _ | TGlobalVar _ | TField _ | TStaticField _ | TDeref _
      | TIndex _ -> (
          match gen_lval st ix a with
          | [ LNode n ] -> Some n
          | [ LIndirect p ] ->
              let bk = fresh_node st in
              add_store st p bk;
              Some bk
          | _ -> None)
      | _ -> None)
  | _ -> None

(* An array used as a value decays to a pointer to its collapsed
   element node. *)
and gen_rval st ix (e : texpr) : int =
  let n = gen_expr st ix e in
  if n >= 0 && is_decaying_array e.ty then begin
    let p = fresh_node st in
    add_obj st p (cell_object st n);
    p
  end
  else n

and gen_args st ix args =
  List.map (fun a -> (gen_rval st ix a, arg_backflow st ix a)) args

and gen_static_call st ix ~recv ~callee ~args ret_ty =
  let gargs = gen_args st ix args in
  reach st callee;
  (match recv with
  | Some r -> add_edge st r (node_of_this st callee)
  | None -> ());
  let rn = if tracked st ret_ty then fresh_node st else nonode in
  bind_args st callee gargs rn;
  rn

(* A method call routed through its receiver's objects: virtual calls
   always; statically-resolved calls too in [OneCfa] mode, so the callee
   is cloned per receiver allocation site. *)
and gen_method_site st ix (e : texpr) (mc : method_call) ~fixed ~static_cls
    grecv =
  let gargs = gen_args st ix mc.mc_args in
  let rn = if tracked st e.ty then fresh_node st else nonode in
  let rnode =
    if grecv >= 0 then grecv
    else begin
      let t = fresh_node st in
      set_top st t;
      t
    end
  in
  attach_vsite st ~fixed ~static_cls ~name:mc.mc_name ~serial:(serial_of st e)
    { m_args = gargs; m_ret = rn }
    rnode;
  rn

and gen_call st ix (e : texpr) (c : call) : int =
  match c with
  | CBuiltin (_, args) ->
      List.iter (fun a -> ignore (gen_expr st ix a)) args;
      nonode
  | CFree (name, args) ->
      let target = Func_id.FFree name in
      let cfx = (target, ctx_for st target (CSite (serial_of st e))) in
      gen_static_call st ix ~recv:None ~callee:cfx ~args e.ty
  | CMethod mc -> (
      let grecv = gen_expr st ix mc.mc_recv in
      let static_target = Func_id.FMethod (mc.mc_class, mc.mc_name) in
      let static_call () =
        let cx =
          match st.mode with
          | Insensitive -> CRoot
          | OneCfa -> ctx_for st static_target (CSite (serial_of st e))
        in
        gen_static_call st ix
          ~recv:(if grecv >= 0 then Some grecv else None)
          ~callee:(static_target, cx) ~args:mc.mc_args e.ty
      in
      match mc.mc_dispatch with
      | DStatic -> (
          match st.mode with
          | OneCfa when grecv >= 0 ->
              let scls =
                match receiver_static_class mc with
                | Some s -> s
                | None -> mc.mc_class
              in
              gen_method_site st ix e mc ~fixed:(Some static_target)
                ~static_cls:scls grecv
          | _ -> static_call ())
      | DVirtual -> (
          match receiver_static_class mc with
          | None -> static_call ()
          | Some scls ->
              gen_method_site st ix e mc ~fixed:None ~static_cls:scls grecv))
  | CFunPtr (fnx, args) -> (
      match fnx.te with
      | TFunAddr id ->
          (* direct call through a literal address: no indirection *)
          let cfx = (id, ctx_for st id (CSite (serial_of st e))) in
          gen_static_call st ix ~recv:None ~callee:cfx ~args e.ty
      | _ ->
          let gf = gen_expr st ix fnx in
          List.iter (fun a -> ignore (gen_expr st ix a)) args;
          let rn = if tracked st e.ty then fresh_node st else nonode in
          let fs =
            {
              fs_serial = serial_of st e;
              fs_arity = List.length args;
              fs_ret = rn;
              fs_bound = FuncSet.empty;
              fs_top = false;
            }
          in
          st.all_fsites <- fs :: st.all_fsites;
          let fnode =
            if gf >= 0 then gf
            else begin
              let t = fresh_node st in
              set_top st t;
              t
            end
          in
          attach_fsite st fs fnode;
          rn)

(* -- statements and functions -------------------------------------------------- *)

and gen_decl st ix (d : tvar_decl) =
  match d.tv_type with
  | Ast.TNamed cls when Class_table.mem st.table cls ->
      (* a stack object: exact dynamic class, destroyed at scope exit *)
      let o =
        memo DeclTbl.find DeclTbl.add st.decl_obj d (fun () ->
            new_obj st ~cls:(Some cls) ~fn:None ~payload:(-1)
              ~site:(Some d.tv_loc))
      in
      add_obj st (var_node st ix.i_vars d.tv_name) o;
      (match d.tv_init with
      | TInitCtor (ctor, args) ->
          let gargs = gen_args st ix args in
          let cfx = (ctor, ctx_for st ctor (CObj o)) in
          reach st cfx;
          add_obj st (node_of_this st cfx) o;
          bind_args st cfx gargs nonode
      | TInitNone ->
          let ctor = Func_id.FCtor (cls, 0) in
          let cfx = (ctor, ctx_for st ctor (CObj o)) in
          reach st cfx;
          add_obj st (node_of_this st cfx) o
      | TInitExpr e -> ignore (gen_expr st ix e));
      reach st (Func_id.FDtor cls, CRoot)
  | Ast.TArr (Ast.TNamed cls, _) when Class_table.mem st.table cls ->
      let o =
        memo DeclTbl.find DeclTbl.add st.decl_obj d (fun () ->
            new_obj st ~cls:(Some cls) ~fn:None ~payload:(-1)
              ~site:(Some d.tv_loc))
      in
      add_obj st (var_node st ix.i_vars d.tv_name) o;
      let ctor = Func_id.FCtor (cls, 0) in
      let cfx = (ctor, ctx_for st ctor (CObj o)) in
      reach st cfx;
      add_obj st (node_of_this st cfx) o;
      reach st (Func_id.FDtor cls, CRoot);
      (match d.tv_init with
      | TInitExpr e -> ignore (gen_expr st ix e)
      | _ -> ())
  | _ -> (
      match d.tv_init with
      | TInitExpr e ->
          let ge = gen_rval st ix e in
          let vars = ix.i_vars in
          if
            ge >= 0
            && Bytes.get st.subst e.tid = '\001'
            && not (StringTbl.mem vars d.tv_name)
          then StringTbl.add vars d.tv_name ge
          else if tracked st d.tv_type then begin
            let v = var_node st ix.i_vars d.tv_name in
            add_edge st ge v;
            if ref_needs_writeback d.tv_type then
              (* the local is an alias: writes through it must reach the
                 initializer's location *)
              List.iter
                (function
                  | LNode n -> add_edge st v n
                  | LIndirect p -> add_store st p v
                  | LTop -> do_havoc st
                  | LNone -> ())
                (gen_lval st ix e)
          end
      | TInitCtor (_, args) -> (
          match args with
          | [ a ] when tracked st d.tv_type ->
              let ga = gen_rval st ix a in
              add_edge st ga (var_node st ix.i_vars d.tv_name)
          | _ -> List.iter (fun a -> ignore (gen_expr st ix a)) args)
      | TInitNone -> ())

and gen_stmt st ix (s : tstmt) =
  match s.ts with
  | TSExpr e -> ignore (gen_expr st ix e)
  | TSDecl ds -> List.iter (gen_decl st ix) ds
  | TSIf (c, _, _) | TSWhile (c, _) | TSDoWhile (_, c) ->
      ignore (gen_expr st ix c)
  | TSFor (_, cond, step, _) ->
      Option.iter (fun e -> ignore (gen_expr st ix e)) cond;
      Option.iter (fun e -> ignore (gen_expr st ix e)) step
  | TSReturn (Some e) ->
      let ge = gen_rval st ix e in
      if tracked st e.ty then add_edge st ge (node_of_ret st ix.i_fx)
  | TSDelete (_, e) -> (
      let ge = gen_expr st ix e in
      match Ctype.pointee e.ty with
      | Some (Ast.TNamed cls) when Class_table.mem st.table cls ->
          if dtor_is_virtual st.table cls then begin
            let ds =
              {
                ds_serial = serial_of st e;
                ds_static = cls;
                ds_classes = StringSet.empty;
                ds_seen = StringSet.empty;
                ds_top = false;
              }
            in
            st.all_dsites <- ds :: st.all_dsites;
            let dnode =
              if ge >= 0 then ge
              else begin
                let t = fresh_node st in
                set_top st t;
                t
              end
            in
            attach_dsite st ds dnode
          end
          else reach st (Func_id.FDtor cls, CRoot)
      | _ -> ())
  | TSReturn None | TSBlock _ | TSBreak | TSContinue | TSEmpty -> ()

(* Generate the constraints of one newly-reached function instance:
   structural constructor/destructor obligations (mirroring the
   call-graph builder's [structural_events]), then the body. *)
and gen_func st (fx : fctx) =
  let id, cx = fx in
  match find_func st.prog id with
  | None -> ()
  | Some f ->
      if not (FuncTbl.mem st.scanned id) then begin
        FuncTbl.add st.scanned id ();
        mark_substitutable st f
      end;
      let ix = inst st fx in
      (match id with
      | Func_id.FCtor (cls, _) ->
          (* while a constructor runs, the dynamic type is the class
             itself (C++ dispatch-during-construction) *)
          add_obj st (inst_this st ix) (class_object st cls);
          List.iter
            (fun (bi : base_init) ->
              let bctor = Func_id.FCtor (bi.bi_class, List.length bi.bi_args) in
              let gargs = gen_args st ix bi.bi_args in
              (* the base subobject is the same object under
                 construction: its clone keeps the caller's context *)
              let bcx =
                match cx with CObj _ -> ctx_for st bctor cx | _ -> CRoot
              in
              let bfx = (bctor, bcx) in
              reach st bfx;
              (* the object under construction is the base ctor's receiver
                 too: if [this] escapes from the base ctor, it carries the
                 derived object's identity *)
              add_edge st (inst_this st ix) (node_of_this st bfx);
              bind_args st bfx gargs nonode)
            f.tf_base_inits;
          let c = Class_table.find_exn st.table cls in
          List.iter
            (fun (fl : Class_table.field) ->
              if not fl.f_static then
                let explicit =
                  List.find_opt
                    (fun fi -> fi.fi_field = fl.f_name)
                    f.tf_field_inits
                in
                match fl.f_type with
                | Ast.TNamed fcls when Class_table.mem st.table fcls ->
                    let nargs =
                      match explicit with
                      | Some fi -> List.length fi.fi_args
                      | None -> 0
                    in
                    let gargs =
                      match explicit with
                      | Some fi -> gen_args st ix fi.fi_args
                      | None -> []
                    in
                    let fctor = Func_id.FCtor (fcls, nargs) in
                    let ffx = (fctor, CRoot) in
                    reach st ffx;
                    bind_args st ffx gargs nonode
                | Ast.TArr (Ast.TNamed fcls, _)
                  when Class_table.mem st.table fcls ->
                    reach st (Func_id.FCtor (fcls, 0), CRoot)
                | _ -> (
                    match explicit with
                    | Some fi when tracked st fl.f_type -> (
                        match fi.fi_args with
                        | [ a ] ->
                            let ga = gen_expr st ix a in
                            add_edge st ga
                              (node_of_field st
                                 (Member.make ~cls ~name:fl.f_name))
                        | args ->
                            List.iter
                              (fun a -> ignore (gen_expr st ix a))
                              args)
                    | Some fi ->
                        List.iter
                          (fun a -> ignore (gen_expr st ix a))
                          fi.fi_args
                    | None -> ()))
            c.c_fields
      | Func_id.FDtor cls ->
          add_obj st (inst_this st ix) (class_object st cls);
          let c = Class_table.find_exn st.table cls in
          List.iter
            (fun (b : Ast.base_spec) -> reach st (Func_id.FDtor b.b_name, CRoot))
            c.c_bases;
          List.iter
            (fun vb ->
              if
                not
                  (List.exists
                     (fun (b : Ast.base_spec) -> b.b_name = vb)
                     c.c_bases)
              then reach st (Func_id.FDtor vb, CRoot))
            (Class_table.virtual_base_names st.table cls);
          List.iter
            (fun (fl : Class_table.field) ->
              if not fl.f_static then
                match fl.f_type with
                | Ast.TNamed fcls | Ast.TArr (Ast.TNamed fcls, _) ->
                    if Class_table.mem st.table fcls then
                      reach st (Func_id.FDtor fcls, CRoot)
                | _ -> ())
            c.c_fields
      | Func_id.FFree _ | Func_id.FMethod _ -> ());
      Option.iter (fold_stmts (fun () s -> gen_stmt st ix s) ()) f.tf_body

(* -- driver -------------------------------------------------------------------- *)

let solve st =
  let round = Queue.create () in
  let running = ref true in
  while !running do
    while not (Queue.is_empty st.gen_queue) do
      gen_func st (Queue.pop st.gen_queue)
    done;
    if Queue.is_empty st.worklist then running := false
    else begin
      st.rounds <- st.rounds + 1;
      Telemetry.Counter.incr round_counter;
      Queue.transfer st.worklist round;
      while not (Queue.is_empty round) do
        propagate st (Queue.pop round)
      done
    end
  done

(* A converged solution should retain the answer, not the machinery
   that produced it: drop the capacity slack of the node/object stores,
   the constraint graph and the generation-time memos. *)
let shrink st =
  if Array.length st.nodes > st.n_nodes then
    st.nodes <- Array.sub st.nodes 0 st.n_nodes;
  if Array.length st.objs > st.n_objs then
    st.objs <- Array.sub st.objs 0 st.n_objs;
  Array.iter
    (fun n ->
      (* the constraint graph exists to reach the fixpoint; the
         solution keeps only per-node answers ([pts], [top]) and the
         site registries ([all_vsites] & co) *)
      n.delta <- Ptset.empty;
      n.succ <- IntSet.empty;
      n.loads <- IntSet.empty;
      n.stores <- IntSet.empty;
      n.vsites <- [];
      n.fsites <- [];
      n.dsites <- [])
    st.nodes;
  (* generation-time memos: nothing after the solve reads them *)
  FctxTbl.reset st.var_node;
  StringTbl.reset st.global_node;
  MemberTbl.reset st.field_node;
  FuncTbl.reset st.fun_obj;
  StringTbl.reset st.class_obj;
  IntTbl.reset st.cell_obj;
  FctxTbl.reset st.this_node;
  FctxTbl.reset st.ret_node;
  st.subst <- Bytes.empty;
  FuncTbl.reset st.scanned;
  st.site_obj <- [||];
  st.serial_tbl <- [||];
  DeclTbl.reset st.decl_obj

(* A dispatch site (one static occurrence, all clones) counts as a
   fallback when the analysis could not pin it to a single receiver in
   some context: a clone degraded to ⊤, or a clone saw more than one
   receiver class (more than one bound target for function pointers).
   Statically-resolved sites routed through objects are not counted. *)
let count_fallback_sites st =
  let status : (int, bool) Hashtbl.t = Hashtbl.create 64 in
  let mark serial fb =
    let prev = try Hashtbl.find status serial with Not_found -> false in
    Hashtbl.replace status serial (prev || fb)
  in
  List.iter
    (fun vs ->
      if vs.vs_fixed = None then
        let fb = vs.vs_top || StringSet.cardinal vs.vs_seen > 1 in
        List.iter (fun serial -> mark serial fb) vs.vs_serials)
    st.all_vsites;
  List.iter
    (fun fs -> mark fs.fs_serial (fs.fs_top || FuncSet.cardinal fs.fs_bound > 1))
    st.all_fsites;
  List.iter
    (fun ds ->
      mark ds.ds_serial (ds.ds_top || StringSet.cardinal ds.ds_seen > 1))
    st.all_dsites;
  Hashtbl.fold (fun _ fb acc -> if fb then acc + 1 else acc) status 0

let analyze ?(mode = Insensitive) ?(roots = [ main_id ]) (p : program) :
    solution =
  Telemetry.Span.with_ "pta" @@ fun () ->
  let st =
    {
      prog = p;
      table = p.table;
      mode;
      nodes = [||];
      n_nodes = 0;
      objs = [||];
      n_objs = 0;
      expr_node =
        (match mode with
        | Insensitive -> Single (Array.make p.n_exprs nonode)
        | OneCfa -> Cloned (Array.make p.n_exprs []));
      site_obj = Array.make p.n_exprs (-1);
      serial_tbl = Array.make p.n_exprs (-1);
      decl_obj = DeclTbl.create 64;
      n_serials = 0;
      subst = Bytes.make p.n_exprs '\000';
      scanned = FuncTbl.create 64;
      var_node = FctxTbl.create 64;
      this_node = FctxTbl.create 64;
      ret_node = FctxTbl.create 64;
      global_node = StringTbl.create 16;
      field_node = MemberTbl.create 64;
      fun_obj = FuncTbl.create 16;
      class_obj = StringTbl.create 16;
      cell_obj = IntTbl.create 16;
      worklist = Queue.create ();
      gen_queue = Queue.create ();
      instances = FctxTbl.create 256;
      reached = FuncSet.empty;
      inst = StringSet.empty;
      addr_taken = FuncSet.empty;
      all_vsites = [];
      all_fsites = [];
      all_dsites = [];
      top_vsites = [];
      top_fsites = [];
      top_dsites = [];
      havoc = false;
      n_copy = 0;
      n_complex = 0;
      n_delta = 0;
      rounds = 0;
      class_answers = NodesTbl.create 16;
      fn_answers = NodesTbl.create 16;
      site_answers = NodesTbl.create 16;
    }
  in
  Telemetry.Span.with_ "pta.seed" (fun () ->
      (* global initializers run in [main]'s instance *)
      let ix = inst st (main_id, CRoot) in
      List.iter
        (fun (g : global) ->
          match g.g_init with
          | Some e ->
              let n = gen_rval st ix e in
              if tracked st g.g_type then
                add_edge st n (node_of_global st g.g_name)
          | None -> ())
        p.globals;
      List.iter (make_root st) roots);
  Telemetry.Span.with_ "pta.solve" (fun () -> solve st);
  shrink st;
  Telemetry.Gauge.set reach_gauge (FuncSet.cardinal st.reached);
  Telemetry.Gauge.set ctx_gauge (FctxTbl.length st.instances);
  Telemetry.Gauge.set fallback_gauge (count_fallback_sites st);
  st

(* -- queries -------------------------------------------------------------------- *)

let mode st = st.mode
let reachable st = st.reached
let instantiated st = StringSet.elements st.inst
let address_taken st = st.addr_taken
let havoc st = st.havoc

(* The union of the nodes' sets, [None] when one degraded to ⊤. *)
let node_objects st nodes =
  let ok = ref true in
  let pts =
    List.fold_left
      (fun acc n ->
        let nd = st.nodes.(n) in
        if nd.top then ok := false;
        Ptset.union acc nd.pts)
      Ptset.empty nodes
  in
  if !ok then Some pts else None

(* [answer] over the union of every context clone of the expression
   occurrence, computed once per node list and then looked up: [None]
   when any clone's node degraded to ⊤ (or the store havocked), or the
   occurrence was never analyzed. *)
let memo_answer tbl answer st (e : texpr) =
  let nodes =
    match st.expr_node with
    | Single a when e.tid < Array.length a && a.(e.tid) >= 0 -> [ a.(e.tid) ]
    | Cloned a when e.tid < Array.length a -> List.map snd a.(e.tid)
    | Single _ | Cloned _ -> []
  in
  match nodes with
  | [] -> None
  | _ when st.havoc -> None
  | _ ->
      memo NodesTbl.find NodesTbl.add tbl nodes (fun () ->
          Option.bind (node_objects st nodes) (answer st))

let classes_of st pts =
  let ok = ref true in
  let cs =
    Ptset.fold
      (fun o acc ->
        match (st.objs.(o)).o_class with
        | Some c -> StringSet.add c acc
        | None ->
            ok := false;
            acc)
      pts StringSet.empty
  in
  if !ok then Some (StringSet.elements cs) else None

let functions_of st pts =
  let ok = ref true in
  let fs =
    Ptset.fold
      (fun o acc ->
        match (st.objs.(o)).o_fn with
        | Some f -> FuncSet.add f acc
        | None ->
            ok := false;
            acc)
      pts FuncSet.empty
  in
  if !ok then Some (FuncSet.elements fs) else None

(* The allocation sites behind a set's objects — the provenance the
   [explain] command names. Sites without a textual location
   (class-identity and cell objects) are skipped. *)
let alloc_sites_of st pts =
  let sites =
    Ptset.fold
      (fun o acc ->
        let ob = st.objs.(o) in
        match ob.o_site with
        | Some sp ->
            let cls = match ob.o_class with Some c -> c | None -> "<scalar>" in
            (cls, sp) :: acc
        | None -> acc)
      pts []
  in
  Some (List.sort_uniq Stdlib.compare sites)

let receiver_classes st e = memo_answer st.class_answers classes_of st e
let funptr_targets st e = memo_answer st.fn_answers functions_of st e

let receiver_alloc_sites st e =
  memo_answer st.site_answers alloc_sites_of st e

let num_nodes st = st.n_nodes
let num_objects st = st.n_objs
let num_constraints st = st.n_copy + st.n_complex

type stats = {
  p_nodes : int;
  p_objects : int;
  p_constraints : int;
  p_sets_interned : int;
  p_memo_hits : int;
  p_delta_props : int;
  p_solver_iters : int;
  p_contexts : int;
  p_fallback_sites : int;
  p_reachable : int;
}

let stats st =
  {
    p_nodes = st.n_nodes;
    p_objects = st.n_objs;
    p_constraints = st.n_copy + st.n_complex;
    p_sets_interned = 0;
    p_memo_hits = 0;
    p_delta_props = st.n_delta;
    p_solver_iters = st.rounds;
    p_contexts = FctxTbl.length st.instances;
    p_fallback_sites = count_fallback_sites st;
    p_reachable = FuncSet.cardinal st.reached;
  }
