(* Call-graph construction for MiniC++ programs.

   The paper builds its call graph with a slightly modified Program
   Virtual-call Graph (PVG) algorithm [4] and notes that call-graph
   precision bounds analysis precision (§3.1). We provide:

   - [Cha] — Class Hierarchy Analysis: a virtual call through a receiver of
     static class S may dispatch to the override in any subclass of S;
   - [Rta] — Rapid Type Analysis (Bacon & Sweeney, OOPSLA'96 [5]): like
     CHA, but dynamic receiver classes are restricted to classes whose
     constructor is reachable;
   - [Pta] — Andersen-style points-to analysis ([Pta] module): virtual
     calls, virtual deletes and function-pointer calls resolve against
     the receiver's computed points-to set, intersected with the RTA
     candidate cone so the result is never less precise than RTA.
     Receivers with unknown (⊤) or unrepresentable sets fall back to
     RTA resolution per site; a global havoc degrades every site.

   All honour the paper's conservative extra roots (§3.3): a function
   whose address is taken in reachable code is reachable, and methods of
   user classes that override a virtual method of a *library* class are
   reachable (the library may call back into them). *)

open Frontend
open Sema
open Sema.Typed_ast
module StringSet = Set.Make (String)

type algorithm = Cha | Rta | Pta | Pta1

let algorithm_to_string = function
  | Cha -> "CHA"
  | Rta -> "RTA"
  | Pta -> "PTA"
  | Pta1 -> "PTA1"

module EdgeMap = Map.Make (struct
  type t = Func_id.t * Func_id.t

  let compare = Stdlib.compare
end)

type t = {
  algorithm : algorithm;
  nodes : FuncSet.t;  (* reachable functions *)
  edges : FuncSet.t FuncMap.t;
  roots : FuncSet.t;
  instantiated : StringSet.t;  (* classes whose ctor is reachable *)
  address_taken : FuncSet.t;
  edge_sites : (string * Source.span) list list EdgeMap.t;
      (* dispatch edges resolved from points-to sets -> the allocation
         sites of the receiver objects that produced them, one list per
         distinct receiver answer; merged by [dispatch_sites] *)
  pta_stats : Pta.stats option;  (* solver stats of the deciding solution *)
}

let reachable t id = FuncSet.mem id t.nodes

let dispatch_sites t ~src dst =
  match EdgeMap.find_opt (src, dst) t.edge_sites with
  | None -> []
  | Some [ ss ] -> ss
  | Some per_site -> List.sort_uniq Stdlib.compare (List.concat per_site)
let callees t id = Option.value ~default:FuncSet.empty (FuncMap.find_opt id t.edges)
let num_nodes t = FuncSet.cardinal t.nodes

let num_edges t =
  FuncMap.fold (fun _ s acc -> acc + FuncSet.cardinal s) t.edges 0

(* -- per-function events ---------------------------------------------------- *)

type event =
  | EStatic of Func_id.t
  | EVirtual of string * string * texpr  (* static class, method, receiver *)
  | EVirtualDelete of string * texpr     (* static pointee class, pointer *)
  | EStaticDelete of string
  | EFunPtrCall of int * texpr           (* arity, pointer expression *)
  | EAddrTaken of Func_id.t
  | EInstantiate of string * Func_id.t (* class, ctor *)
  | EStackDestroy of string

let receiver_class (mc : method_call) : string option =
  if mc.mc_arrow then Ctype.receiver_class_arrow mc.mc_recv.ty
  else Ctype.receiver_class_dot mc.mc_recv.ty

(* Is the destructor of [cls] virtual (declared so anywhere in the
   hierarchy)? *)
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

let expr_events table acc (e : texpr) =
  match e.te with
  | TCall (CFree (name, _)) -> EStatic (Func_id.FFree name) :: acc
  | TCall (CMethod mc) -> (
      match mc.mc_dispatch with
      | DStatic -> EStatic (Func_id.FMethod (mc.mc_class, mc.mc_name)) :: acc
      | DVirtual -> (
          match receiver_class mc with
          | Some cls -> EVirtual (cls, mc.mc_name, mc.mc_recv) :: acc
          | None -> EStatic (Func_id.FMethod (mc.mc_class, mc.mc_name)) :: acc))
  | TCall (CFunPtr (fn, args)) -> (
      match fn.te with
      | TFunAddr id -> EStatic id :: acc
      | _ -> EFunPtrCall (List.length args, fn) :: acc)
  | TCall (CBuiltin _) -> acc
  | TFunAddr id -> EAddrTaken id :: acc
  | TNewObj { cls; ctor; _ } -> EInstantiate (cls, ctor) :: acc
  | TNewArr (Ast.TNamed cls, _) ->
      EInstantiate (cls, Func_id.FCtor (cls, 0)) :: acc
  | _ ->
      ignore table;
      acc

let stmt_events table acc (s : tstmt) =
  match s.ts with
  | TSDecl ds ->
      List.fold_left
        (fun acc d ->
          match d.tv_init with
          | TInitCtor (ctor, _) -> (
              match d.tv_type with
              | Ast.TNamed cls ->
                  EStackDestroy cls :: EInstantiate (cls, ctor) :: acc
              | _ -> acc)
          | TInitNone | TInitExpr _ -> (
              (* stack arrays of class objects *)
              match d.tv_type with
              | Ast.TArr (Ast.TNamed cls, _) ->
                  EStackDestroy cls
                  :: EInstantiate (cls, Func_id.FCtor (cls, 0))
                  :: acc
              | _ -> acc))
        acc ds
  | TSDelete (_, e) -> (
      match Ctype.pointee e.ty with
      | Some (Ast.TNamed cls) ->
          if dtor_is_virtual table cls then EVirtualDelete (cls, e) :: acc
          else EStaticDelete cls :: acc
      | _ -> acc)
  | _ -> acc

(* Structural obligations of constructors and destructors: base-class
   subobject construction, member subobject construction/destruction. *)
let structural_events table (fn : tfunc) : event list =
  match fn.tf_id with
  | Func_id.FCtor (cls, _) ->
      let c = Class_table.find_exn table cls in
      let base_events =
        List.map
          (fun bi ->
            EStatic (Func_id.FCtor (bi.bi_class, List.length bi.bi_args)))
          fn.tf_base_inits
      in
      let explicit = List.map (fun fi -> fi.fi_field) fn.tf_field_inits in
      let field_events =
        List.concat_map
          (fun (f : Class_table.field) ->
            if f.f_static then []
            else
              let ctor_of cls nargs = EStatic (Func_id.FCtor (cls, nargs)) in
              match f.f_type with
              | Ast.TNamed fcls ->
                  if List.mem f.f_name explicit then
                    let fi =
                      List.find (fun fi -> fi.fi_field = f.f_name) fn.tf_field_inits
                    in
                    [ ctor_of fcls (List.length fi.fi_args) ]
                  else [ ctor_of fcls 0 ]
              | Ast.TArr (Ast.TNamed fcls, _) -> [ ctor_of fcls 0 ]
              | _ -> [])
          c.c_fields
      in
      base_events @ field_events
  | Func_id.FDtor cls ->
      let c = Class_table.find_exn table cls in
      let base_events =
        List.map
          (fun (b : Ast.base_spec) -> EStatic (Func_id.FDtor b.b_name))
          c.c_bases
        @ List.filter_map
            (fun vb ->
              if List.exists (fun (b : Ast.base_spec) -> b.b_name = vb) c.c_bases
              then None
              else Some (EStatic (Func_id.FDtor vb)))
            (Class_table.virtual_base_names table cls)
      in
      let field_events =
        List.filter_map
          (fun (f : Class_table.field) ->
            if f.f_static then None
            else
              match f.f_type with
              | Ast.TNamed fcls | Ast.TArr (Ast.TNamed fcls, _) ->
                  Some (EStatic (Func_id.FDtor fcls))
              | _ -> None)
          c.c_fields
      in
      base_events @ field_events
  | Func_id.FFree _ | Func_id.FMethod _ -> []

let func_events table (fn : tfunc) : event list =
  let acc = structural_events table fn in
  let acc = fold_func_exprs (expr_events table) acc fn in
  let acc =
    match fn.tf_body with
    | Some body -> fold_stmts (stmt_events table) acc body
    | None -> acc
  in
  acc

(* -- virtual dispatch resolution -------------------------------------------- *)

(* Possible dynamic classes for a receiver of static class [s]:
   [s] itself and all subclasses, filtered by the instantiated set under
   RTA. *)
let candidate_classes ~algorithm ~instantiated table s =
  let all = s :: Class_table.subclasses table s in
  match algorithm with
  | Cha -> all
  | Rta | Pta | Pta1 -> List.filter (fun c -> StringSet.mem c instantiated) all

let resolve_virtual_among table ~candidates name : FuncSet.t =
  List.fold_left
    (fun acc d ->
      match Member_lookup.dispatch table ~dyn:d ~name with
      | Some (def, m) when m.m_body <> None || not m.m_pure ->
          FuncSet.add (Func_id.FMethod (def, name)) acc
      | Some (def, _) -> FuncSet.add (Func_id.FMethod (def, name)) acc
      | None -> acc)
    FuncSet.empty candidates

let resolve_virtual ~algorithm ~instantiated table s name : FuncSet.t =
  resolve_virtual_among table
    ~candidates:(candidate_classes ~algorithm ~instantiated table s)
    name

let resolve_virtual_delete ~algorithm ~instantiated table s : FuncSet.t =
  List.fold_left
    (fun acc d -> FuncSet.add (Func_id.FDtor d) acc)
    FuncSet.empty
    (candidate_classes ~algorithm ~instantiated table s)

(* -- extra roots (paper §3.3) ------------------------------------------------ *)

(* Methods of non-library classes that override a virtual method declared
   in a library class: roots, because library code may call them. *)
let library_override_roots table ~library_classes : FuncSet.t =
  if StringSet.is_empty library_classes then FuncSet.empty
  else
    List.fold_left
      (fun acc (c : Class_table.cls) ->
        if StringSet.mem c.c_name library_classes then acc
        else
          List.fold_left
            (fun acc (m : Class_table.method_info) ->
              if m.m_kind <> Ast.MethNormal || not m.m_virtual then acc
              else
                let overrides_library =
                  List.exists
                    (fun base ->
                      StringSet.mem base library_classes
                      &&
                      match
                        Member_lookup.lookup_method table ~start:base ~name:m.m_name
                      with
                      | Member_lookup.Found (_, bm) -> bm.m_virtual
                      | _ -> false)
                    (Class_table.all_base_names table c.c_name)
                in
                if overrides_library then
                  FuncSet.add (Func_id.FMethod (c.c_name, m.m_name)) acc
                else acc)
            acc c.c_methods)
      FuncSet.empty
      (Class_table.all_classes table)

(* -- fixpoint ----------------------------------------------------------------- *)

(* telemetry instruments (no-ops unless collection is enabled) *)
let iterations_counter = Telemetry.Counter.make "callgraph.fixpoint_iterations"
let nodes_gauge = Telemetry.Gauge.make "callgraph.reachable_functions"
let edges_gauge = Telemetry.Gauge.make "callgraph.edges"
let pta_resolved_counter = Telemetry.Counter.make "callgraph.pta_resolved_sites"
let pta_fallback_counter = Telemetry.Counter.make "callgraph.pta_fallback_sites"

let build ?(algorithm = Rta) ?(library_classes = StringSet.empty)
    ?(extra_roots = []) (p : program) : t =
  Telemetry.Span.with_ "callgraph" @@ fun () ->
  let table = p.table in
  (* Sites resolve with this algorithm when points-to information is
     absent or inconclusive: PTA degrades to RTA, never worse. *)
  let fallback = match algorithm with Pta | Pta1 -> Rta | a -> a in
  (* memoize per-function events *)
  let events_cache : (Func_id.t, event list) Hashtbl.t = Hashtbl.create 64 in
  let events_of id =
    match Hashtbl.find_opt events_cache id with
    | Some ev -> ev
    | None ->
        let ev =
          match find_func p id with
          | Some fn -> func_events table fn
          | None -> []  (* unknown externals: no events *)
        in
        Hashtbl.add events_cache id ev;
        ev
  in
  (* events of global initializers feed the root set *)
  let global_events =
    List.fold_left
      (fun acc g ->
        match g.g_init with
        | Some e -> fold_expr (expr_events table) acc e
        | None -> acc)
      [] p.globals
  in
  let base_roots =
    FuncSet.union
      (FuncSet.of_list (main_id :: extra_roots))
      (library_override_roots table ~library_classes)
  in
  (* The points-to solution is computed once, over the same root set the
     replay below uses; its per-expression sets then resolve the
     dispatch events. [Pta1] additionally computes the 1-CFA refinement
     and intersects both answers per site: each is an over-approximation
     on its own, so the intersection is sound and the refined tier can
     never resolve to {e more} targets than plain PTA — the subset chain
     dead(PTA) ⊆ dead(PTA1) holds by construction. *)
  let roots = FuncSet.elements base_roots in
  let pta =
    match algorithm with
    | Pta | Pta1 -> Some (Pta.analyze ~roots p)
    | Cha | Rta -> None
  in
  let pta_refined =
    match algorithm with
    | Pta1 -> Some (Pta.analyze ~mode:Pta.OneCfa ~roots p)
    | Cha | Rta | Pta -> None
  in
  let pta_stats =
    match (pta_refined, pta) with
    | Some sol, _ | None, Some sol -> Some (Pta.stats sol)
    | None, None -> None
  in
  (* Per-site receiver classes / function targets, both tiers combined. *)
  let combined query e =
    match pta with
    | None -> None
    | Some plain -> (
        let base = query plain e in
        match pta_refined with
        | None -> base
        | Some refined -> (
            match (query refined e, base) with
            | Some a, Some b -> Some (List.filter (fun c -> List.mem c b) a)
            | Some a, None -> Some a
            | None, b -> b))
  in
  (* The solutions are final, but the fixpoint below replays every
     dispatch event once per iteration: answer each receiver expression
     once. The tables are local to this build, which may run on a serve
     worker domain. *)
  let per_site f =
    let tbl = Pta.ExprTbl.create 64 in
    fun e ->
      match Pta.ExprTbl.find_opt tbl e with
      | Some v -> v
      | None ->
          let v = f e in
          Pta.ExprTbl.add tbl e v;
          v
  in
  let recv_classes = per_site (combined Pta.receiver_classes) in
  let funptr_of = per_site (combined Pta.funptr_targets) in
  (* Allocation-site provenance for a resolved receiver: the refined
     solution's answer when it has one (fewer, sharper sites). *)
  let alloc_sites =
    per_site (fun e ->
        let q sol = Pta.receiver_alloc_sites sol e in
        match (Option.map q pta_refined, Option.map q pta) with
        | Some (Some s), _ | (None | Some None), Some (Some s) -> s
        | _ -> [])
  in
  (* Iterate reachability to a fixpoint over (instantiated, address_taken):
     both sets only grow, and each enlargement can only add reachable
     functions, so the loop terminates. *)
  let instantiated = ref StringSet.empty in
  let address_taken = ref FuncSet.empty in
  (* Dispatch resolution: under PTA, intersect the receiver's points-to
     classes with the RTA candidate cone — never more targets than RTA,
     and conservative fallback whenever the set is unknown. *)
  let resolve_virtual_event cls name recv : FuncSet.t =
    let fb () =
      resolve_virtual ~algorithm:fallback ~instantiated:!instantiated table cls
        name
    in
    if pta = None then fb ()
    else
      match recv_classes recv with
      | Some cs ->
          Telemetry.Counter.incr pta_resolved_counter;
          resolve_virtual_among table
            ~candidates:
              (List.filter
                 (fun c -> List.mem c cs)
                 (candidate_classes ~algorithm:Rta ~instantiated:!instantiated
                    table cls))
            name
      | None ->
          Telemetry.Counter.incr pta_fallback_counter;
          fb ()
  in
  let resolve_vdelete_event cls e : FuncSet.t =
    let fb () =
      resolve_virtual_delete ~algorithm:fallback ~instantiated:!instantiated
        table cls
    in
    if pta = None then fb ()
    else
      match recv_classes e with
      | Some cs ->
          Telemetry.Counter.incr pta_resolved_counter;
          List.fold_left
            (fun acc c ->
              if List.mem c cs then FuncSet.add (Func_id.FDtor c) acc else acc)
            FuncSet.empty
            (candidate_classes ~algorithm:Rta ~instantiated:!instantiated table
               cls)
      | None ->
          Telemetry.Counter.incr pta_fallback_counter;
          fb ()
  in
  let funptr_candidates fe : FuncSet.t =
    if pta = None then !address_taken
    else
      match funptr_of fe with
      | Some fs ->
          Telemetry.Counter.incr pta_resolved_counter;
          FuncSet.filter
            (fun id -> FuncSet.mem id !address_taken)
            (FuncSet.of_list fs)
      | None ->
          Telemetry.Counter.incr pta_fallback_counter;
          !address_taken
  in
  let final_nodes = ref FuncSet.empty in
  let final_edges = ref FuncMap.empty in
  let final_roots = ref base_roots in
  let final_sites = ref EdgeMap.empty in
  let stable = ref false in
  while not !stable do
    Telemetry.Counter.incr iterations_counter;
    let inst0 = !instantiated and addr0 = !address_taken in
    let nodes = ref FuncSet.empty in
    let edges = ref FuncMap.empty in
    (* every call site that produces an edge contributes its receiver's
       sites; the per-site answers are shared, so [memq] drops repeats *)
    let sites = ref EdgeMap.empty in
    let record_sites src dst e =
      if pta <> None then
        match alloc_sites e with
        | [] -> ()
        | ss ->
            sites :=
              EdgeMap.update (src, dst)
                (function
                  | Some prior when List.memq ss prior -> Some prior
                  | Some prior -> Some (ss :: prior)
                  | None -> Some [ ss ])
                !sites
    in
    let add_edge src dst =
      edges :=
        FuncMap.update src
          (function
            | Some s -> Some (FuncSet.add dst s)
            | None -> Some (FuncSet.singleton dst))
          !edges
    in
    let queue = Queue.create () in
    let enqueue id =
      if not (FuncSet.mem id !nodes) then begin
        nodes := FuncSet.add id !nodes;
        Queue.add id queue
      end
    in
    let roots =
      FuncSet.union base_roots
        (FuncSet.filter (fun id -> find_func p id <> None) !address_taken)
    in
    FuncSet.iter enqueue roots;
    (* pseudo-edges from global initializers hang off main *)
    let process_events src events =
      List.iter
        (fun ev ->
          match ev with
          | EStatic id ->
              add_edge src id;
              enqueue id
          | EVirtual (cls, name, recv) ->
              FuncSet.iter
                (fun id ->
                  add_edge src id;
                  record_sites src id recv;
                  enqueue id)
                (resolve_virtual_event cls name recv)
          | EVirtualDelete (cls, e) ->
              FuncSet.iter
                (fun id ->
                  add_edge src id;
                  record_sites src id e;
                  enqueue id)
                (resolve_vdelete_event cls e)
          | EStaticDelete cls ->
              add_edge src (Func_id.FDtor cls);
              enqueue (Func_id.FDtor cls)
          | EFunPtrCall (arity, fe) ->
              FuncSet.iter
                (fun id ->
                  let matches =
                    match find_func p id with
                    | Some fn -> List.length fn.tf_params = arity
                    | None -> true
                  in
                  if matches then begin
                    add_edge src id;
                    enqueue id
                  end)
                (funptr_candidates fe)
          | EAddrTaken id -> address_taken := FuncSet.add id !address_taken
          | EInstantiate (cls, ctor) ->
              instantiated := StringSet.add cls !instantiated;
              add_edge src ctor;
              enqueue ctor
          | EStackDestroy cls ->
              add_edge src (Func_id.FDtor cls);
              enqueue (Func_id.FDtor cls))
        events
    in
    process_events main_id global_events;
    let rec drain () =
      match Queue.take_opt queue with
      | None -> ()
      | Some id ->
          (* constructing a class makes it a potential dynamic type while
             its constructor runs (C++ dispatch-during-construction) *)
          (match id with
          | Func_id.FCtor (cls, _) ->
              instantiated := StringSet.add cls !instantiated
          | _ -> ());
          process_events id (events_of id);
          drain ()
    in
    drain ();
    final_nodes := !nodes;
    final_edges := !edges;
    final_roots := roots;
    final_sites := !sites;
    stable :=
      StringSet.equal inst0 !instantiated && FuncSet.equal addr0 !address_taken
  done;
  let t =
    {
      algorithm;
      nodes = !final_nodes;
      edges = !final_edges;
      roots = !final_roots;
      instantiated = !instantiated;
      address_taken = !address_taken;
      edge_sites = !final_sites;
      pta_stats;
    }
  in
  Telemetry.Gauge.set nodes_gauge (num_nodes t);
  Telemetry.Gauge.set edges_gauge (num_edges t);
  t

(* -- provenance queries -------------------------------------------------------- *)

(* Shortest call chain [from; ...; target] following call edges, or None
   when [target] is not reachable from [from]. Breadth-first, so the
   chain printed by `deadmem explain` is a minimal witness. *)
let path t ~from target : Func_id.t list option =
  if Func_id.equal from target then Some [ from ]
  else begin
    let parent : Func_id.t FuncMap.t ref = ref FuncMap.empty in
    let queue = Queue.create () in
    Queue.add from queue;
    let seen = ref (FuncSet.singleton from) in
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let cur = Queue.take queue in
      FuncSet.iter
        (fun next ->
          if not (FuncSet.mem next !seen) then begin
            seen := FuncSet.add next !seen;
            parent := FuncMap.add next cur !parent;
            if Func_id.equal next target then found := true
            else Queue.add next queue
          end)
        (callees t cur)
    done;
    if not !found then None
    else begin
      let rec unwind acc id =
        match FuncMap.find_opt id !parent with
        | None -> id :: acc
        | Some p -> unwind (id :: acc) p
      in
      Some (unwind [] target)
    end
  end

(* A witness chain from a root: prefer main, then any other root (an
   address-taken function, a library-override method, ...). *)
let path_from_root t target : Func_id.t list option =
  let roots =
    main_id
    :: (FuncSet.elements t.roots
       |> List.filter (fun r -> not (Func_id.equal r main_id)))
  in
  List.find_map (fun r -> path t ~from:r target) roots

(* -- output ------------------------------------------------------------------- *)

let pp ppf t =
  Fmt.pf ppf "call graph (%s): %d nodes, %d edges@\n"
    (algorithm_to_string t.algorithm)
    (num_nodes t) (num_edges t);
  FuncMap.iter
    (fun src dsts ->
      FuncSet.iter
        (fun dst -> Fmt.pf ppf "  %a -> %a@\n" Func_id.pp src Func_id.pp dst)
        dsts)
    t.edges

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph callgraph {\n";
  FuncSet.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\";\n" (Func_id.to_string n)))
    t.nodes;
  FuncMap.iter
    (fun src dsts ->
      FuncSet.iter
        (fun dst ->
          Buffer.add_string buf
            (Printf.sprintf "  \"%s\" -> \"%s\";\n" (Func_id.to_string src)
               (Func_id.to_string dst)))
        dsts)
    t.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
