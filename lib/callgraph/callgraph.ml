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

type t = {
  algorithm : algorithm;
  nodes : FuncSet.t;  (* reachable functions *)
  edges : FuncSet.t FuncMap.t;
  roots : FuncSet.t;
  instantiated : StringSet.t;  (* classes whose ctor is reachable *)
  address_taken : FuncSet.t;
  edge_sites : (Func_id.t list * (string * Source.span) list) list FuncMap.t;
      (* caller -> its dispatch sites resolved from points-to sets, each
         as (its targets, its receiver's allocation sites); merged per
         edge by [dispatch_sites] *)
  pta_stats : Pta.stats option;  (* solver stats of the deciding solution *)
}

let reachable t id = FuncSet.mem id t.nodes

let dispatch_sites t ~src dst =
  let per_site =
    List.filter_map
      (fun (targets, ss) -> if List.mem dst targets then Some ss else None)
      (Option.value ~default:[] (FuncMap.find_opt src t.edge_sites))
  in
  match per_site with
  | [ ss ] -> ss
  | _ -> List.sort_uniq Stdlib.compare (List.concat per_site)

let callees t id = Option.value ~default:FuncSet.empty (FuncMap.find_opt id t.edges)
let num_nodes t = FuncSet.cardinal t.nodes

let num_edges t =
  FuncMap.fold (fun _ s acc -> acc + FuncSet.cardinal s) t.edges 0

(* -- per-function events ---------------------------------------------------- *)

(* Constructing an object is a static call of its constructor: reaching
   [FCtor (c, _)] is what makes [c] instantiated. Destroying one of
   static class [c] is a static call of [FDtor c]. *)
type event =
  | EStatic of Func_id.t
  | EVirtual of string * string * texpr  (* static class, method, receiver *)
  | EVirtualDelete of string * texpr     (* static pointee class, pointer *)
  | EFunPtrCall of int * texpr           (* arity, pointer expression *)
  | EAddrTaken of Func_id.t

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

let expr_events emit () (e : texpr) =
  match e.te with
  | TCall (CFree (name, _)) -> emit (EStatic (Func_id.FFree name))
  | TCall (CMethod mc) -> (
      match (mc.mc_dispatch, receiver_class mc) with
      | DVirtual, Some cls -> emit (EVirtual (cls, mc.mc_name, mc.mc_recv))
      | _ -> emit (EStatic (Func_id.FMethod (mc.mc_class, mc.mc_name))))
  | TCall (CFunPtr ({ te = TFunAddr id; _ }, _)) -> emit (EStatic id)
  | TCall (CFunPtr (fn, args)) -> emit (EFunPtrCall (List.length args, fn))
  | TFunAddr id -> emit (EAddrTaken id)
  | TNewObj { ctor; _ } -> emit (EStatic ctor)
  | TNewArr (Ast.TNamed cls, _) -> emit (EStatic (Func_id.FCtor (cls, 0)))
  | _ -> ()

(* A stack object is constructed, then destroyed at scope exit. *)
let rec decl_events emit = function
  | [] -> ()
  | d :: ds ->
      (match (d.tv_init, d.tv_type) with
      | TInitCtor (ctor, _), Ast.TNamed cls ->
          emit (EStatic ctor);
          emit (EStatic (Func_id.FDtor cls))
      (* stack arrays of class objects *)
      | (TInitNone | TInitExpr _), Ast.TArr (Ast.TNamed cls, _) ->
          emit (EStatic (Func_id.FCtor (cls, 0)));
          emit (EStatic (Func_id.FDtor cls))
      | _ -> ());
      decl_events emit ds

let stmt_events table emit () (s : tstmt) =
  match s.ts with
  | TSDecl ds -> decl_events emit ds
  | TSDelete (_, e) -> (
      match Ctype.pointee e.ty with
      | Some (Ast.TNamed cls) ->
          if dtor_is_virtual table cls then emit (EVirtualDelete (cls, e))
          else emit (EStatic (Func_id.FDtor cls))
      | _ -> ())
  | _ -> ()

(* Structural obligations of constructors and destructors: base-class
   subobject construction, member subobject construction/destruction. *)
let structural_events table emit (fn : tfunc) =
  let static id = emit (EStatic id) in
  match fn.tf_id with
  | Func_id.FCtor (cls, _) ->
      let c = Class_table.find_exn table cls in
      List.iter
        (fun bi -> static (Func_id.FCtor (bi.bi_class, List.length bi.bi_args)))
        fn.tf_base_inits;
      List.iter
        (fun (f : Class_table.field) ->
          if not f.f_static then
            match f.f_type with
            | Ast.TNamed fcls ->
                let nargs =
                  match
                    List.find_opt (fun fi -> fi.fi_field = f.f_name) fn.tf_field_inits
                  with
                  | Some fi -> List.length fi.fi_args
                  | None -> 0
                in
                static (Func_id.FCtor (fcls, nargs))
            | Ast.TArr (Ast.TNamed fcls, _) -> static (Func_id.FCtor (fcls, 0))
            | _ -> ())
        c.c_fields
  | Func_id.FDtor cls ->
      let c = Class_table.find_exn table cls in
      List.iter (fun (b : Ast.base_spec) -> static (Func_id.FDtor b.b_name)) c.c_bases;
      List.iter
        (fun vb ->
          if not (List.exists (fun (b : Ast.base_spec) -> b.b_name = vb) c.c_bases)
          then static (Func_id.FDtor vb))
        (Class_table.virtual_base_names table cls);
      List.iter
        (fun (f : Class_table.field) ->
          if not f.f_static then
            match f.f_type with
            | Ast.TNamed fcls | Ast.TArr (Ast.TNamed fcls, _) ->
                static (Func_id.FDtor fcls)
            | _ -> ())
        c.c_fields
  | Func_id.FFree _ | Func_id.FMethod _ -> ()

let func_events table emit (fn : tfunc) =
  structural_events table emit fn;
  fold_func_exprs (expr_events emit) () fn;
  Option.iter (fold_stmts (stmt_events table emit) ()) fn.tf_body

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

(* -- one pass ----------------------------------------------------------------- *)

(* A reachable function and its callees so far. *)
type caller = { c_id : Func_id.t; mutable c_out : FuncSet.t }

(* One caller's virtual-call or virtual-delete sites that share their
   dispatch (the method name, or [None] for a virtual delete), static
   class and receiver answer ([v_keep]; [None]: every class). They
   reach the same targets, so the group is offered each class of its
   static class's cone once, once that class is instantiated, and its
   members share one target list, kept for provenance (so only under
   PTA). *)
type vgroup = {
  v_src : caller;
  v_target : string -> Func_id.t option;  (* dynamic class -> callee *)
  v_keep : string list option;
  mutable v_targets : Func_id.t list;
}

(* A function-pointer call site, offered each address-taken function. *)
type fsite = { f_src : caller; f_arity : int; f_keep : Func_id.t list option }

(* telemetry instruments (no-ops unless collection is enabled) *)
let nodes_gauge = Telemetry.Gauge.make "callgraph.reachable_functions"
let edges_gauge = Telemetry.Gauge.make "callgraph.edges"
let pta_resolved_counter = Telemetry.Counter.make "callgraph.pta_resolved_sites"
let pta_fallback_counter = Telemetry.Counter.make "callgraph.pta_fallback_sites"

let build ?(algorithm = Rta) ?(library_classes = StringSet.empty)
    ?(extra_roots = []) (p : program) : t =
  Telemetry.Span.with_ "callgraph" @@ fun () ->
  let table = p.table in
  let base_roots =
    FuncSet.union
      (FuncSet.of_list (main_id :: extra_roots))
      (library_override_roots table ~library_classes)
  in
  (* The points-to solution is computed once, over the same root set the
     pass below starts from; its per-expression sets then decide the
     dispatch sites. [Pta1] additionally computes the 1-CFA refinement
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
  (* A site's receiver classes / function targets, both tiers combined;
     [None] (unknown, or not a PTA tier) falls back to RTA, never worse.
     Each site asks once and is counted once. *)
  let answer query e =
    match pta with
    | None -> None
    | Some plain ->
        let base = query plain e in
        let a =
          match pta_refined with
          | None -> base
          | Some refined -> (
              match (query refined e, base) with
              | Some a, Some b -> Some (List.filter (fun c -> List.mem c b) a)
              | Some a, None -> Some a
              | None, b -> b)
        in
        Telemetry.Counter.incr
          (if Option.is_none a then pta_fallback_counter else pta_resolved_counter);
        a
  in
  (* Allocation-site provenance for a resolved receiver: the refined
     solution's answer when it has one (fewer, sharper sites). *)
  let alloc_sites e =
    let q sol = Pta.receiver_alloc_sites sol e in
    match (Option.map q pta_refined, Option.map q pta) with
    | Some (Some s), _ | (None | Some None), Some (Some s) -> s
    | _ -> []
  in
  (* The dispatch table: method -> dynamic class -> override, filled on
     demand. Local to this build, which may run on a serve worker. *)
  let overrides = Hashtbl.create 16 in
  let dispatch name =
    let tbl =
      match Hashtbl.find overrides name with
      | tbl -> tbl
      | exception Not_found ->
          let tbl = Hashtbl.create 16 in
          Hashtbl.add overrides name tbl;
          tbl
    in
    fun d ->
      match Hashtbl.find tbl d with
      | r -> r
      | exception Not_found ->
          let r =
            Option.map
              (fun (def, _) -> Func_id.FMethod (def, name))
              (Member_lookup.dispatch table ~dyn:d ~name)
          in
          Hashtbl.add tbl d r;
          r
  in
  (* Reachability, one pass: each reachable function's events are
     processed once. The instantiated and address-taken sets only grow,
     and each growth is offered to the sites already waiting on it, so
     the result is the least fixpoint over both sets. *)
  let nodes = ref FuncSet.empty and callers = ref [] in
  let final_roots = ref base_roots in
  let instantiated = ref StringSet.empty in
  let address_taken = ref FuncSet.empty in
  let queue = Queue.create () in
  let enqueue id =
    if not (FuncSet.mem id !nodes) then begin
      nodes := FuncSet.add id !nodes;
      Queue.add id queue
    end
  in
  (* the site groups of the caller whose events are being handled: a
     caller's events are handled together, before the next caller's *)
  let groups = Hashtbl.create 16 in
  let caller id =
    if Hashtbl.length groups > 0 then Hashtbl.reset groups;
    let c = { c_id = id; c_out = FuncSet.empty } in
    callers := c :: !callers;
    c
  in
  let call c dst =
    if not (FuncSet.mem dst c.c_out) then begin
      c.c_out <- FuncSet.add dst c.c_out;
      enqueue dst
    end
  in
  (* under PTA each virtual site keeps its receiver and its group, for
     provenance *)
  let vsites = ref [] and fsites = ref [] in
  let provenance = Option.is_some pta in
  (* groups waiting for a class of their cone to be instantiated *)
  let waiting : (string, vgroup list) Hashtbl.t = Hashtbl.create 64 in
  let offer g d =
    match g.v_target d with
    | Some id ->
        if provenance && not (List.mem id g.v_targets) then
          g.v_targets <- id :: g.v_targets;
        call g.v_src id
    | None -> ()
  in
  (* Each site asks for its receiver's answer; only a new group walks
     the cone. CHA counts every cone class as instantiated. *)
  let register src recv name cls =
    let keep = answer Pta.receiver_classes recv in
    let key = (name, cls, keep) in
    let g =
      match Hashtbl.find groups key with
      | g -> g
      | exception Not_found ->
          let target =
            match name with
            | Some name -> dispatch name
            | None -> fun d -> Some (Func_id.FDtor d)
          in
          let g = { v_src = src; v_target = target; v_keep = keep; v_targets = [] } in
          Hashtbl.add groups key g;
          List.iter
            (fun d ->
              match keep with
              | Some cs when not (List.mem d cs) -> ()
              | _ ->
                  if algorithm = Cha || StringSet.mem d !instantiated then offer g d
                  else
                    Hashtbl.replace waiting d
                      (g :: Option.value ~default:[] (Hashtbl.find_opt waiting d)))
            (cls :: Class_table.subclasses table cls);
          g
    in
    if provenance then vsites := (recv, g) :: !vsites
  in
  let offer_fn s id =
    let wanted = match s.f_keep with Some fs -> List.mem id fs | None -> true in
    let arity_ok =
      match find_func p id with
      | Some fn -> List.length fn.tf_params = s.f_arity
      | None -> true
    in
    if wanted && arity_ok then call s.f_src id
  in
  let handle src = function
    | EStatic id -> call src id
    | EVirtual (cls, name, recv) -> register src recv (Some name) cls
    | EVirtualDelete (cls, e) -> register src e None cls
    | EFunPtrCall (arity, fe) ->
        let s =
          { f_src = src; f_arity = arity; f_keep = answer Pta.funptr_targets fe }
        in
        fsites := s :: !fsites;
        FuncSet.iter (offer_fn s) !address_taken
    | EAddrTaken id when not (FuncSet.mem id !address_taken) ->
        address_taken := FuncSet.add id !address_taken;
        (* an address-taken function with a body is a root *)
        if find_func p id <> None then begin
          final_roots := FuncSet.add id !final_roots;
          enqueue id
        end;
        List.iter (fun s -> offer_fn s id) !fsites
    | EAddrTaken _ -> ()
  in
  (* constructing a class makes it a potential dynamic type while its
     constructor runs (C++ dispatch-during-construction) *)
  let instantiate cls =
    if not (StringSet.mem cls !instantiated) then begin
      instantiated := StringSet.add cls !instantiated;
      match Hashtbl.find_opt waiting cls with
      | Some gs ->
          Hashtbl.remove waiting cls;
          List.iter (fun g -> offer g cls) gs
      | None -> ()
    end
  in
  FuncSet.iter enqueue base_roots;
  (* pseudo-edges from global initializers hang off main *)
  let globals = handle (caller main_id) in
  List.iter (fun g -> Option.iter (fold_expr (expr_events globals) ()) g.g_init) p.globals;
  let rec drain () =
    match Queue.take_opt queue with
    | None -> ()
    | Some id ->
        (match id with Func_id.FCtor (cls, _) -> instantiate cls | _ -> ());
        (match find_func p id with
        | Some fn -> func_events table (handle (caller id)) fn
        | None -> ());
        drain ()
  in
  drain ();
  (* main is two callers: its global initializers and its body *)
  let edges =
    List.fold_left
      (fun acc c ->
        if FuncSet.is_empty c.c_out then acc
        else
          FuncMap.update c.c_id
            (fun prior -> Some (FuncSet.union c.c_out (Option.value ~default:FuncSet.empty prior)))
            acc)
      FuncMap.empty !callers
  in
  (* provenance, resolved once per site now that its targets are final *)
  let edge_sites =
    List.fold_left
      (fun acc (recv, g) ->
        if g.v_targets = [] then acc
        else
          match alloc_sites recv with
          | [] -> acc
          | ss ->
              FuncMap.update g.v_src.c_id
                (fun l -> Some ((g.v_targets, ss) :: Option.value ~default:[] l))
                acc)
      FuncMap.empty !vsites
  in
  let t =
    {
      algorithm;
      nodes = !nodes;
      edges;
      roots = !final_roots;
      instantiated = !instantiated;
      address_taken = !address_taken;
      edge_sites;
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
