(* The dead-data-member detection algorithm of Sweeney & Tip (PLDI'98),
   Figure 2: [DetectUnusedDataMembers], [ProcessStatement] and
   [MarkAllContainedMembers].

   A data member [C::m] is marked LIVE when, in a function reachable from
   [main] in the call graph:
   - its value is read ([e.m], [e->m], [e.X::m], including reads of
     intermediate members in access chains like [b.mb2.nm1]);
   - its address is taken ([&e.m]) — except when the member is the
     direct operand of [delete] or argument of [free] (those system
     functions cannot affect observable behaviour);
   - it is named by a pointer-to-member expression ([&Z::m]);
   - a [volatile] member is written;
   - an unsafe cast, a conservative [sizeof], or a live union member
     forces [MarkAllContainedMembers].

   Writes do not mark members live: storing into a member cannot by itself
   affect observable behaviour. Everything else is dead. *)

open Frontend
open Sema
open Sema.Typed_ast
module StringSet = Set.Make (String)

(* -- liveness provenance -------------------------------------------------------

   Each paper rule that can mark a member live is a [rule]; the first
   marking of a member records a [reason] — which rule fired, at which
   source location, inside which reachable function, and (for the
   MarkAllContainedMembers sweeps) through which root class. Later marks
   of an already-live member never overwrite the stored reason, so the
   derivation reported by `deadmem explain` is the analysis's actual
   first derivation of the fact. *)

type rule =
  | RRead
  | RAddressTaken
  | RPointerToMember
  | RVolatileWrite
  | RUnsafeCast
  | RSizeof
  | RUnion
  | RUnknownRegion

let rule_name = function
  | RRead -> "read"
  | RAddressTaken -> "address-taken"
  | RPointerToMember -> "pointer-to-member"
  | RVolatileWrite -> "volatile-write"
  | RUnsafeCast -> "unsafe-cast"
  | RSizeof -> "sizeof"
  | RUnion -> "union"
  | RUnknownRegion -> "unknown-region"

let rule_description = function
  | RRead -> "the member's value is read"
  | RAddressTaken -> "the member's address is taken"
  | RPointerToMember -> "the member is named by a pointer-to-member expression"
  | RVolatileWrite -> "the member is volatile and written"
  | RUnsafeCast -> "an unsafe cast forces MarkAllContainedMembers"
  | RSizeof -> "a conservative sizeof forces MarkAllContainedMembers"
  | RUnion -> "a live sibling in a union shares its storage"
  | RUnknownRegion ->
      "an unparsed/ill-typed region mentions the member's class \
       (conservative keep-going degradation)"

type reason = {
  pv_rule : rule;
  pv_loc : Source.span option;  (* the marking statement/expression *)
  pv_func : Func_id.t option;  (* enclosing reachable function *)
  pv_via : string option;  (* MarkAllContainedMembers root class *)
}

type result = {
  config : Config.t;
  callgraph : Callgraph.t;
  live : Member.Set.t;
  (* every instance data member of a non-library class, with its field
     record, in declaration order *)
  members : (Member.t * Class_table.field) list;
  (* regions that failed to parse/check under keep-going recovery and
     were folded into the result conservatively; empty in strict mode *)
  unknown : Source.unknown_region list;
  (* why each live member is live: its first derivation *)
  provenance : reason Member.Map.t;
}

(* telemetry instruments (no-ops unless collection is enabled) *)
let analyze_span_name = "liveness"

let counter_of_rule =
  let c r = Telemetry.Counter.make ("liveness.marks." ^ rule_name r) in
  let read = c RRead
  and addr = c RAddressTaken
  and memptr = c RPointerToMember
  and vol = c RVolatileWrite
  and cast = c RUnsafeCast
  and sizeof = c RSizeof
  and union = c RUnion
  and unk = c RUnknownRegion in
  function
  | RRead -> read
  | RAddressTaken -> addr
  | RPointerToMember -> memptr
  | RVolatileWrite -> vol
  | RUnsafeCast -> cast
  | RSizeof -> sizeof
  | RUnion -> union
  | RUnknownRegion -> unk

let union_passes_counter = Telemetry.Counter.make "liveness.union_passes"
let live_gauge = Telemetry.Gauge.make "liveness.live_members"
let dead_gauge = Telemetry.Gauge.make "liveness.dead_members"

(* -- marking ----------------------------------------------------------------- *)

type state = {
  table : Class_table.t;
  cfg : Config.t;
  mutable live_set : Member.Set.t;
  mutable provenance : reason Member.Map.t;
  mutable cur_fn : Func_id.t option;  (* function being processed *)
  visited : (string, unit) Hashtbl.t;  (* MarkAllContainedMembers classes *)
}

let mark st (why : reason) (m : Member.t) =
  if not (Member.Set.mem m st.live_set) then begin
    st.live_set <- Member.Set.add m st.live_set;
    st.provenance <- Member.Map.add m why st.provenance;
    Telemetry.Counter.incr (counter_of_rule why.pv_rule)
  end

(* The reason for a direct marking at expression/statement location
   [loc], inside the function currently being processed. *)
let because st rule ?via loc =
  { pv_rule = rule; pv_loc = loc; pv_func = st.cur_fn; pv_via = via }

(* [MarkAllContainedMembers] (Fig. 2, lines 36-50): mark every member
   directly or indirectly contained in class [cls] — its own members,
   members of class-typed members, and members of base classes. The
   recorded reason keeps the *root* class of the sweep in [pv_via], so
   explain can say "swept via MarkAllContainedMembers(Root)". *)
let rec mark_all_contained st (why : reason) cls =
  if not (Hashtbl.mem st.visited cls) then begin
    Hashtbl.add st.visited cls ();
    match Class_table.find st.table cls with
    | None -> ()
    | Some c ->
        List.iter
          (fun (f : Class_table.field) ->
            if not f.f_static then begin
              mark st why (f.f_class, f.f_name);
              match f.f_type with
              | Ast.TNamed n | Ast.TArr (Ast.TNamed n, _) ->
                  mark_all_contained st why n
              | _ -> ()
            end)
          c.c_fields;
        List.iter
          (fun (b : Ast.base_spec) -> mark_all_contained st why b.b_name)
          c.c_bases
  end

let mark_type_contents st rule loc (ty : Ast.type_expr) =
  match Ast.named_root ty with
  | Some cls -> mark_all_contained st (because st rule ~via:cls loc) cls
  | None -> ()

(* -- expression traversal -----------------------------------------------------

   [Read] — the value of the expression is used;
   [Lvalue] — only the expression's location is needed (write target or
   base of a [.]-chain whose outer member is only written). *)

type mode = Read | Lvalue

let handle_cast st loc safety =
  match safety with
  | CastSafe -> ()
  | CastUnsafeDowncast src ->
      if not st.cfg.Config.assume_downcasts_safe then
        mark_all_contained st (because st RUnsafeCast ~via:src loc) src
  | CastUnsafeOther (Some src) ->
      mark_all_contained st (because st RUnsafeCast ~via:src loc) src
  | CastUnsafeOther None -> ()

let handle_sizeof st loc (ty : Ast.type_expr) =
  match st.cfg.Config.sizeof_policy with
  | Config.Sizeof_ignore -> ()
  | Config.Sizeof_conservative -> mark_type_contents st RSizeof loc ty

let rec walk st mode (e : texpr) =
  match e.te with
  | TInt _ | TBool _ | TChar _ | TFloat _ | TStr _ | TNull | TLocal _
  | TGlobalVar _ | TEnumConst _ | TThis _ | TFunAddr _ | TStaticField _ ->
      ()
  | TMemPtr (cls, name) ->
      (* pointer-to-member expression &Z::m (Fig. 2 lines 26-28): the
         member may be accessed through the pointer somewhere *)
      mark st (because st RPointerToMember (Some e.tloc)) (cls, name)
  | TField fa ->
      (match mode with
      | Read ->
          mark st (because st RRead (Some e.tloc)) (fa.fa_def_class, fa.fa_field)
      | Lvalue -> ());
      (* the base of a [->] access is a pointer value that is read; the
         base of a [.] access inherits the enclosing mode: in [a.b.m = x]
         neither [m] nor [b] is read, while in [y = a.b.m] both are *)
      walk st (if fa.fa_arrow then Read else mode) fa.fa_obj
  | TUnary (_, a) -> walk st Read a
  | TBinary (_, a, b) ->
      walk st Read a;
      walk st Read b
  | TAssign (op, lhs, rhs) ->
      (match op with
      | Ast.Assign ->
          (* plain store: the target member is not read... *)
          (match lhs.te with
          | TField fa when fa.fa_volatile ->
              (* ...unless it is volatile: writes to volatile members are
                 observable (paper, footnote in §3) *)
              mark st
                (because st RVolatileWrite (Some lhs.tloc))
                (fa.fa_def_class, fa.fa_field)
          | _ -> ());
          walk st Lvalue lhs
      | _ ->
          (* compound assignment reads the old value *)
          walk st Read lhs);
      walk st Read rhs
  | TIncDec (_, _, a) -> walk st Read a (* ++/-- read the old value *)
  | TCond (c, t, f) ->
      walk st Read c;
      walk st mode t;
      walk st mode f
  | TCast (_, _, a, safety) ->
      handle_cast st (Some e.tloc) safety;
      walk st mode a
  | TAddrOf a -> (
      match a.te with
      | TField fa ->
          (* address-taken: conservatively live (Fig. 2 lines 19-22,
             the &e'.m case) *)
          mark st
            (because st RAddressTaken (Some e.tloc))
            (fa.fa_def_class, fa.fa_field);
          walk st (if fa.fa_arrow then Read else Lvalue) fa.fa_obj
      | _ -> walk st Lvalue a)
  | TDeref a -> walk st Read a (* the pointer value is read *)
  | TIndex (a, i) ->
      walk st Read a;
      walk st Read i
  | TMemPtrDeref (recv, pm, arrow) ->
      (* the member-pointer value is read; which member it designates was
         already marked at the &Z::m site *)
      walk st (if arrow then Read else mode) recv;
      walk st Read pm
  | TNewObj { args; _ } -> List.iter (walk st Read) args
  | TNewScalar _ -> ()
  | TNewArr (_, n) -> walk st Read n
  | TSizeofType ty -> handle_sizeof st (Some e.tloc) ty
  | TSizeofExpr a ->
      handle_sizeof st (Some e.tloc) a.ty
      (* the operand of sizeof is not evaluated: no reads *)
  | TCall c -> walk_call st c

and walk_call st (c : call) =
  match c with
  | CBuiltin (BFree, [ arg ]) ->
      (* free(e.m): the member whose value flows to free is not marked
         (footnote: free cannot affect observable behaviour); deeper
         subexpressions are still processed *)
      walk_delete_arg st arg
  | CBuiltin (_, args) | CFree (_, args) -> List.iter (walk st Read) args
  | CMethod mc ->
      walk st Read mc.mc_recv;
      List.iter (walk st Read) mc.mc_args
  | CFunPtr (fn, args) ->
      walk st Read fn;
      List.iter (walk st Read) args

(* The argument of [delete]/[free]: the *top-level* member access (through
   safe casts) is exempt from marking; everything below it is processed
   normally. *)
and walk_delete_arg st (e : texpr) =
  match e.te with
  | TField fa -> walk st (if fa.fa_arrow then Read else Lvalue) fa.fa_obj
  | TCast (_, _, inner, safety) ->
      handle_cast st (Some e.tloc) safety;
      walk_delete_arg st inner
  | _ -> walk st Read e

let rec walk_stmt st (s : tstmt) =
  match s.ts with
  | TSExpr e -> walk st Read e
  | TSDecl ds ->
      List.iter
        (fun d ->
          match d.tv_init with
          | TInitNone -> ()
          | TInitExpr e -> walk st Read e
          | TInitCtor (_, args) -> List.iter (walk st Read) args)
        ds
  | TSBlock body -> List.iter (walk_stmt st) body
  | TSIf (c, t, e) ->
      walk st Read c;
      walk_stmt st t;
      Option.iter (walk_stmt st) e
  | TSWhile (c, b) ->
      walk st Read c;
      walk_stmt st b
  | TSDoWhile (b, c) ->
      walk_stmt st b;
      walk st Read c
  | TSFor (init, cond, step, b) ->
      Option.iter (walk_stmt st) init;
      Option.iter (walk st Read) cond;
      Option.iter (walk st Read) step;
      walk_stmt st b
  | TSReturn (Some e) -> walk st Read e
  | TSReturn None | TSBreak | TSContinue | TSEmpty -> ()
  | TSDelete (_, e) -> walk_delete_arg st e

let walk_func st (fn : tfunc) =
  st.cur_fn <- Some fn.tf_id;
  (* constructor initializers: base-initializer arguments and member-
     initializer arguments are reads; the *initialized member itself* is a
     write target and is NOT marked — this is the paper's key observation
     that constructor initialization alone must not make members live *)
  List.iter (fun bi -> List.iter (walk st Read) bi.bi_args) fn.tf_base_inits;
  List.iter (fun fi -> List.iter (walk st Read) fi.fi_args) fn.tf_field_inits;
  Option.iter (walk_stmt st) fn.tf_body;
  st.cur_fn <- None

(* -- the algorithm (Fig. 2, DetectUnusedDataMembers) -------------------------- *)

(* Conservative degradation for keep-going mode: a region of input that
   failed to parse or type-check is treated exactly like the paper treats
   an unsafe cast. Every name the region mentions is matched against the
   program; referenced classes get [MarkAllContainedMembers], and every
   function or method the region could possibly have called becomes an
   extra call-graph root, so nothing reachable only from broken code is
   reported dead. *)
let unknown_region_roots (p : program) (regions : Source.unknown_region list) :
    Func_id.t list =
  let referenced name =
    List.exists
      (fun (r : Source.unknown_region) -> List.mem name r.Source.ur_refs)
      regions
  in
  if regions = [] then []
  else
    FuncMap.fold
      (fun id _ acc ->
        let root =
          match id with
          | Func_id.FFree name -> referenced name
          | Func_id.FMethod (cls, m) -> referenced cls || referenced m
          | Func_id.FCtor (cls, _) | Func_id.FDtor cls -> referenced cls
        in
        if root then id :: acc else acc)
      p.funcs []

let analyze ?(config = Config.default) ?(unknown = []) (p : program) : result =
  Telemetry.Span.with_ analyze_span_name @@ fun () ->
  (* line 5: construct the call graph *)
  let extra_roots =
    config.Config.extra_roots @ unknown_region_roots p unknown
  in
  let cg =
    Callgraph.build ~algorithm:config.Config.call_graph
      ~library_classes:config.Config.library_classes
      ~extra_roots p
  in
  let st =
    {
      table = p.table;
      cfg = config;
      live_set = Member.Set.empty;  (* line 3: all members start dead *)
      provenance = Member.Map.empty;
      cur_fn = None;
      visited = Hashtbl.create 32;  (* line 4: all classes not visited *)
    }
  in
  (* keep-going degradation: every class an unknown region mentions gets
     the MarkAllContainedMembers treatment of an unsafe cast *)
  List.iter
    (fun (r : Source.unknown_region) ->
      List.iter
        (fun name ->
          if Class_table.mem p.table name then
            mark_all_contained st
              {
                pv_rule = RUnknownRegion;
                pv_loc = Some r.Source.ur_at;
                pv_func = None;
                pv_via = Some name;
              }
              name)
        r.Source.ur_refs)
    unknown;
  (* lines 6-8: process every statement of every reachable function *)
  FuncSet.iter
    (fun id ->
      match find_func p id with Some fn -> walk_func st fn | None -> ())
    cg.Callgraph.nodes;
  (* global initializers execute before main *)
  List.iter (fun g -> Option.iter (walk st Read) g.g_init) p.globals;
  (* lines 9-11: union post-pass — if any member of a union is live, all
     members (in)directly contained in the union are live, because a write
     to a "dead" union member would change the live one's value *)
  let union_pass () =
    Telemetry.Counter.incr union_passes_counter;
    let changed = ref false in
    List.iter
      (fun (c : Class_table.cls) ->
        if c.c_kind = Ast.Union then
          let any_live =
            List.exists
              (fun (f : Class_table.field) ->
                Member.Set.mem (f.f_class, f.f_name) st.live_set)
              (Class_table.instance_fields c)
          in
          let all_marked =
            List.for_all
              (fun (f : Class_table.field) ->
                Member.Set.mem (f.f_class, f.f_name) st.live_set)
              (Class_table.instance_fields c)
          in
          if any_live && not all_marked then begin
            (* the union itself counts as "not visited" even if seen via
               MarkAllContainedMembers of an enclosing class *)
            Hashtbl.remove st.visited c.c_name;
            mark_all_contained st
              {
                pv_rule = RUnion;
                pv_loc = Some c.c_loc;
                pv_func = None;
                pv_via = Some c.c_name;
              }
              c.c_name;
            changed := true
          end)
      (Class_table.all_classes p.table);
    !changed
  in
  (* marking a union's class-typed members can make members of *other*
     unions live; iterate to fixpoint *)
  while union_pass () do
    ()
  done;
  let members =
    List.concat_map
      (fun (c : Class_table.cls) ->
        if Config.StringSet.mem c.c_name config.Config.library_classes then []
        else
          List.map
            (fun (f : Class_table.field) -> ((f.f_class, f.f_name), f))
            (Class_table.instance_fields c))
      (Class_table.all_classes p.table)
  in
  let live_count =
    List.length
      (List.filter (fun (m, _) -> Member.Set.mem m st.live_set) members)
  in
  Telemetry.Gauge.set live_gauge live_count;
  Telemetry.Gauge.set dead_gauge (List.length members - live_count);
  {
    config;
    callgraph = cg;
    live = st.live_set;
    members;
    unknown;
    provenance = st.provenance;
  }

(* -- queries ------------------------------------------------------------------ *)

let is_live r (m : Member.t) = Member.Set.mem m r.live
let is_dead r (m : Member.t) = not (is_live r m)

let dead_members r =
  List.filter_map
    (fun (m, _) -> if is_dead r m then Some m else None)
    r.members

let live_members r =
  List.filter_map
    (fun (m, _) -> if is_live r m then Some m else None)
    r.members

let dead_set r = Member.Set.of_list (dead_members r)

let pp_result ppf r =
  List.iter
    (fun (m, _) ->
      Fmt.pf ppf "%-30s %s@\n" (Member.to_string m)
        (if is_live r m then "live" else "DEAD"))
    r.members

(* -- provenance -------------------------------------------------------------- *)

let provenance (r : result) (m : Member.t) = Member.Map.find_opt m r.provenance

let known_member r (m : Member.t) =
  List.exists (fun (m', _) -> Member.equal m m') r.members

let pp_call_path ppf (chain : Func_id.t list) =
  Fmt.pf ppf "%s"
    (String.concat " -> " (List.map Func_id.to_string chain))

(* Under a points-to call graph, dispatch edges carry the allocation
   sites of the receiver objects that produced them: name them, so the
   explanation says *which object* kept the path alive, not just that
   some rule fired. *)
let pp_path_dispatch_sites ppf cg (chain : Func_id.t list) =
  let rec edges = function
    | a :: (b :: _ as rest) -> (a, b) :: edges rest
    | _ -> []
  in
  List.iter
    (fun (src, dst) ->
      match Callgraph.dispatch_sites cg ~src dst with
      | [] -> ()
      | sites ->
          Fmt.pf ppf "    %a -> %a dispatches on object%s allocated at:@."
            Func_id.pp src Func_id.pp dst
            (if List.length sites > 1 then "s" else "");
          List.iter
            (fun (cls, sp) ->
              Fmt.pf ppf "      new %s at %a@." cls Source.pp_span sp)
            sites)
    (edges chain)

(* The full derivation chain of one member's classification, as printed
   by `deadmem explain`: verdict, rule, marking site, enclosing function
   and a shortest call chain that makes that function reachable. *)
let pp_explanation ppf r (m : Member.t) =
  let name = Member.to_string m in
  match provenance r m with
  | None ->
      if is_live r m then
        (* only possible for members of library classes etc. that are not
           tracked in [members]; live without a recorded derivation *)
        Fmt.pf ppf "%s: live (no derivation recorded)@." name
      else begin
        Fmt.pf ppf "%s: DEAD@." name;
        Fmt.pf ppf
          "  no liveness derivation exists: in code reachable from main the \
           member is@.\
          \  never read, never address-taken, never named by a \
           pointer-to-member@.\
          \  expression, never volatile-written, and not swept by any unsafe \
           cast,@.\
          \  conservative sizeof, live union, or unknown region.@.";
        Fmt.pf ppf
          "  removing it cannot affect observable behaviour (paper, §3).@.";
        Fmt.pf ppf "  reachable code computed with the %s call graph.@."
          (Callgraph.algorithm_to_string r.callgraph.Callgraph.algorithm)
      end
  | Some why ->
      Fmt.pf ppf "%s: LIVE@." name;
      Fmt.pf ppf "  rule: %s — %s@." (rule_name why.pv_rule)
        (rule_description why.pv_rule);
      (match why.pv_via with
      | Some root when why.pv_rule <> RRead ->
          Fmt.pf ppf "  via: MarkAllContainedMembers(%s)@." root
      | _ -> ());
      (match why.pv_loc with
      | Some at -> Fmt.pf ppf "  at: %a@." Source.pp_span at
      | None -> ());
      (match why.pv_func with
      | Some fn ->
          Fmt.pf ppf "  in: %a@." Func_id.pp fn;
          (match Callgraph.path_from_root r.callgraph fn with
          | Some chain ->
              Fmt.pf ppf "  call path: %a@." pp_call_path chain;
              pp_path_dispatch_sites ppf r.callgraph chain
          | None -> Fmt.pf ppf "  call path: (root)@.");
          Fmt.pf ppf "  reachability justified by: %s call graph@."
            (Callgraph.algorithm_to_string r.callgraph.Callgraph.algorithm)
      | None -> (
          match why.pv_rule with
          | RUnion -> Fmt.pf ppf "  in: (union post-pass)@."
          | RUnknownRegion -> Fmt.pf ppf "  in: (keep-going degradation)@."
          | _ -> Fmt.pf ppf "  in: (global initializer)@."))

let explain r (m : Member.t) : string = Fmt.str "%a" (fun ppf -> pp_explanation ppf r) m
