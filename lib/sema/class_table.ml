(* The class table: the registry of all classes/structs/unions in a
   translation unit, with their bases, fields and methods.

   Out-of-line method definitions ([T::f(...) {...}]) are attached to the
   in-class declarations here. A method is considered virtual if it is
   declared [virtual] or if it overrides a virtual method of a base class
   (C++ implicit virtuality). *)

open Frontend

module StringMap = Map.Make (String)
module StringSet = Set.Make (String)

type field = {
  f_class : string;  (* defining class *)
  f_name : string;
  f_type : Ast.type_expr;
  f_volatile : bool;
  f_static : bool;
  f_access : Ast.access;
  f_loc : Ast.loc;
}

type method_info = {
  m_class : string;  (* defining class *)
  m_name : string;
  m_kind : Ast.method_kind;
  m_ret : Ast.type_expr;
  m_params : Ast.param list;
  m_virtual : bool;
  m_static : bool;
  m_pure : bool;
  m_inits : (string * Ast.expr list) list;
  m_body : Ast.stmt option;
  m_access : Ast.access;
  m_loc : Ast.loc;
}

type cls = {
  c_name : string;
  c_kind : Ast.class_kind;
  c_bases : Ast.base_spec list;
  c_fields : field list;
  c_methods : method_info list;
  c_loc : Ast.loc;
}

type t = {
  classes : cls StringMap.t;
  order : string list;  (* declaration order *)
  subclass_index : string list StringMap.t;
      (* class -> its strict subclasses, in declaration order *)
}

let find t name = StringMap.find_opt name t.classes

let find_exn t name =
  match find t name with
  | Some c -> c
  | None -> Source.error "unknown class '%s'" name

let mem t name = StringMap.mem name t.classes
let all_classes t = List.map (fun n -> find_exn t n) t.order
let class_names t = t.order

let direct_bases t name =
  match find t name with Some c -> c.c_bases | None -> []

(* All transitive base class names (each once, even via virtual bases). *)
let all_base_names t name =
  let seen = ref StringSet.empty in
  let rec go n =
    List.iter
      (fun (b : Ast.base_spec) ->
        if not (StringSet.mem b.b_name !seen) then begin
          seen := StringSet.add b.b_name !seen;
          go b.b_name
        end)
      (direct_bases t n)
  in
  go name;
  StringSet.elements !seen

(* Transitive virtual base names: bases inherited virtually anywhere on a
   path from [name]. *)
let virtual_base_names t name =
  let vb = ref StringSet.empty in
  let seen = ref StringSet.empty in
  let rec go n =
    if not (StringSet.mem n !seen) then begin
      seen := StringSet.add n !seen;
      List.iter
        (fun (b : Ast.base_spec) ->
          if b.b_virtual then vb := StringSet.add b.b_name !vb;
          go b.b_name)
        (direct_bases t n)
    end
  in
  go name;
  (* bases of virtual bases reached virtually are themselves complete-object
     level only if also virtual; we only need the set of classes whose
     subobject is shared, which is exactly the virtually-inherited ones *)
  StringSet.elements !vb

let is_base_of t ~base ~derived =
  base = derived || List.mem base (all_base_names t derived)

let is_strict_base_of t ~base ~derived =
  base <> derived && List.mem base (all_base_names t derived)

(* Direct and transitive subclasses, in declaration order. *)
let subclasses t name =
  Option.value ~default:[] (StringMap.find_opt name t.subclass_index)

(* Every class's strict subclasses at once: walking the classes in
   reverse declaration order and prepending leaves each list in
   declaration order. *)
let subclass_index t =
  List.fold_left
    (fun idx c ->
      List.fold_left
        (fun idx b ->
          StringMap.update b
            (fun l -> Some (c :: Option.value ~default:[] l))
            idx)
        idx (all_base_names t c))
    StringMap.empty (List.rev t.order)

let own_field c name = List.find_opt (fun f -> f.f_name = name) c.c_fields

let own_methods c name = List.filter (fun m -> m.m_name = name) c.c_methods

let ctors c = List.filter (fun m -> m.m_kind = Ast.MethCtor) c.c_methods
let dtor c = List.find_opt (fun m -> m.m_kind = Ast.MethDtor) c.c_methods

(* Does class [name] (or a base) declare any virtual method?  Determines
   vptr presence in the object layout. *)
let rec has_virtual_methods t name =
  match find t name with
  | None -> false
  | Some c ->
      List.exists (fun m -> m.m_virtual) c.c_methods
      || List.exists
           (fun (b : Ast.base_spec) -> has_virtual_methods t b.b_name)
           c.c_bases

(* -- construction --------------------------------------------------------- *)

(* Is [m] (name, declared in class [cls_name]) an override of a virtual
   method in some base of [cls_name]? *)
let overrides_virtual classes name (bases : Ast.base_spec list) mname =
  ignore name;
  let rec search_base bname =
    match StringMap.find_opt bname classes with
    | None -> false
    | Some (c : cls) ->
        List.exists (fun m -> m.m_name = mname && m.m_virtual) c.c_methods
        || List.exists
             (fun (b : Ast.base_spec) -> search_base b.b_name)
             c.c_bases
  in
  List.exists (fun (b : Ast.base_spec) -> search_base b.b_name) bases

let method_of_decl cls_name (m : Ast.method_decl) : method_info =
  {
    m_class = cls_name;
    m_name = m.mt_name;
    m_kind = m.mt_kind;
    m_ret = m.mt_ret;
    m_params = m.mt_params;
    m_virtual = m.mt_virtual;
    m_static = m.mt_static;
    m_pure = m.mt_pure;
    m_inits = m.mt_inits;
    m_body = m.mt_body;
    m_access = m.mt_access;
    m_loc = m.mt_loc;
  }

let field_of_decl cls_name (f : Ast.field_decl) : field =
  {
    f_class = cls_name;
    f_name = f.fd_name;
    f_type = f.fd_type;
    f_volatile = f.fd_volatile;
    f_static = f.fd_static;
    f_access = f.fd_access;
    f_loc = f.fd_loc;
  }

(* Attach an out-of-line definition to its in-class declaration.  Methods
   are matched by name (no overloading of normal methods in MiniC++);
   constructors by parameter count. *)
let attach_definition (c : cls) (m : Ast.method_decl) : cls =
  let matches (mi : method_info) =
    match m.mt_kind with
    | Ast.MethCtor ->
        mi.m_kind = Ast.MethCtor
        && List.length mi.m_params = List.length m.mt_params
    | Ast.MethDtor -> mi.m_kind = Ast.MethDtor
    | Ast.MethNormal -> mi.m_kind = Ast.MethNormal && mi.m_name = m.mt_name
  in
  match List.find_opt matches c.c_methods with
  | None ->
      Source.error ~at:m.mt_loc "out-of-line definition of %s::%s has no in-class declaration"
        c.c_name m.mt_name
  | Some mi ->
      if mi.m_body <> None then
        Source.error ~at:m.mt_loc "redefinition of %s::%s" c.c_name m.mt_name;
      let updated =
        { mi with m_body = m.mt_body; m_inits = m.mt_inits;
          m_params =
            (* prefer out-of-line parameter names: they are the ones the
               body refers to *)
            (if List.length m.mt_params = List.length mi.m_params then
               m.mt_params
             else mi.m_params) }
      in
      let methods =
        List.map (fun x -> if matches x && x == mi then updated else x) c.c_methods
      in
      { c with c_methods = methods }

(* telemetry instruments (no-ops unless collection is enabled) *)
let classes_counter = Telemetry.Counter.make "sema.classes"
let members_counter = Telemetry.Counter.make "sema.members"

let of_program (prog : Ast.program) : t =
  (* pass 1: class declarations *)
  let classes = ref StringMap.empty in
  let order = ref [] in
  List.iter
    (function
      | Ast.TClass cd ->
          if StringMap.mem cd.cd_name !classes then
            Source.error ~at:cd.cd_loc "duplicate class '%s'" cd.cd_name;
          let fields =
            List.filter_map
              (function Ast.MField f -> Some (field_of_decl cd.cd_name f) | Ast.MMethod _ -> None)
              cd.cd_members
          in
          (* reject duplicate member names within a class *)
          let seen = Hashtbl.create 8 in
          List.iter
            (fun f ->
              if Hashtbl.mem seen f.f_name then
                Source.error ~at:f.f_loc "duplicate data member '%s::%s'"
                  cd.cd_name f.f_name;
              Hashtbl.add seen f.f_name ())
            fields;
          let methods =
            List.filter_map
              (function Ast.MMethod m -> Some (method_of_decl cd.cd_name m) | Ast.MField _ -> None)
              cd.cd_members
          in
          (* no overloading of normal methods *)
          let seen_m = Hashtbl.create 8 in
          List.iter
            (fun m ->
              if m.m_kind = Ast.MethNormal then begin
                if Hashtbl.mem seen_m m.m_name then
                  Source.error ~at:m.m_loc
                    "method overloading is not supported: %s::%s" cd.cd_name
                    m.m_name;
                Hashtbl.add seen_m m.m_name ()
              end)
            methods;
          (* at most one ctor per arity *)
          let seen_c = Hashtbl.create 4 in
          List.iter
            (fun m ->
              if m.m_kind = Ast.MethCtor then begin
                let a = List.length m.m_params in
                if Hashtbl.mem seen_c a then
                  Source.error ~at:m.m_loc
                    "multiple constructors of %s with %d parameters" cd.cd_name a;
                Hashtbl.add seen_c a ()
              end)
            methods;
          classes :=
            StringMap.add cd.cd_name
              {
                c_name = cd.cd_name;
                c_kind = cd.cd_kind;
                c_bases = cd.cd_bases;
                c_fields = fields;
                c_methods = methods;
                c_loc = cd.cd_loc;
              }
              !classes;
          order := cd.cd_name :: !order
      | Ast.TFunc _ | Ast.TMethodDef _ | Ast.TGlobal _ | Ast.TEnum _ -> ())
    prog;
  (* pass 2: attach out-of-line definitions *)
  List.iter
    (function
      | Ast.TMethodDef (cls_name, m) -> (
          match StringMap.find_opt cls_name !classes with
          | None ->
              Source.error ~at:m.mt_loc "out-of-line definition for unknown class '%s'" cls_name
          | Some c -> classes := StringMap.add cls_name (attach_definition c m) !classes)
      | Ast.TClass _ | Ast.TFunc _ | Ast.TGlobal _ | Ast.TEnum _ -> ())
    prog;
  (* pass 3: validate bases; compute implicit virtuality *)
  let table =
    {
      classes = !classes;
      order = List.rev !order;
      subclass_index = StringMap.empty;
    }
  in
  StringMap.iter
    (fun _ c ->
      List.iter
        (fun (b : Ast.base_spec) ->
          if not (StringMap.mem b.b_name !classes) then
            Source.error ~at:b.b_loc "unknown base class '%s' of '%s'" b.b_name
              c.c_name;
          if c.c_kind = Ast.Union then
            Source.error ~at:b.b_loc "union '%s' cannot have base classes"
              c.c_name)
        c.c_bases)
    !classes;
  (* cycle detection in the inheritance graph *)
  let visiting = Hashtbl.create 16 and done_ = Hashtbl.create 16 in
  let rec check_cycle name =
    if Hashtbl.mem done_ name then ()
    else if Hashtbl.mem visiting name then
      Source.error "inheritance cycle involving class '%s'" name
    else begin
      Hashtbl.add visiting name ();
      List.iter
        (fun (b : Ast.base_spec) -> check_cycle b.b_name)
        (direct_bases table name);
      Hashtbl.remove visiting name;
      Hashtbl.add done_ name ()
    end
  in
  List.iter check_cycle table.order;
  (* implicit virtuality: process classes in topological (bases-first)
     order so that overrides of overrides are marked too *)
  let classes = ref !classes in
  let topo_done = Hashtbl.create 16 in
  let rec promote name =
    if not (Hashtbl.mem topo_done name) then begin
      Hashtbl.add topo_done name ();
      let c = StringMap.find name !classes in
      List.iter (fun (b : Ast.base_spec) -> promote b.b_name) c.c_bases;
      let c = StringMap.find name !classes in
      let methods =
        List.map
          (fun m ->
            if
              (not m.m_virtual)
              && m.m_kind = Ast.MethNormal
              && overrides_virtual !classes name c.c_bases m.m_name
            then { m with m_virtual = true }
            else m)
          c.c_methods
      in
      classes := StringMap.add name { c with c_methods = methods } !classes
    end
  in
  List.iter promote table.order;
  let t = { table with classes = !classes } in
  let t = { t with subclass_index = subclass_index t } in
  Telemetry.Counter.add classes_counter (List.length t.order);
  Telemetry.Counter.add members_counter
    (StringMap.fold
       (fun _ c acc ->
         acc + List.length (List.filter (fun f -> not f.f_static) c.c_fields))
       t.classes 0);
  t

(* -- statistics helpers (Table 1) ----------------------------------------- *)

let num_classes t = List.length t.order

let instance_fields c = List.filter (fun f -> not f.f_static) c.c_fields

let num_data_members t names =
  List.fold_left
    (fun acc n -> acc + List.length (instance_fields (find_exn t n)))
    0 names
