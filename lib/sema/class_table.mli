(** The class table: registry of all classes/structs/unions of a
    translation unit, with bases, data members and methods.

    Construction ({!of_program}) attaches out-of-line method definitions
    to their in-class declarations, rejects duplicate classes/members,
    unknown bases and inheritance cycles, and computes implicit
    virtuality: a method (or destructor) that overrides a virtual one is
    virtual even without the keyword. *)

open Frontend

(** A data member as declared, tagged with its defining class. *)
type field = {
  f_class : string;  (** defining class *)
  f_name : string;
  f_type : Ast.type_expr;
  f_volatile : bool;
  f_static : bool;
  f_access : Ast.access;
  f_loc : Ast.loc;
}

(** A method/constructor/destructor as declared. [m_body] is [None] for
    pure-virtual and undefined methods. *)
type method_info = {
  m_class : string;
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

type t

(** Build the table from a parsed program.
    @raise Source.Compile_error on semantic errors. *)
val of_program : Ast.program -> t

val find : t -> string -> cls option
val find_exn : t -> string -> cls
val mem : t -> string -> bool

(** All classes, in declaration order. *)
val all_classes : t -> cls list

val class_names : t -> string list
val num_classes : t -> int

(** {1 Hierarchy queries} *)

val direct_bases : t -> string -> Ast.base_spec list

(** Transitive base-class names, each once (virtual bases dedup). *)
val all_base_names : t -> string -> string list

(** Classes inherited virtually anywhere on a path from the argument:
    exactly the classes whose subobject is shared at the complete-object
    level. *)
val virtual_base_names : t -> string -> string list

(** [is_base_of t ~base ~derived] includes the reflexive case. *)
val is_base_of : t -> base:string -> derived:string -> bool

val is_strict_base_of : t -> base:string -> derived:string -> bool

(** Transitive subclasses (not including the class itself), in
    declaration order; [[]] for an unknown name. Computed once per
    table. *)
val subclasses : t -> string -> string list

(** Does the class (or any base) declare a virtual method? Determines
    vptr presence in the object layout. *)
val has_virtual_methods : t -> string -> bool

(** {1 Member access} *)

val own_field : cls -> string -> field option
val own_methods : cls -> string -> method_info list
val ctors : cls -> method_info list
val dtor : cls -> method_info option

(** Non-static data members of the class itself (excluding bases). *)
val instance_fields : cls -> field list

(** Total instance data members across the given class names — the
    "members in used classes" column of Table 1. *)
val num_data_members : t -> string list -> int
