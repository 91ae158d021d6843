(* Member lookup in a C++ class hierarchy.

   Given a class [C] and a member name [m], find the class that defines the
   member that an unqualified access [c.m] denotes. Follows the C++ rules
   the paper relies on (it cites Ramalingam & Srinivasan, PLDI'97 [16]):

   - a member in a derived class hides a same-named member in its bases;
   - a member reached through two paths that both go through the same
     virtual base denotes one member (shared subobject), no ambiguity;
   - a member found in two distinct base classes (or twice via a repeated
     non-virtual base) is ambiguous and rejected. *)

open Frontend

type 'a result = Found of string * 'a | NotFound | Ambiguous of string list

(* telemetry instrument (a no-op unless collection is enabled) *)
let lookups_counter = Telemetry.Counter.make "sema.lookups"

(* Generic hierarchy search: [own c] extracts the candidate defined
   directly in class [c]. Hiding: if [own] succeeds at [c], bases of [c]
   are not searched. Returns the (defining class, candidate) pairs met,
   one per path. The walk runs on every lookup — hierarchies are a few
   classes deep — and stores nothing, so the class table stays
   immutable and is shared freely across domains. *)
let search table ~start ~own =
  let rec go cls_name acc =
    match Class_table.find table cls_name with
    | None -> acc
    | Some c -> (
        match own c with
        | Some x -> (cls_name, x) :: acc
        | None ->
            List.fold_left
              (fun acc (b : Ast.base_spec) -> go b.b_name acc)
              acc c.c_bases)
  in
  go start []

let classify table ~start ~own : 'a result =
  Telemetry.Counter.incr lookups_counter;
  match search table ~start ~own with
  | [] -> NotFound
  | [ (d, x) ] -> Found (d, x)
  | found -> (
      (* one defining class reached along several paths (a shared
         virtual base) is one member *)
      match List.sort_uniq String.compare (List.map fst found) with
      | [ d ] -> Found (d, List.assoc d found)
      | ds -> (
          (* Distinct defining classes: ambiguous, unless one dominates
             the others (i.e. all others are bases of it, as with the
             classic virtual-base dominance rule). *)
          let dominators =
            List.filter
              (fun d ->
                List.for_all
                  (fun other ->
                    other = d
                    || Class_table.is_strict_base_of table ~base:other ~derived:d)
                  ds)
              ds
          in
          match dominators with
          | [ d ] -> Found (d, List.assoc d found)
          | _ -> Ambiguous ds))

(* Look up data member [m] starting at class [start].  Mirrors the
   paper's [Lookup(X, m)]: "m may occur in a base class of X". *)
let lookup_field table ~start ~name : Class_table.field result =
  classify table ~start
    ~own:(fun c -> Class_table.own_field c name)

(* Look up a normal method. *)
let lookup_method table ~start ~name : Class_table.method_info result =
  let own c =
    List.find_opt
      (fun (m : Class_table.method_info) ->
        m.m_name = name && m.m_kind = Ast.MethNormal)
      c.Class_table.c_methods
  in
  classify table ~start ~own

exception Lookup_error of string

let field_exn table ~start ~name ~loc =
  match lookup_field table ~start ~name with
  | Found (cls, f) -> (cls, f)
  | NotFound ->
      Source.error ~at:loc "class '%s' has no data member named '%s'" start name
  | Ambiguous ds ->
      Source.error ~at:loc "member '%s' is ambiguous in '%s' (defined in %s)"
        name start (String.concat ", " ds)

let method_exn table ~start ~name ~loc =
  match lookup_method table ~start ~name with
  | Found (cls, m) -> (cls, m)
  | NotFound -> Source.error ~at:loc "class '%s' has no method named '%s'" start name
  | Ambiguous ds ->
      Source.error ~at:loc "method '%s' is ambiguous in '%s' (defined in %s)"
        name start (String.concat ", " ds)

(* Dynamic dispatch: the most-derived override of virtual method
   [name] when the receiver's dynamic class is [dyn].  Used by the
   interpreter and by call-graph construction. *)
let dispatch table ~dyn ~name : (string * Class_table.method_info) option =
  match lookup_method table ~start:dyn ~name with
  | Found (cls, m) -> Some (cls, m)
  | NotFound | Ambiguous _ -> None
