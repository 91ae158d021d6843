(* Heap/object-space profiler: the dynamic-measurement instrumentation of
   the paper (§4.3, Table 2, Figure 4).

   Every complete class object created during execution is journalled with
   its size, the bytes occupied by dead data members inside it, and its
   size with dead members removed. Running sums track:

   - total object space ("the amount of space occupied by objects
     throughout program execution");
   - dead-data-member space inside those objects;
   - the high-water mark of live object space;
   - the high-water mark if dead members were eliminated — tracked as its
     own running maximum because, as the paper notes, the two high-water
     marks may occur at different execution points. *)

open Sema

type alloc_kind = Heap | Stack | HeapArray

type alloc_info = {
  a_id : int;
  a_class : string;
  a_kind : alloc_kind;
  a_count : int;          (* number of objects (for new[]) *)
  a_size : int;           (* total bytes as laid out *)
  a_dead_bytes : int;     (* bytes of dead members inside *)
  a_reduced_size : int;   (* bytes if dead members were removed *)
  mutable a_freed : bool;
}

type t = {
  table : Class_table.t;
  dead : Member.Set.t;
  (* (size, reduced size, dead bytes) of one object, per class: fixed for
     the run, so each class is laid out the first time it is journalled
     and every later allocation is a lookup *)
  sizes : (string, int * int * int) Hashtbl.t;
  allocs : (int, alloc_info) Hashtbl.t;
  mutable next_id : int;
  mutable object_space : int;       (* Table 2 column 1 *)
  mutable dead_space : int;         (* Table 2 column 2 *)
  mutable cur : int;
  mutable cur_reduced : int;
  mutable hwm : int;                (* Table 2 column 3 *)
  mutable hwm_reduced : int;        (* Table 2 column 4 *)
  mutable scalar_bytes : int;       (* non-class heap data, reported apart *)
  mutable num_objects : int;
}

let create ?(dead = Member.Set.empty) table =
  {
    table;
    dead;
    sizes = Hashtbl.create 16;
    allocs = Hashtbl.create 256;
    next_id = 0;
    object_space = 0;
    dead_space = 0;
    cur = 0;
    cur_reduced = 0;
    hwm = 0;
    hwm_reduced = 0;
    scalar_bytes = 0;
    num_objects = 0;
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let class_sizes t cls =
  match Hashtbl.find t.sizes cls with
  | sizes -> sizes
  | exception Not_found ->
      let size = Layout.object_size t.table cls in
      let reduced = Layout.object_size ~dead:t.dead t.table cls in
      let dead_bytes = Layout.dead_member_bytes ~dead:t.dead t.table cls in
      let sizes = (size, reduced, dead_bytes) in
      Hashtbl.replace t.sizes cls sizes;
      sizes

(* Record the creation of [count] complete objects of class [cls] in one
   allocation under the caller-chosen id (the interpreter uses object ids
   as allocation ids). *)
let record_alloc t ~id ~kind ~cls ~count =
  let size1, reduced1, dead1 = class_sizes t cls in
  let info =
    {
      a_id = id;
      a_class = cls;
      a_kind = kind;
      a_count = count;
      a_size = size1 * count;
      a_dead_bytes = dead1 * count;
      a_reduced_size = reduced1 * count;
      a_freed = false;
    }
  in
  Hashtbl.replace t.allocs id info;
  t.object_space <- t.object_space + info.a_size;
  t.dead_space <- t.dead_space + info.a_dead_bytes;
  t.num_objects <- t.num_objects + count;
  t.cur <- t.cur + info.a_size;
  t.cur_reduced <- t.cur_reduced + info.a_reduced_size;
  if t.cur > t.hwm then t.hwm <- t.cur;
  if t.cur_reduced > t.hwm_reduced then t.hwm_reduced <- t.cur_reduced

let record_free t id =
  match Hashtbl.find_opt t.allocs id with
  | None -> ()
  | Some info ->
      if not info.a_freed then begin
        info.a_freed <- true;
        t.cur <- t.cur - info.a_size;
        t.cur_reduced <- t.cur_reduced - info.a_reduced_size
      end

let record_scalar_alloc t ~bytes =
  let id = fresh_id t in
  t.scalar_bytes <- t.scalar_bytes + bytes;
  id

(* -- final snapshot ----------------------------------------------------------- *)

(* The resource guards a run executed under; carried in the snapshot so
   measurement reports state the conditions they were taken under. *)
type limits = {
  l_step_limit : int;
  l_call_depth_limit : int;
  l_heap_object_limit : int;
}

type snapshot = {
  object_space : int;
  dead_space : int;
  high_water_mark : int;
  high_water_mark_reduced : int;
  num_objects : int;
  scalar_bytes : int;
  leaked_objects : int;  (* never freed: still "live" at exit *)
  limits : limits option;  (* None for callers that predate the guards *)
}

let snapshot ?limits (t : t) =
  {
    object_space = t.object_space;
    dead_space = t.dead_space;
    high_water_mark = t.hwm;
    high_water_mark_reduced = t.hwm_reduced;
    num_objects = t.num_objects;
    scalar_bytes = t.scalar_bytes;
    leaked_objects =
      Hashtbl.fold (fun _ a acc -> if a.a_freed then acc else acc + 1) t.allocs 0;
    limits;
  }

(* Figure 4, light-grey bar: dead bytes as a percentage of object space. *)
let dead_space_pct s =
  if s.object_space = 0 then 0.0
  else 100.0 *. float_of_int s.dead_space /. float_of_int s.object_space

(* Figure 4, dark-grey bar: reduction of the high-water mark. *)
let hwm_reduction_pct s =
  if s.high_water_mark = 0 then 0.0
  else
    100.0
    *. float_of_int (s.high_water_mark - s.high_water_mark_reduced)
    /. float_of_int s.high_water_mark

let pp_snapshot ppf s =
  Fmt.pf ppf
    "object space: %d bytes (%d objects), dead member space: %d (%.1f%%), HWM: %d, HWM w/o dead: %d (-%.1f%%)"
    s.object_space s.num_objects s.dead_space (dead_space_pct s)
    s.high_water_mark s.high_water_mark_reduced (hwm_reduction_pct s);
  match s.limits with
  | None -> ()
  | Some l ->
      Fmt.pf ppf " [limits: %d steps, call depth %d, %d objects]"
        l.l_step_limit l.l_call_depth_limit l.l_heap_object_limit

(* Per-class allocation summary, for diagnostics and tests. *)
let per_class_allocs t : (string * int * int) list =
  let tbl = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ a ->
      let n, b =
        Option.value ~default:(0, 0) (Hashtbl.find_opt tbl a.a_class)
      in
      Hashtbl.replace tbl a.a_class (n + a.a_count, b + a.a_size))
    t.allocs;
  Hashtbl.fold (fun cls (n, b) acc -> (cls, n, b) :: acc) tbl []
  |> List.sort compare
