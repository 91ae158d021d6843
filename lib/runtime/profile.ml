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
     marks may occur at different execution points.

   The journal is indexed by allocation id. Both engines draw those ids
   from one dense object counter, so a live allocation's bytes sit in two
   growable int arrays at its id; freeing one writes [not_live] back. *)

open Sema

(* Per class: one object's (size, reduced size, dead bytes), fixed for
   the run, so each class is laid out the first time it is journalled;
   plus the running count and bytes of its objects, for
   [per_class_allocs]. *)
type class_info = {
  c_size : int;
  c_reduced : int;
  c_dead : int;
  mutable c_count : int;
  mutable c_bytes : int;
}

type t = {
  table : Class_table.t;
  dead : Member.Set.t;
  classes : (string, class_info) Hashtbl.t;
  (* live bytes and live reduced bytes of allocation [id] at index [id];
     [not_live] for an id never journalled or already freed *)
  mutable live_size : int array;
  mutable live_reduced : int array;
  mutable live_allocs : int;        (* journalled and not yet freed *)
  mutable object_space : int;       (* Table 2 column 1 *)
  mutable dead_space : int;         (* Table 2 column 2 *)
  mutable cur : int;
  mutable cur_reduced : int;
  mutable hwm : int;                (* Table 2 column 3 *)
  mutable hwm_reduced : int;        (* Table 2 column 4 *)
  mutable scalar_bytes : int;       (* non-class heap data, reported apart *)
  mutable num_objects : int;
}

(* Not 0: [new A\[0\]] is a live allocation of 0 bytes. *)
let not_live = -1

let create ?(dead = Member.Set.empty) table =
  {
    table;
    dead;
    classes = Hashtbl.create 16;
    live_size = Array.make 256 not_live;
    live_reduced = Array.make 256 not_live;
    live_allocs = 0;
    object_space = 0;
    dead_space = 0;
    cur = 0;
    cur_reduced = 0;
    hwm = 0;
    hwm_reduced = 0;
    scalar_bytes = 0;
    num_objects = 0;
  }

let class_info t cls =
  match Hashtbl.find t.classes cls with
  | ci -> ci
  | exception Not_found ->
      let ci =
        {
          c_size = Layout.object_size t.table cls;
          c_reduced = Layout.object_size ~dead:t.dead t.table cls;
          c_dead = Layout.dead_member_bytes ~dead:t.dead t.table cls;
          c_count = 0;
          c_bytes = 0;
        }
      in
      Hashtbl.replace t.classes cls ci;
      ci

let grow a n =
  let b = Array.make (max n (2 * Array.length a)) not_live in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Record the creation of [count] complete objects of class [cls] in one
   allocation under the caller-chosen id (the engines use object ids as
   allocation ids). *)
let record_alloc t ~id ~cls ~count =
  let ci = class_info t cls in
  let size = ci.c_size * count and reduced = ci.c_reduced * count in
  if id >= Array.length t.live_size then begin
    t.live_size <- grow t.live_size (id + 1);
    t.live_reduced <- grow t.live_reduced (id + 1)
  end;
  t.live_size.(id) <- size;
  t.live_reduced.(id) <- reduced;
  t.live_allocs <- t.live_allocs + 1;
  ci.c_count <- ci.c_count + count;
  ci.c_bytes <- ci.c_bytes + size;
  t.object_space <- t.object_space + size;
  t.dead_space <- t.dead_space + (ci.c_dead * count);
  t.num_objects <- t.num_objects + count;
  t.cur <- t.cur + size;
  t.cur_reduced <- t.cur_reduced + reduced;
  if t.cur > t.hwm then t.hwm <- t.cur;
  if t.cur_reduced > t.hwm_reduced then t.hwm_reduced <- t.cur_reduced

let record_free t id =
  if id >= 0 && id < Array.length t.live_size then begin
    let size = t.live_size.(id) in
    if size <> not_live then begin
      t.live_size.(id) <- not_live;
      t.live_allocs <- t.live_allocs - 1;
      t.cur <- t.cur - size;
      t.cur_reduced <- t.cur_reduced - t.live_reduced.(id)
    end
  end

let record_scalar_alloc t ~bytes = t.scalar_bytes <- t.scalar_bytes + bytes

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
    leaked_objects = t.live_allocs;
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
  Hashtbl.fold (fun cls ci acc -> (cls, ci.c_count, ci.c_bytes) :: acc) t.classes []
  |> List.sort compare
