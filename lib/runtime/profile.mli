(** Heap/object-space profiler: the dynamic-measurement instrumentation
    of the paper (§4.3, Table 2, Figure 4).

    Every complete class object created during execution is journalled
    with its size, the bytes of dead data members inside it, and its size
    with dead members removed. Running sums yield total object space,
    dead-member space, and {e two} high-water marks — the paper notes the
    with- and without-dead maxima may occur at different execution
    points, so each is tracked as its own running maximum.

    The journal is indexed by allocation id: the engines' object ids,
    which are dense from 0. A live allocation's bytes sit in two growable
    arrays at its id, each class keeps a running object count and byte
    tally, and a live-allocation counter gives the leaked objects, so no
    query walks the journal. *)

open Sema

type t

val create : ?dead:Member.Set.t -> Class_table.t -> t

(** Record the creation of [count] complete objects of class [cls] as
    one allocation under the caller-chosen [id], a non-negative id not
    yet journalled. *)
val record_alloc : t -> id:int -> cls:string -> count:int -> unit

(** Mark an allocation freed (idempotent; unknown ids are ignored, which
    covers stack-internal ids). *)
val record_free : t -> int -> unit

(** Record a non-class heap allocation (e.g. [new int\[n\]]). It is not
    journalled and takes no id: its bytes are only summed into
    [scalar_bytes]. *)
val record_scalar_alloc : t -> bytes:int -> unit

(** {1 Final measurements} *)

(** The resource guards a run executed under; carried in the snapshot so
    measurement reports state the conditions they were taken under. *)
type limits = {
  l_step_limit : int;
  l_call_depth_limit : int;
  l_heap_object_limit : int;
}

type snapshot = {
  object_space : int;  (** Table 2: space of all objects ever created *)
  dead_space : int;  (** Table 2: dead-member bytes inside them *)
  high_water_mark : int;  (** Table 2: max live object space *)
  high_water_mark_reduced : int;  (** Table 2: HWM without dead members *)
  num_objects : int;
  scalar_bytes : int;  (** non-class heap data, reported separately *)
  leaked_objects : int;  (** allocations never freed (live at exit) *)
  limits : limits option;
      (** the guards in force during the run, when the caller supplied
          them *)
}

val snapshot : ?limits:limits -> t -> snapshot

(** Figure 4, light bar: dead bytes as % of object space. *)
val dead_space_pct : snapshot -> float

(** Figure 4, dark bar: % reduction of the high-water mark. *)
val hwm_reduction_pct : snapshot -> float

val pp_snapshot : Format.formatter -> snapshot -> unit

(** (class, object count, bytes) per allocated class, sorted by name. *)
val per_class_allocs : t -> (string * int * int) list
