(** Hash-consed, structurally shared sets of small integers.

    A {!t} is an interned sorted array of distinct ints: within one
    {!interner}, two sets with equal contents are the {e same} value, so
    equality is a pointer comparison and repeated operations between the
    same operands are O(1) memo-table lookups. This is the set layer of
    the points-to solver: points-to workloads are dominated by
    repetitive sets and repetitive operations on them (Khedker et al.),
    so sharing plus operation dedup removes most of the cost of the
    naive one-tree-per-node representation.

    An interner is single-threaded: the {e creating} operations
    ({!singleton}, {!add}, {!union}, {!diff}) mutate its tables without
    synchronisation, so one interner belongs to one solve on one
    domain. *)

type t
type interner

val create : unit -> interner

(** The empty set — shared by every interner. *)
val empty : t

(** A stable identity: equal contents within one interner have equal
    ids. The empty set has id 0. *)
val id : t -> int

val is_empty : t -> bool
val cardinal : t -> int
val mem : int -> t -> bool
val equal : t -> t -> bool

(** [subset a b] is true when every element of [a] is in [b]. Pure — no
    interner access. *)
val subset : t -> t -> bool

val elements : t -> int list
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val singleton : interner -> int -> t
val add : interner -> int -> t -> t
val union : interner -> t -> t -> t

(** [diff i a b] is [a \ b]. *)
val diff : interner -> t -> t -> t

(** [compact it live] drops the operation memo tables
    (union/diff/add/singleton) and rebuilds the intern table around the
    sets in [live] — the only ones the caller still references. The
    transient intermediates of a converged solve get collected;
    survivors keep their identity, so pointer equality between them
    still holds and later operations still dedup against them (memos
    repopulate on demand). {!interned_count} keeps counting sets ever
    created. Call once solving converges; interning a set equal to a
    dropped (unreferenced) intermediate afterwards mints a fresh id,
    which is indistinguishable to any holder of a live set. *)
val compact : interner -> t list -> unit

(** Number of distinct sets interned (the empty set excluded). *)
val interned_count : interner -> int

(** Memo-table hits across union/diff/add/singleton. *)
val memo_hits : interner -> int
