(** Sets of small non-negative integers: immutable sorted arrays of
    distinct ints, the set layer of the points-to solver.

    Sets are plain values with no shared state, so any domain may use
    them. An operation whose result has the contents of one of its
    operands returns that operand physically and allocates nothing:
    [union a b == a] when [b ⊆ a], [union a b == b] when [a ⊆ b], and
    [diff a b == a] when [a] and [b] are disjoint. *)

type t

val empty : t
val is_empty : t -> bool
val cardinal : t -> int
val mem : int -> t -> bool

(** [subset a b] is true when every element of [a] is in [b].
    Allocation-free. *)
val subset : t -> t -> bool

val elements : t -> int list
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val singleton : int -> t
val add : int -> t -> t
val union : t -> t -> t

(** [diff a b] is [a \ b]. *)
val diff : t -> t -> t
