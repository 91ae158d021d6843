(** The benchmark suite: MiniC++ ports of the paper's 11 benchmark
    programs (Table 1), with their qualitative expectations.

    Each entry bundles the program source, Table-1 metadata, and the
    bands the paper's evaluation reports (Figure 3 percentage range,
    Figure 4 dead-space range, whether the high-water mark equals total
    object space) — asserted by the test suite. *)

open Sema

type expectation = {
  exp_dead_pct_min : float;  (** Figure 3 band, lower bound *)
  exp_dead_pct_max : float;
  exp_hwm_equals_total : bool;
      (** Table 2: does the program hold all objects until exit? *)
  exp_dead_space_pct_min : float;  (** Figure 4 light-bar band *)
  exp_dead_space_pct_max : float;
}

type t = {
  name : string;
  description : string;  (** Table 1's description column *)
  source : string;  (** the complete MiniC++ program *)
  uses_class_library : bool;
      (** taldict/simulate/hotwire: built on an independent library *)
  expect : expectation;
}

(** The eleven benchmarks, in the paper's Table 1 order. *)
val all : t list

val richards : t
val deltablue : t
val taldict : t
val simulate : t
val hotwire : t
val sched : t
val lcom : t
val ixx : t
val npic : t
val idl : t
val jikes : t

val find : string -> t option
val find_exn : string -> t

(** Lines of code (Table 1, column 3). *)
val loc : t -> int

(** Parse and type-check the benchmark. Nothing is memoized: each call
    returns a fresh typed program. *)
val program : t -> Typed_ast.program
