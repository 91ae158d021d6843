(** Content-addressed front cache over the resilient parse+sema
    pipeline, shared by the serve daemon and the CLI's batch [check]:
    identical (file, content) pairs are lexed, parsed and type-checked
    once per process, liveness analysis over a cached program is
    memoized per configuration, and the program is lowered once, on its
    first run. It is the only cache in front of the pipeline.

    Hits and misses are counted in the [server.source_cache.*] and
    [server.analysis_cache.*] telemetry counters. The table is bounded
    by {!budget} bytes with FIFO eviction, and is domain-safe. *)

open Frontend

type entry = {
  e_prog : Sema.Typed_ast.program;
  e_unknown : Source.unknown_region list;
  e_diags : Source.diagnostic list;
  e_errors : int;
  e_suppressed : int;
  e_diag_text : string;
      (** the diagnostics exactly as [Diagnostics.pp] renders them, so
          cached CLI output is byte-identical to an uncached run *)
  e_lock : Mutex.t;
  mutable e_analyses : (Deadmem.Config.t * Deadmem.Liveness.result) list;
      (** latest first, at most {!analyses_cap} *)
  e_lowered : Runtime.Interp.lowered Lazy.t;  (** read it with {!lowered} *)
}

(** The byte budget; the oldest entries are evicted until a new one fits. *)
val budget : int

(** What an entry is charged: its source length plus a fixed floor. *)
val charge : string -> int

(** How many configs an entry's analysis memo keeps. *)
val analyses_cap : int

(** [build ~file source] runs the resilient checker over one unit and
    returns an uncached entry: the front half `deadmem analyze -k` and
    `explain -k` print. Raises whatever the checker raises on a
    pipeline bug. *)
val build : file:string -> string -> entry

(** [get ~file source] returns the cached entry (and whether it hit)
    or runs the resilient checker and caches the result. Never caches
    a crashed pipeline (exceptions propagate) or a source over
    {!budget}. Domain-safe. The key hashes file name and content:
    diagnostics embed the file name. *)
val get : file:string -> string -> entry * bool

(** Memoized [Deadmem.Liveness.analyze] over the entry's program with
    the entry's unknown regions. Serialized per entry, so concurrent
    requests for one translation unit cannot race on the shared
    program. *)
val analyze : entry -> config:Deadmem.Config.t -> Deadmem.Liveness.result

(** The entry's lowering, built by the first call under the entry lock. *)
val lowered : entry -> Runtime.Interp.lowered

(** Number of cached translation units. *)
val entries : unit -> int

(** Bytes charged to the cached units; never above {!budget}. *)
val bytes : unit -> int

(** Drop every entry (the drain path flushes the cache). *)
val clear : unit -> unit
