(** Supervised worker pool: a bounded job queue drained by worker
    domains, with overload shedding, restart-on-failure and graceful
    drain.

    Jobs are processed by [jobs] worker domains popping from a queue
    bounded at [queue_cap]. A job whose [process] raises is quarantined
    and costs exactly one worker restart (performed by a monitor
    thread); the pool itself never dies. [drain] stops intake, finishes
    every accepted job, and joins every domain and thread. *)

type 'a t

(** [create ~jobs ~queue_cap ~describe ~on_poison ~process] spawns the
    worker domains and the monitor thread. [jobs] and [queue_cap] must
    be at least 1; they are taken as given. [describe] renders a job for
    the quarantine log (truncated to 200 bytes); [on_poison] is called
    (exceptions ignored) before the dying worker is replaced, so the
    serve loop can still answer the poisonous request with a structured
    [internal] error. *)
val create :
  jobs:int ->
  queue_cap:int ->
  describe:('a -> string) ->
  on_poison:('a -> exn -> unit) ->
  process:('a -> unit) ->
  'a t

type submit_result =
  | Accepted
  | Overloaded  (** queue at capacity — load shed *)
  | Draining  (** shutting down — no new work *)

(** Non-blocking enqueue. *)
val submit : 'a t -> 'a -> submit_result

val queue_depth : 'a t -> int

(** Worker domains restarted after a poisonous job, since startup. *)
val restarts : 'a t -> int

(** Quarantined (job excerpt, exception) pairs, newest first, capped. *)
val quarantined : 'a t -> (string * string) list

(** Workers currently live (momentarily below [jobs] during a restart). *)
val worker_count : 'a t -> int

(** Stop intake, finish every accepted job, join every worker domain
    and the monitor thread. Blocks until the pool is fully stopped.
    Safe to call more than once. *)
val drain : 'a t -> unit
