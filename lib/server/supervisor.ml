(* Supervised worker pool: a bounded job queue drained by worker
   domains, with overload shedding, restart-on-failure and graceful
   drain.

   Robustness invariants:

   - the queue is bounded: [submit] never blocks and never grows the
     queue past [queue_cap] — overload is reported to the caller
     (which answers `overloaded`) instead of hiding in latency;

   - a worker is expected to handle its own per-job failures. If an
     exception nevertheless escapes [process] (a pipeline bug, or the
     deliberate fault-injection path), the job is quarantined (kept
     with the exception for the stats endpoint, logged via
     [on_poison]), and the worker domain is REPLACED by a monitor
     thread — one poisonous request costs one worker restart, never
     the daemon;

   - [drain] stops intake, lets every already-accepted job finish,
     then joins every worker domain and the monitor thread, so a
     clean shutdown leaks nothing.

   OCaml domains cannot be killed asynchronously, so supervision is
   cooperative: a worker stuck in an infinite loop can only be
   cancelled by the deadline machinery at the interpreter's tick
   points (see [Value.arm_deadline]); the supervisor's job is to
   survive workers that *die*, and to bound what it accepts. *)

type 'a t = {
  mutex : Mutex.t;
  nonempty : Condition.t;  (* a job arrived, or draining started *)
  death : Condition.t;  (* a worker died, or the monitor must stop *)
  idle : Condition.t;  (* a worker exited; drain re-checks its wait *)
  queue : 'a Queue.t;
  queue_cap : int;
  describe : 'a -> string;
  process : 'a -> unit;
  on_poison : 'a -> exn -> unit;
  mutable draining : bool;
  mutable live : int;  (* workers currently running *)
  mutable doms : unit Domain.t option array;
  mutable dead : int list;  (* worker slots awaiting replacement *)
  mutable restarts : int;
  mutable quarantine : (string * string) list;  (* (job, exn), newest first *)
  mutable stop_monitor : bool;
  mutable monitor : Thread.t option;
}

let restarts_counter = Telemetry.Counter.make "server.worker_restarts"
let quarantine_cap = 16

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* One worker: pop, process, repeat. Exits when draining finds the
   queue empty; exits abnormally (recording a death notice for the
   monitor) when [process] lets an exception escape. *)
let rec worker_loop t slot =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.draining do
    Condition.wait t.nonempty t.mutex
  done;
  if Queue.is_empty t.queue then begin
    (* draining and nothing left: clean exit *)
    t.live <- t.live - 1;
    Condition.broadcast t.idle;
    Mutex.unlock t.mutex
  end
  else begin
    let job = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    match t.process job with
    | () -> worker_loop t slot
    | exception e ->
        (try t.on_poison job e with _ -> ());
        let excerpt =
          let s = try t.describe job with _ -> "<describe failed>" in
          if String.length s > 200 then String.sub s 0 200 ^ "…" else s
        in
        Mutex.lock t.mutex;
        t.quarantine <-
          (excerpt, Printexc.to_string e)
          :: (if List.length t.quarantine >= quarantine_cap then
                List.filteri (fun i _ -> i < quarantine_cap - 1) t.quarantine
              else t.quarantine);
        t.live <- t.live - 1;
        t.dead <- slot :: t.dead;
        Condition.signal t.death;
        Condition.broadcast t.idle;
        Mutex.unlock t.mutex
  end

(* The monitor thread: joins dead worker domains and spawns
   replacements. Runs until [drain] has seen every worker exit and no
   death is pending, then is told to stop. *)
let monitor_loop t =
  let rec go () =
    Mutex.lock t.mutex;
    while t.dead = [] && not t.stop_monitor do
      Condition.wait t.death t.mutex
    done;
    match t.dead with
    | slot :: rest ->
        t.dead <- rest;
        let old = t.doms.(slot) in
        Mutex.unlock t.mutex;
        (* the dead domain has left its loop; join off the lock *)
        (match old with Some d -> Domain.join d | None -> ());
        Mutex.lock t.mutex;
        t.restarts <- t.restarts + 1;
        Telemetry.Counter.incr restarts_counter;
        t.doms.(slot) <- Some (Domain.spawn (fun () -> worker_loop t slot));
        t.live <- t.live + 1;
        Mutex.unlock t.mutex;
        go ()
    | [] ->
        (* stop_monitor && no pending deaths *)
        Mutex.unlock t.mutex
  in
  go ()

let create ~jobs ~queue_cap ~describe ~on_poison ~process =
  let t =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      death = Condition.create ();
      idle = Condition.create ();
      queue = Queue.create ();
      queue_cap;
      describe;
      process;
      on_poison;
      draining = false;
      live = jobs;
      doms = Array.make jobs None;
      dead = [];
      restarts = 0;
      quarantine = [];
      stop_monitor = false;
      monitor = None;
    }
  in
  for slot = 0 to jobs - 1 do
    t.doms.(slot) <- Some (Domain.spawn (fun () -> worker_loop t slot))
  done;
  t.monitor <- Some (Thread.create monitor_loop t);
  t

type submit_result = Accepted | Overloaded | Draining

let submit t job =
  locked t @@ fun () ->
  if t.draining then Draining
  else if Queue.length t.queue >= t.queue_cap then Overloaded
  else begin
    Queue.push job t.queue;
    Condition.signal t.nonempty;
    Accepted
  end

let queue_depth t = locked t (fun () -> Queue.length t.queue)
let restarts t = locked t (fun () -> t.restarts)
let quarantined t = locked t (fun () -> t.quarantine)
let worker_count t = locked t (fun () -> t.live)

(* Graceful drain: stop intake, let accepted jobs finish (workers that
   die mid-drain are still replaced so the queue cannot strand jobs),
   then join everything. Idempotent-ish: a second call finds live = 0
   and returns after re-joining nothing. *)
let drain t =
  Mutex.lock t.mutex;
  if not t.draining then begin
    t.draining <- true;
    Condition.broadcast t.nonempty
  end;
  while t.live > 0 || t.dead <> [] do
    Condition.wait t.idle t.mutex
  done;
  let stop_needed = not t.stop_monitor in
  t.stop_monitor <- true;
  Condition.signal t.death;
  Mutex.unlock t.mutex;
  if stop_needed then begin
    (match t.monitor with Some th -> Thread.join th | None -> ());
    t.monitor <- None;
    Array.iteri
      (fun i d ->
        match d with
        | Some d ->
            Domain.join d;
            t.doms.(i) <- None
        | None -> ())
      t.doms
  end
