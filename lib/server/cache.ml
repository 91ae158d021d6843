(* Content-addressed front cache: parse + sema + liveness results and
   the lowering, keyed by a hash of the translation unit. It is the one
   cache in front of the pipeline.

   The daemon's traffic is repetitive — the same translation units come
   back on every analyze/check/run round trip — so the unit of reuse is
   the *source content*, not the request (the MDE observation from
   PAPERS.md applied one layer up: repetitive inputs want content-keyed
   memoization). One entry holds everything the pipeline produced for
   one (file, content) pair: the typed program, the unknown regions,
   the diagnostics (both as structured values and as the exact rendered
   text, so cached CLI output stays byte-identical), a memo of liveness
   results for the last few configs, and the resolve+compile lowering,
   built on the entry's first [run].

   The file name participates in the key because diagnostics embed it:
   two files with equal content but different names must not share
   rendered diagnostics. The daemon passes one fixed name, so its
   keying degenerates to pure content hashing.

   Bound: one byte budget with FIFO eviction. An entry is charged its
   source length plus a floor, since even a tiny unit's entry holds a
   few KiB. A source over the whole budget is answered but not cached.

   Concurrency: the table is guarded by one mutex held only around
   lookups and inserts (parsing runs outside it, so distinct sources
   check in parallel; a racing duplicate parse loses and is discarded).
   Each entry carries its own lock serializing analyses and the
   lowering *on that entry*: the typed AST is immutable, but the
   liveness pass and its memo must not run twice concurrently over one
   shared program. *)

open Frontend

type entry = {
  e_prog : Sema.Typed_ast.program;
  e_unknown : Source.unknown_region list;
  e_diags : Source.diagnostic list;
  e_errors : int;
  e_suppressed : int;
  e_diag_text : string;  (* exactly what Diagnostics.pp rendered *)
  e_lock : Mutex.t;
  mutable e_analyses : (Deadmem.Config.t * Deadmem.Liveness.result) list;
  e_lowered : Runtime.Interp.lowered Lazy.t;  (* forced under [e_lock] *)
}

let source_hits = Telemetry.Counter.make "server.source_cache.hits"
let source_misses = Telemetry.Counter.make "server.source_cache.misses"
let analysis_hits = Telemetry.Counter.make "server.analysis_cache.hits"
let analysis_misses = Telemetry.Counter.make "server.analysis_cache.misses"

(* Under the benchmark's daemon mix, 896 KiB holds what the old
   64-entry cap held: the 11 ports (77 KB) and ~53 generated programs of
   ~10.9 KB, plus 64 floors. *)
let budget = 896 * 1024
let entry_floor = 4096
let analyses_cap = 4
let charge source = String.length source + entry_floor

let mutex = Mutex.create ()
let table : (string, entry) Hashtbl.t = Hashtbl.create 64
let order : (string * int) Queue.t = Queue.create ()  (* key, charge *)
let charged = ref 0

let key ~file source = Digest.to_hex (Digest.string (file ^ "\x00" ^ source))

let build ~file source =
  let diags = Source.Diagnostics.create () in
  let prog, unknown = Sema.Type_check.check_source_resilient ~file ~diags source in
  {
    e_prog = prog;
    e_unknown = unknown;
    e_diags = Source.Diagnostics.to_list diags;
    e_errors = Source.Diagnostics.error_count diags;
    e_suppressed = Source.Diagnostics.suppressed_count diags;
    e_diag_text = Fmt.str "%a" Source.Diagnostics.pp diags;
    e_lock = Mutex.create ();
    e_analyses = [];
    e_lowered = lazy (Runtime.Interp.lower prog);
  }

(* [get ~file source] returns the entry and whether it was a cache hit.
   Raises whatever the resilient checker raises on a pipeline bug —
   nothing is cached in that case, nor when the source alone is over
   the budget. *)
let get ~file source : entry * bool =
  let k = key ~file source in
  match
    Mutex.protect mutex (fun () -> Hashtbl.find_opt table k)
  with
  | Some e ->
      Telemetry.Counter.incr source_hits;
      (e, true)
  | None ->
      Telemetry.Counter.incr source_misses;
      let e = build ~file source in
      let c = charge source in
      Mutex.protect mutex (fun () ->
          match Hashtbl.find_opt table k with
          | Some winner -> winner (* lost a racing duplicate parse *)
          | None when c > budget -> e
          | None ->
              while !charged + c > budget do
                let old, oc = Queue.pop order in
                Hashtbl.remove table old;
                charged := !charged - oc
              done;
              Hashtbl.replace table k e;
              Queue.push (k, c) order;
              charged := !charged + c;
              e)
      |> fun e -> (e, false)

(* Memoized liveness analysis for one configuration. The entry lock
   both serializes analysis over the shared immutable program and
   protects the memo list. Config.t is a pure data record, so
   structural equality is the right memo key. A request's
   [library_classes] are part of its config, so the memo keeps only the
   [analyses_cap] latest configs. *)
let analyze (e : entry) ~(config : Deadmem.Config.t) : Deadmem.Liveness.result =
  Mutex.protect e.e_lock @@ fun () ->
  match List.assoc_opt config e.e_analyses with
  | Some r ->
      Telemetry.Counter.incr analysis_hits;
      r
  | None ->
      Telemetry.Counter.incr analysis_misses;
      let r =
        Deadmem.Liveness.analyze ~config ~unknown:e.e_unknown e.e_prog
      in
      e.e_analyses <-
        (config, r)
        :: List.filteri (fun i _ -> i < analyses_cap - 1) e.e_analyses;
      r

let lowered e = Mutex.protect e.e_lock (fun () -> Lazy.force e.e_lowered)

let entries () = Mutex.protect mutex (fun () -> Hashtbl.length table)
let bytes () = Mutex.protect mutex (fun () -> !charged)

let clear () =
  Mutex.protect mutex (fun () ->
      Hashtbl.reset table;
      Queue.clear order;
      charged := 0)
