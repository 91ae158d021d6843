(* In-memory span recorder for the traced run.

   One span per call into a layer, recorded by the benchmark around the
   layer's public function: name, start, end, parent span, and the
   words the call allocated ([Gc.minor_words] delta; zero for work done
   in another process). Each span also carries its op's CPU speed
   factor ({!Calib}): [dur] is the scaled time, the Chrome trace keeps
   the wall clock. Every span of one op carries the op's id, which
   is the id of the op's own root span. Probes (extra calls made only
   to measure a layer, outside any op's timing) are roots flagged
   [probe]. Spans stay in memory and are written once, as Chrome
   trace-event JSON, when the run ends. *)

type span = {
  id : int;
  parent : int;  (** -1 for roots *)
  op : int;
  tid : int;
  name : string;  (** "<layer>.<call>", or "op" for an op's root *)
  label : string;
  t0 : float;
  t1 : float;
  alloc_words : float;
  probe : bool;
  scale : float;  (** the op's {!Calib.speed} *)
}

type t = {
  origin : float;
  mutable spans : span list;
  mutable next : int;
  counts : (string, float) Hashtbl.t;
  mu : Mutex.t;  (** serve_mix records from two client threads *)
}

let create () =
  {
    origin = Osproc.now ();
    spans = [];
    next = 0;
    counts = Hashtbl.create 32;
    mu = Mutex.create ();
  }

let fresh t = Mutex.protect t.mu (fun () -> t.next <- t.next + 1; t.next)
let add t s = Mutex.protect t.mu (fun () -> t.spans <- s :: t.spans)

(* Where a traced call is made from: the op it belongs to and its
   parent span. Untraced code passes [None] and pays one match. *)
type scope = { tr : t; op : int; parent : int; tid : int; scale : float }

let record ?(probe = false) ?(alloc_words = 0.) s ~id name t0 t1 =
  add s.tr
    { id; parent = s.parent; op = s.op; tid = s.tid; name; label = ""; t0; t1; alloc_words; probe;
      scale = s.scale }

(* An op's root span, [id] from [fresh]; the caller times the op. *)
let add_root (s : scope) ~label ~alloc_words t0 t1 =
  add s.tr
    { id = s.op; parent = -1; op = s.op; tid = s.tid; name = "op"; label; t0; t1; alloc_words;
      probe = false; scale = s.scale }

let timed ~probe (s : scope option) name f =
  match s with
  | None -> f ()
  | Some s ->
      let id = fresh s.tr in
      let a0 = Gc.minor_words () in
      let t0 = Osproc.now () in
      let v = f () in
      let t1 = Osproc.now () in
      record ~probe s ~id name t0 t1 ~alloc_words:(Gc.minor_words () -. a0);
      v

(* Time [f] as a child span [name] of [s]. *)
let span s name f = timed ~probe:false s name f

(* A probe: a root span of [s]'s op, outside the op's own timing. *)
let probe s name f = timed ~probe:true (Option.map (fun s -> { s with parent = -1 }) s) name f

(* A span whose interval was measured elsewhere (the daemon's slow
   log): placed inside [s]'s parent from [t0]. *)
let synthetic (s : scope) name ~t0 ~dur =
  record s ~id:(fresh s.tr) name t0 (t0 +. dur)

(* Accumulate a deterministic count. [v] is only forced when traced. *)
let count (s : scope option) name (v : unit -> float) =
  match s with
  | None -> ()
  | Some s ->
      let v = v () in
      Mutex.protect s.tr.mu (fun () ->
          Hashtbl.replace s.tr.counts name
            (v +. Option.value (Hashtbl.find_opt s.tr.counts name) ~default:0.))

let counted t name = Option.value (Hashtbl.find_opt t.counts name) ~default:0.
let wall (s : span) = s.t1 -. s.t0
let dur (s : span) = wall s *. s.scale
let ops t = List.filter (fun (s : span) -> s.parent < 0 && not s.probe) t.spans

let total f t name =
  List.fold_left (fun acc (s : span) -> if s.name = name then acc +. f s else acc) 0. t.spans

let busy_s t name = total dur t name
let alloc_words t name = total (fun (s : span) -> s.alloc_words) t name

(* Σ over op roots of the time their direct children (the layers) cover,
   over Σ op time: 1 means every op's time is attributed to a layer. *)
let layer_coverage t =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun (s : span) ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (wall s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    t.spans;
  let covered, total =
    List.fold_left
      (fun (c, tot) (s : span) ->
        (c +. Option.value (Hashtbl.find_opt child s.id) ~default:0., tot +. wall s))
      (0., 0.) (ops t)
  in
  if total > 0. then covered /. total else 0.

let chrome_json t =
  let b = Buffer.create (64 * (List.length t.spans + 1)) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i (s : span) ->
      if i > 0 then Buffer.add_char b ',';
      let layer =
        match String.index_opt s.name '.' with
        | Some k -> String.sub s.name 0 k
        | None -> s.name
      in
      Printf.bprintf b
        "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"op\":%d,\"span\":%d,\"parent\":%d,\"alloc_words\":%.0f,\"probe\":%b,\"scale\":%.4f,\"label\":\"%s\"}}"
        (Frontend.Source.json_escape s.name) layer
        ((s.t0 -. t.origin) *. 1e6)
        (wall s *. 1e6) s.tid s.op s.id s.parent s.alloc_words s.probe s.scale
        (Frontend.Source.json_escape s.label))
    (List.rev t.spans);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
