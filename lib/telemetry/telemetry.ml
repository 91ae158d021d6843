(* Lightweight analysis telemetry: counters, gauges and spans.

   Every pipeline layer (lexer, parser, sema, callgraph, liveness,
   eliminate/layout, interpreter) registers its instruments at module
   initialisation and records into them unconditionally; each recording
   operation is a single load-and-branch when telemetry is disabled (the
   default), so the instrumentation can stay in place permanently.

   Design points:
   - instruments are *handles* (records with a mutable cell), created
     once per process by [Counter.make]/[Gauge.make]; the hot path never
     touches the registry, only the handle;
   - counters are monotone: deltas are clamped to be non-negative, so a
     counter read is always >= every earlier read within a run;
   - spans record wall-clock intervals and export to the Chrome
     trace-event format (the JSON array flavour that [chrome://tracing]
     and Perfetto load directly);
   - [reset] clears recorded values but keeps registrations, so one
     process can measure several independent runs (the bench harness
     resets between benchmarks);
   - instruments are domain-safe: counters and gauges are [Atomic]
     cells and the span journal is mutex-protected, so parallel batch
     analysis ([deadmem check --jobs]) records correct totals;
   - the [DEADMEM_TELEMETRY] environment variable force-enables
     collection at load time, for harnesses that cannot pass a flag
     through (e.g. timing [dune runtest] with instrumentation live). *)

(* -- enablement -------------------------------------------------------------- *)

let enabled_flag =
  ref
    (match Sys.getenv_opt "DEADMEM_TELEMETRY" with
    | Some ("1" | "true" | "on" | "yes") -> true
    | Some _ | None -> false)

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

let now_us () = Unix.gettimeofday () *. 1e6

(* -- counters ----------------------------------------------------------------- *)

(* Registration happens at module initialisation, but spawned domains
   may race a late [make] against another domain's: one lock covers both
   registries. *)
let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

module Counter = struct
  type t = { name : string; value : int Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 64

  let make name =
    with_registry @@ fun () ->
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
        let c = { name; value = Atomic.make 0 } in
        Hashtbl.add registry name c;
        c

  (* monotone: negative deltas are ignored rather than subtracted *)
  let add c n =
    if !enabled_flag && n > 0 then ignore (Atomic.fetch_and_add c.value n)

  let incr c = if !enabled_flag then ignore (Atomic.fetch_and_add c.value 1)
  let value c = Atomic.get c.value
  let name c = c.name
end

(* -- gauges ------------------------------------------------------------------- *)

module Gauge = struct
  (* last-writer-wins across domains; [touched] flips monotonically *)
  type t = { name : string; value : int Atomic.t; touched : bool Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32

  let make name =
    with_registry @@ fun () ->
    match Hashtbl.find_opt registry name with
    | Some g -> g
    | None ->
        let g = { name; value = Atomic.make 0; touched = Atomic.make false } in
        Hashtbl.add registry name g;
        g

  let set g v =
    if !enabled_flag then begin
      Atomic.set g.value v;
      Atomic.set g.touched true
    end

  let value g = Atomic.get g.value
  let name g = g.name
end

(* -- histograms ---------------------------------------------------------------- *)

module Histogram = struct
  (* Log-bucketed (HDR-style) latency histograms over non-negative
     integers (microseconds by convention).

     Bucketing: values 0..3 get exact buckets; above that each
     power-of-two octave is split into [sub_per_octave] sub-buckets
     keyed by the two bits below the leading bit, so every recorded
     value lands in a bucket whose upper bound overshoots it by < 25%.
     With 63-bit ints the leading bit position is at most 61, so 248
     buckets cover the whole range.

     Recording is wait-free: one [Atomic.fetch_and_add] on the bucket
     plus one on the running sum and a CAS loop on the max. The
     disabled path is the same single load-and-branch as counters. *)

  let sub_per_octave = 4
  let nbuckets = 4 + (60 * sub_per_octave)

  (* position of the most significant set bit; [msb 4 = 2] *)
  let msb v =
    let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
    go v 0

  let bucket_index v =
    if v < 4 then if v < 0 then 0 else v
    else
      let m = msb v in
      let sub = (v lsr (m - 2)) land 3 in
      let i = 4 + ((m - 2) * sub_per_octave) + sub in
      if i >= nbuckets then nbuckets - 1 else i

  (* inclusive upper bound of bucket [i] — the value reported for any
     quantile that falls in the bucket *)
  let bucket_upper i =
    if i < 4 then i
    else
      let oct = 2 + ((i - 4) / sub_per_octave) in
      let sub = (i - 4) mod sub_per_octave in
      let width = 1 lsl (oct - 2) in
      (1 lsl oct) + ((sub + 1) * width) - 1

  type t = {
    name : string;
    buckets : int Atomic.t array;
    sum : int Atomic.t;
    max : int Atomic.t;
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16

  let make name =
    with_registry @@ fun () ->
    match Hashtbl.find_opt registry name with
    | Some h -> h
    | None ->
        let h =
          {
            name;
            buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
            sum = Atomic.make 0;
            max = Atomic.make 0;
          }
        in
        Hashtbl.add registry name h;
        h

  let rec bump_max cell v =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then bump_max cell v

  let record h v =
    let v = if v < 0 then 0 else v in
    ignore (Atomic.fetch_and_add h.buckets.(bucket_index v) 1);
    ignore (Atomic.fetch_and_add h.sum v);
    bump_max h.max v

  let observe h v = if !enabled_flag then record h v
  let name h = h.name

  (* A snapshot is a plain value: sparse (bucket index, count) pairs in
     ascending index order. The count is the sum of the bucket counts,
     so a quiescent snapshot always agrees with the number of observes
     that landed. *)
  type snap = {
    h_name : string;
    h_count : int;
    h_sum : int;
    h_max : int;  (** 0 when empty *)
    h_buckets : (int * int) list;
  }

  let snapshot h =
    let buckets = ref [] and count = ref 0 in
    for i = nbuckets - 1 downto 0 do
      let c = Atomic.get h.buckets.(i) in
      if c > 0 then begin
        buckets := (i, c) :: !buckets;
        count := !count + c
      end
    done;
    {
      h_name = h.name;
      h_count = !count;
      h_sum = Atomic.get h.sum;
      h_max = Atomic.get h.max;
      h_buckets = !buckets;
    }

  (* merge two sorted sparse bucket lists, summing shared indices —
     associative and commutative, so worker-domain snapshots can be
     folded together in any order *)
  let merge a b =
    let rec go xs ys =
      match (xs, ys) with
      | [], r | r, [] -> r
      | (i, c) :: xs', (j, d) :: ys' ->
          if i = j then (i, c + d) :: go xs' ys'
          else if i < j then (i, c) :: go xs' ys
          else (j, d) :: go xs ys'
    in
    {
      h_name = a.h_name;
      h_count = a.h_count + b.h_count;
      h_sum = a.h_sum + b.h_sum;
      h_max = (if a.h_max >= b.h_max then a.h_max else b.h_max);
      h_buckets = go a.h_buckets b.h_buckets;
    }

  let empty_snap name =
    { h_name = name; h_count = 0; h_sum = 0; h_max = 0; h_buckets = [] }

  (* offline builder for harnesses that already hold raw samples *)
  let of_values ~name values =
    let s =
      List.fold_left
        (fun s v ->
          let v = if v < 0 then 0 else v in
          merge s
            {
              h_name = name;
              h_count = 1;
              h_sum = v;
              h_max = v;
              h_buckets = [ (bucket_index v, 1) ];
            })
        (empty_snap name) values
    in
    s

  (* quantile estimate: the upper bound of the bucket holding the
     rank-[ceil q*count] observation, clamped to the exact max so
     p99 <= max always holds *)
  let quantile s q =
    if s.h_count = 0 then 0
    else
      let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
      let rank =
        let r = int_of_float (ceil (q *. float_of_int s.h_count)) in
        if r < 1 then 1 else if r > s.h_count then s.h_count else r
      in
      let rec go cum = function
        | [] -> s.h_max
        | (i, c) :: rest ->
            let cum = cum + c in
            if cum >= rank then
              let u = bucket_upper i in
              if u > s.h_max then s.h_max else u
            else go cum rest
      in
      go 0 s.h_buckets

  let mean s =
    if s.h_count = 0 then 0.0
    else float_of_int s.h_sum /. float_of_int s.h_count
end

module Span = struct
  (* A completed span; [depth] is the nesting level at entry, recorded so
     textual dumps can indent without re-deriving nesting from times. *)
  type completed = {
    sp_name : string;
    sp_start_us : float;
    sp_dur_us : float;
    sp_depth : int;
    sp_trace : string option;
  }

  type t = {
    name : string;
    start_us : float;
    depth : int;
    live : bool;
    trace : string option;
  }

  (* the journal is shared across domains; [journal_mutex] covers both
     the list and the nesting depth *)
  let completed_rev : completed list ref = ref []
  let completed_count = ref 0
  let cur_depth = ref 0
  let journal_mutex = Mutex.create ()

  (* Journal cap for long-lived processes (the serve daemon): with no
     cap the journal grows one record per span forever. When a cap is
     set, the *newest* [cap] spans are retained — a live stats endpoint
     cares about recent activity — and the trim runs only once the
     journal reaches twice the cap, so it is amortized O(1) per span. *)
  let cap = ref None
  let dropped = ref 0

  let locked f =
    Mutex.lock journal_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock journal_mutex) f

  let disabled =
    { name = ""; start_us = 0.0; depth = 0; live = false; trace = None }

  let enter ?trace name =
    if not !enabled_flag then disabled
    else
      locked @@ fun () ->
      let s =
        { name; start_us = now_us (); depth = !cur_depth; live = true; trace }
      in
      incr cur_depth;
      s

  let exit s =
    if s.live then
      locked @@ fun () ->
      decr cur_depth;
      completed_rev :=
        {
          sp_name = s.name;
          sp_start_us = s.start_us;
          sp_dur_us = now_us () -. s.start_us;
          sp_depth = s.depth;
          sp_trace = s.trace;
        }
        :: !completed_rev;
      incr completed_count;
      match !cap with
      | Some c when !completed_count >= 2 * c ->
          (* newest-first list: keep the first [c] records *)
          completed_rev := List.filteri (fun i _ -> i < c) !completed_rev;
          dropped := !dropped + (!completed_count - c);
          completed_count := c
      | _ -> ()

  (* disabled, a bare call: [Fun.protect] and its closure cost words *)
  let with_ ?trace name f =
    if not !enabled_flag then f ()
    else
      let s = enter ?trace name in
      Fun.protect ~finally:(fun () -> exit s) f

  let cap_setting () = locked @@ fun () -> !cap

  (* completed spans in chronological (entry-order) … exit order is fine
     for trace export, which sorts by timestamp anyway *)
  let completed () = locked @@ fun () -> List.rev !completed_rev

  let set_cap c =
    locked @@ fun () ->
    cap := c;
    match c with
    | Some c when !completed_count > c ->
        completed_rev := List.filteri (fun i _ -> i < c) !completed_rev;
        dropped := !dropped + (!completed_count - c);
        completed_count := c
    | _ -> ()

  let dropped_count () = locked @@ fun () -> !dropped
end

let set_span_cap = Span.set_cap
let spans_dropped = Span.dropped_count
let span_cap = Span.cap_setting

(* -- snapshots ----------------------------------------------------------------- *)

let sorted_bindings registry value =
  Hashtbl.fold (fun name inst acc -> (name, value inst) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters () =
  with_registry (fun () ->
      sorted_bindings Counter.registry (fun c -> Atomic.get c.Counter.value))
  |> List.filter (fun (_, v) -> v > 0)

let gauges () =
  with_registry (fun () ->
      Hashtbl.fold
        (fun name (g : Gauge.t) acc ->
          if Atomic.get g.Gauge.touched then
            (name, Atomic.get g.Gauge.value) :: acc
          else acc)
        Gauge.registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* snapshots of every histogram with at least one observation, by name *)
let histograms () =
  with_registry (fun () ->
      Hashtbl.fold
        (fun _ (h : Histogram.t) acc -> Histogram.snapshot h :: acc)
        Histogram.registry [])
  |> List.filter (fun (s : Histogram.snap) -> s.Histogram.h_count > 0)
  |> List.sort (fun (a : Histogram.snap) b ->
         String.compare a.Histogram.h_name b.Histogram.h_name)

let reset () =
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ (c : Counter.t) -> Atomic.set c.Counter.value 0)
        Counter.registry;
      Hashtbl.iter
        (fun _ (g : Gauge.t) ->
          Atomic.set g.Gauge.value 0;
          Atomic.set g.Gauge.touched false)
        Gauge.registry;
      Hashtbl.iter
        (fun _ (h : Histogram.t) ->
          Array.iter (fun b -> Atomic.set b 0) h.Histogram.buckets;
          Atomic.set h.Histogram.sum 0;
          Atomic.set h.Histogram.max 0)
        Histogram.registry);
  Span.locked (fun () ->
      Span.completed_rev := [];
      Span.completed_count := 0;
      Span.dropped := 0;
      Span.cur_depth := 0)

(* -- JSON rendering ------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let obj_of_bindings bs =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" (json_escape k) v) bs)
  ^ "}"

(* Microsecond quantities are printed with a fixed-point format:
   floating-point notation with an exponent is valid JSON but annoys
   line-oriented consumers. *)
let span_json (s : Span.completed) =
  let trace =
    match s.Span.sp_trace with
    | None -> ""
    | Some t -> Printf.sprintf ",\"trace\":\"%s\"" (json_escape t)
  in
  Printf.sprintf
    "{\"name\":\"%s\",\"start_us\":%.1f,\"dur_us\":%.1f,\"depth\":%d%s}"
    (json_escape s.Span.sp_name) s.Span.sp_start_us s.Span.sp_dur_us
    s.Span.sp_depth trace

(* One histogram snapshot as a JSON object: headline stats plus the
   sparse buckets as [[upper_bound, count], ...]. *)
let histogram_json (s : Histogram.snap) =
  Printf.sprintf
    "{\"count\":%d,\"sum\":%d,\"max\":%d,\"p50\":%d,\"p90\":%d,\"p99\":%d,\"buckets\":[%s]}"
    s.Histogram.h_count s.Histogram.h_sum s.Histogram.h_max
    (Histogram.quantile s 0.5) (Histogram.quantile s 0.9)
    (Histogram.quantile s 0.99)
    (String.concat ","
       (List.map
          (fun (i, c) -> Printf.sprintf "[%d,%d]" (Histogram.bucket_upper i) c)
          s.Histogram.h_buckets))

let metrics_json () =
  let hists =
    histograms ()
    |> List.map (fun (s : Histogram.snap) ->
           Printf.sprintf "\"%s\":%s"
             (json_escape s.Histogram.h_name)
             (histogram_json s))
    |> String.concat ","
  in
  Printf.sprintf
    "{\"counters\":%s,\"gauges\":%s,\"histograms\":{%s},\"spans_dropped\":%d,\"span_cap\":%s,\"spans\":[%s]}"
    (obj_of_bindings (counters ()))
    (obj_of_bindings (gauges ()))
    hists (spans_dropped ())
    (match span_cap () with Some c -> string_of_int c | None -> "null")
    (String.concat "," (List.map span_json (Span.completed ())))

(* -- Prometheus text exposition -------------------------------------------------

   The standard text format scrapers ingest: one [# TYPE] line per
   metric followed by its samples. Instrument names use '.' as a
   namespace separator; Prometheus only allows [a-zA-Z0-9_:], so dots
   (and any other illegal character) become underscores and everything
   is prefixed [deadmem_]. Histogram buckets are rendered cumulatively
   with integer [le] upper bounds (values are microseconds). *)

let prometheus_name s =
  let b = Bytes.of_string s in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> Bytes.set b i '_')
    b;
  "deadmem_" ^ Bytes.to_string b

let prometheus_text () =
  let buf = Buffer.create 1024 in
  let sample ty name v =
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n%s %d\n" name ty name v)
  in
  List.iter (fun (n, v) -> sample "counter" (prometheus_name n) v) (counters ());
  List.iter (fun (n, v) -> sample "gauge" (prometheus_name n) v) (gauges ());
  sample "counter" "deadmem_spans_dropped" (spans_dropped ());
  List.iter
    (fun (s : Histogram.snap) ->
      let name = prometheus_name s.Histogram.h_name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name);
      let cum = ref 0 in
      List.iter
        (fun (i, c) ->
          cum := !cum + c;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" name
               (Histogram.bucket_upper i)
               !cum))
        s.Histogram.h_buckets;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name s.Histogram.h_count);
      Buffer.add_string buf
        (Printf.sprintf "%s_sum %d\n" name s.Histogram.h_sum);
      Buffer.add_string buf
        (Printf.sprintf "%s_count %d\n" name s.Histogram.h_count))
    (histograms ());
  Buffer.contents buf

(* Chrome trace-event format, JSON-array flavour: one complete ("X")
   event per span. chrome://tracing and https://ui.perfetto.dev load
   this directly. *)
let trace_json () =
  let events =
    List.map
      (fun (s : Span.completed) ->
        Printf.sprintf
          "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":1,\"tid\":1}"
          (json_escape s.Span.sp_name) s.Span.sp_start_us s.Span.sp_dur_us)
      (Span.completed ())
  in
  "[" ^ String.concat ",\n " events ^ "]\n"

(* -- minimal JSON reader -------------------------------------------------------

   Just enough of RFC 8259 to validate and round-trip the two documents
   this module emits (and the CLI's other JSON outputs, in tests). Not a
   general-purpose parser: rejects trailing garbage, accepts any numeric
   syntax OCaml's [float_of_string] accepts after basic shape checks. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse ?max_depth (input : string) : (t, string) Stdlib.result =
    let n = String.length input in
    let depth_cap = match max_depth with Some d -> d | None -> max_int in
    let pos = ref 0 in
    let peek () = if !pos < n then Some input.[!pos] else None in
    let advance () = Stdlib.incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word value =
      let m = String.length word in
      if !pos + m <= n && String.sub input !pos m = word then begin
        pos := !pos + m;
        value
      end
      else fail (Printf.sprintf "expected '%s'" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | None -> fail "unterminated escape"
            | Some c ->
                advance ();
                (match c with
                | '"' -> Buffer.add_char buf '"'
                | '\\' -> Buffer.add_char buf '\\'
                | '/' -> Buffer.add_char buf '/'
                | 'n' -> Buffer.add_char buf '\n'
                | 'r' -> Buffer.add_char buf '\r'
                | 't' -> Buffer.add_char buf '\t'
                | 'b' -> Buffer.add_char buf '\b'
                | 'f' -> Buffer.add_char buf '\012'
                | 'u' ->
                    if !pos + 4 > n then fail "truncated \\u escape";
                    let hex = String.sub input !pos 4 in
                    pos := !pos + 4;
                    let code =
                      try int_of_string ("0x" ^ hex)
                      with _ -> fail "bad \\u escape"
                    in
                    (* no surrogate-pair handling: emitters here only
                       \u-escape control characters *)
                    if code < 0x80 then Buffer.add_char buf (Char.chr code)
                    else Buffer.add_string buf (Printf.sprintf "\\u%s" hex)
                | _ -> fail "unknown escape");
                go ())
        | Some c ->
            advance ();
            Buffer.add_char buf c;
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let numchar = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> numchar c | None -> false) do
        advance ()
      done;
      if !pos = start then fail "expected a number";
      match float_of_string_opt (String.sub input start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
    in
    let rec parse_value depth =
      if depth > depth_cap then fail "nesting too deep";
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else
            let rec members acc =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value (depth + 1) in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((key, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((key, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else
            let rec elements acc =
              let v = parse_value (depth + 1) in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elements []
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  let member key = function
    | Obj bs -> List.assoc_opt key bs
    | _ -> None

  (* [int_of_float] is unspecified outside [min_int, max_int], and
     above 2^53 a float no longer represents every integer — so only
     integral values within +-2^53 convert; anything else is None. *)
  let max_exact_int = 9007199254740992. (* 2^53 *)

  let to_int = function
    | Num f when Float.is_integer f && Float.abs f <= max_exact_int ->
        Some (int_of_float f)
    | _ -> None

  let to_string = function Str s -> Some s | _ -> None
  let to_list = function Arr l -> Some l | _ -> None
end
