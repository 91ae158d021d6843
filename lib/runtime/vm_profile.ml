(* VM hot-site profiler: raw per-site counters plus the aggregated
   report. This module owns the *data*; [Bytecode] fills the counters
   (it owns the dispatch loop) and builds the report (it alone can name
   opcodes and recognise branch instructions).

   The raw state is deliberately dumb: one [int array] per compiled
   body indexed by pc, and one per-function call counter, all bumped
   with plain unsynchronised stores. A profiled VM runs on one domain,
   so the stores need no atomics; the arrays are preallocated so the
   hot path is an [unsafe_get]/[unsafe_set] pair. *)

type t = {
  body_counts : int array array;  (* by body id, then by pc *)
  call_counts : int array;  (* by function index *)
}

let create ~body_sizes ~nfuncs =
  {
    body_counts = Array.map (fun n -> Array.make (max n 0) 0) body_sizes;
    call_counts = Array.make (max nfuncs 0) 0;
  }

(* -- aggregated report --------------------------------------------------------- *)

type func_row = {
  fr_name : string;
  fr_instrs : int;  (* dispatches attributed to this body *)
  fr_calls : int;  (* entries: calls, plus constructor runs (0 for dtor/global bodies) *)
}

type site_row = {
  sr_func : string;
  sr_pc : int;
  sr_op : string;  (* opcode mnemonic at the site *)
  sr_count : int;
}

type report = {
  r_steps : int;  (* the interpreter's statement-step counter *)
  r_dispatches : int;  (* total recorded dispatches across all bodies *)
  r_typed : int;  (* dispatches of typed (untagged-stack) opcodes *)
  r_opcodes : (string * int) list;  (* per-opcode counts, descending *)
  r_functions : func_row list;  (* per-body counts, descending by instrs *)
  r_sites : site_row list;  (* back-branch (loop) sites, descending *)
}

(* -- rendering ------------------------------------------------------------------ *)

let take n l =
  let rec go n = function
    | x :: rest when n > 0 -> x :: go (n - 1) rest
    | _ -> []
  in
  go n l

let to_text ?(top = 20) (r : report) : string =
  let buf = Buffer.create 1024 in
  let pct n =
    if r.r_dispatches = 0 then 0.0
    else 100.0 *. float_of_int n /. float_of_int r.r_dispatches
  in
  Buffer.add_string buf
    (Printf.sprintf "steps: %d\ndispatches: %d\n" r.r_steps r.r_dispatches);
  Buffer.add_string buf
    (Printf.sprintf "dispatch mix: typed %d (%.1f%%) / generic %d (%.1f%%)\n"
       r.r_typed (pct r.r_typed)
       (r.r_dispatches - r.r_typed)
       (pct (r.r_dispatches - r.r_typed)));
  Buffer.add_string buf (Printf.sprintf "\nhot opcodes (top %d):\n" top);
  List.iter
    (fun (op, n) ->
      Buffer.add_string buf (Printf.sprintf "  %-28s %12d  %5.1f%%\n" op n (pct n)))
    (take top r.r_opcodes);
  Buffer.add_string buf (Printf.sprintf "\nhot functions (top %d):\n" top);
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "  %-28s %12d instrs %10d calls  %5.1f%%\n" f.fr_name
           f.fr_instrs f.fr_calls (pct f.fr_instrs)))
    (take top r.r_functions);
  Buffer.add_string buf (Printf.sprintf "\nhot loops (top %d back-branch sites):\n" top);
  if r.r_sites = [] then Buffer.add_string buf "  (none)\n"
  else
    List.iter
      (fun s ->
        Buffer.add_string buf
          (Printf.sprintf "  %-28s pc %-5d %-28s %12d\n" s.sr_func s.sr_pc s.sr_op
             s.sr_count))
      (take top r.r_sites);
  Buffer.contents buf

let to_json (r : report) : string =
  let esc = Telemetry.json_escape in
  let opcodes =
    List.map (fun (op, n) -> Printf.sprintf "{\"op\":\"%s\",\"count\":%d}" (esc op) n)
      r.r_opcodes
  in
  let funcs =
    List.map
      (fun f ->
        Printf.sprintf "{\"name\":\"%s\",\"instrs\":%d,\"calls\":%d}"
          (esc f.fr_name) f.fr_instrs f.fr_calls)
      r.r_functions
  in
  let sites =
    List.map
      (fun s ->
        Printf.sprintf "{\"func\":\"%s\",\"pc\":%d,\"op\":\"%s\",\"count\":%d}"
          (esc s.sr_func) s.sr_pc (esc s.sr_op) s.sr_count)
      r.r_sites
  in
  Printf.sprintf
    "{\"steps\":%d,\"dispatches\":%d,\"typed_dispatches\":%d,\"generic_dispatches\":%d,\"opcodes\":[%s],\"functions\":[%s],\"hot_sites\":[%s]}"
    r.r_steps r.r_dispatches r.r_typed
    (r.r_dispatches - r.r_typed)
    (String.concat "," opcodes)
    (String.concat "," funcs)
    (String.concat "," sites)
