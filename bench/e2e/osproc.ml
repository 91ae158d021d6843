(* Clock, files, child processes and peak memory, as the benchmark sees
   them from outside the program under test. *)

(* Seconds on the monotonic clock. *)
external now : unit -> (float[@unboxed]) = "bench_now_byte" "bench_now"
[@@noalloc]

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> 128 + abs s
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

(* Direct children of [pid], from /proc (empty where unavailable). *)
let children pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/task/%d/children" pid pid) In_channel.input_all with
  | text -> List.filter_map int_of_string_opt (String.split_on_char ' ' (String.trim text))
  | exception Sys_error _ -> []

(* Like [wait], but gives up after [timeout] seconds: the child and its
   own children are then killed and reaped, so no process outlives the
   benchmark. *)
let wait_timeout pid ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ ->
        List.iter
          (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
          (children pid @ [ pid ]);
        wait pid
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> 128 + abs s
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* VmHWM of this process, in KiB (0 where /proc is unavailable). *)
let self_hwm_kib () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" Fun.id
        | _ -> go ()
      in
      go ()

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let append_line path line =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644 path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc (line ^ "\n"))

let read_fd fd =
  let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0

(* Run [argv] to completion with stdin on /dev/null and stderr on
   [stderr] (default /dev/null): (exit code, stdout). *)
let run_capture ?stderr argv =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = devnull () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close w; Unix.close null) (fun () ->
        Unix.create_process argv.(0) argv null w (Option.value stderr ~default:null))
  in
  let out = Fun.protect ~finally:(fun () -> Unix.close r) (fun () -> read_fd r) in
  (wait pid, out)

(* Start [argv] in the background with stdin and stdout on /dev/null
   and stderr appended to [stderr_file] (or /dev/null). *)
let spawn ?stderr_file argv =
  let null = devnull () in
  let err =
    Option.map
      (fun f -> Unix.openfile f [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644)
      stderr_file
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close null;
      Option.iter Unix.close err)
    (fun () -> Unix.create_process argv.(0) argv null null (Option.value err ~default:null))

(* Peak memory of a child: [argv] prefixed to run under rss_probe (built
   next to this executable), which writes the peak to [report]. *)
let under_rss_probe ~report argv =
  Array.append
    [| Filename.concat (Filename.dirname Sys.executable_name) "rss_probe"; report |]
    argv

let read_rss_kib report =
  match read_file report with
  | text -> Option.value (int_of_string_opt (String.trim text)) ~default:0
  | exception Sys_error _ -> 0
