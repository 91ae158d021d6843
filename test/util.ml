(* Shared helpers for the test suites. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let parse src = Frontend.Parser.parse_string src
let check_source src = Sema.Type_check.check_source src

let analyze ?(config = Deadmem.Config.paper) src =
  let prog = check_source src in
  (prog, Deadmem.Liveness.analyze ~config prog)

let run ?dead src =
  let prog = check_source src in
  Runtime.Interp.run ?dead prog

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then false
    else if String.sub s i m = sub then true
    else go (i + 1)
  in
  m = 0 || go 0

(* Expect a compile-time diagnostic whose message contains [substr]. *)
let expect_error ~substr f =
  match f () with
  | exception Frontend.Source.Compile_error d ->
      let msg = d.Frontend.Source.message in
      if not (contains_sub ~sub:substr msg) then
        Alcotest.failf "error %S does not mention %S" msg substr
  | _ -> Alcotest.failf "expected a compile error mentioning %S" substr

let dead_names result =
  Deadmem.Liveness.dead_members result
  |> List.map Sema.Member.to_string
  |> List.sort compare

let live_names result =
  Deadmem.Liveness.live_members result
  |> List.map Sema.Member.to_string
  |> List.sort compare

let check_dead result expected =
  Alcotest.(check (list string)) "dead members" (List.sort compare expected)
    (dead_names result)

let is_dead result cls name =
  Deadmem.Liveness.is_dead result (cls, name)

let test name f = Alcotest.test_case name `Quick f

(* -- engine differential ---------------------------------------------------- *)

let steps_counter = Telemetry.Counter.make "interp.steps"
let allocs_counter = Telemetry.Counter.make "interp.allocations"

let rec describe_exn = function
  | Runtime.Value.Runtime_error m -> "runtime error: " ^ m
  | Runtime.Value.Limit_exceeded m -> "resource limit: " ^ m
  | Fun.Finally_raised e -> "raised while unwinding: " ^ describe_exn e
  | e -> raise e

(* What a run shows: its outcome or the error that stopped it (a failed
   run's output is returned by neither engine), plus the steps and
   allocations it took, which the engines count even when a run fails. *)
type observed = {
  result : (Runtime.Interp.outcome, string) result;
  steps : int;
  allocations : int;
}

let observe ?engine ?dead ?step_limit ?lowered prog =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  let s0 = Telemetry.Counter.value steps_counter
  and a0 = Telemetry.Counter.value allocs_counter in
  let result =
    Fun.protect
      ~finally:(fun () -> Telemetry.set_enabled was)
      (fun () ->
        match Runtime.Interp.run ?engine ?dead ?step_limit ?lowered prog with
        | o -> Ok o
        | exception e -> Error (describe_exn e))
  in
  {
    result;
    steps = Telemetry.Counter.value steps_counter - s0;
    allocations = Telemetry.Counter.value allocs_counter - a0;
  }

(* Exit code and output, or the error text. *)
let shown o =
  match o.result with
  | Ok r -> Printf.sprintf "exit %d\n%s" r.return_value r.output
  | Error e -> e

(* The first way two observations differ, if they do. *)
let difference a b =
  let brief s =
    if String.length s <= 400 then Printf.sprintf "%S" s
    else "md5 " ^ Digest.to_hex (Digest.string s)
  in
  if shown a <> shown b then
    Some (Printf.sprintf "outcome %s vs %s" (brief (shown a)) (brief (shown b)))
  else if a.steps <> b.steps then
    Some (Printf.sprintf "steps %d vs %d" a.steps b.steps)
  else if a.allocations <> b.allocations then
    Some (Printf.sprintf "allocations %d vs %d" a.allocations b.allocations)
  else
    match (a.result, b.result) with
    | Ok x, Ok y when x.snapshot <> y.snapshot ->
        Some
          (Format.asprintf "snapshot %a vs %a" Runtime.Profile.pp_snapshot
             x.snapshot Runtime.Profile.pp_snapshot y.snapshot)
    | _ -> None

let tree_and_vm ?dead ?step_limit prog =
  ( observe ~engine:Runtime.Interp.Tree ?dead ?step_limit prog,
    observe ~engine:Runtime.Interp.Bytecode ?dead ?step_limit prog )

(* Fail unless the tree walker and the VM show the same run; return the
   tree walker's observation. *)
let engines_agree ?dead ?step_limit name prog =
  let tree, vm = tree_and_vm ?dead ?step_limit prog in
  Option.iter
    (fun d -> Alcotest.failf "%s: tree walker and VM differ: %s" name d)
    (difference tree vm);
  tree
