(* Oracles over generated programs ([Gen_mcc]). Every program must
   type-check, and then:

   (a) the tree walker and the VM show the same run: output, exit code,
       steps, allocations and the space snapshot (measured with the
       paper's dead set), and the same outcome and steps when the step
       limit cuts the run short;
   (b) the dead sets nest, dead(CHA) ⊆ dead(RTA) ⊆ dead(PTA) ⊆ dead(PTA1);
   (d) printing is a fixpoint, and the printed source runs like the
       original.
   ((c), the reference points-to solver, runs in [test_pta_scale.ml].)

   [properties] checks the paper's claims on the same programs: under
   every tier the members [main] reads are live, while the members no
   code names and the write-only members are dead; the source
   [Eliminate.strip_to_source] prints runs like the original; and dead
   space stays within the object space, the reduced high-water mark at
   or under the real one. The bytecode and typed_slots suites run (a)
   on [Gen_mcc.focused] programs.

   Each test draws the same programs for a given QCHECK_SEED, so a
   failing seed replays with
   [QCHECK_SEED=n dune exec test/test_main.exe -- test 'generated|properties']. *)

open QCheck2

(* a backstop only: generated programs terminate by construction *)
let step_limit = 1_000_000

let check src =
  match Util.check_source src with
  | prog -> prog
  | exception Frontend.Source.Compile_error d ->
      Test.fail_reportf "does not type-check: %s" d.Frontend.Source.message

let dead_set tier prog =
  Deadmem.Liveness.dead_set
    (Deadmem.Liveness.analyze ~config:(Deadmem.Config.make tier) prog)

let tiers = Callgraph.[ Cha; Rta; Pta; Pta1 ]
let name = Callgraph.algorithm_to_string

let oracle ?(gen = Gen_mcc.gen) name ~count prop =
  QCheck_alcotest.to_alcotest
    (Test.make ~name ~count ~print:Gen_mcc.render gen (fun t ->
         prop t (Gen_mcc.render t);
         true))

(* (a) on [gen]'s programs, then again with the step limit one step
   short of the run and at a limit inside it drawn from the source: both
   engines must stop at the same tick with the same outcome. *)
let engines_agree ?gen name ~count =
  oracle ?gen name ~count (fun _ src ->
      let prog = check src in
      let dead = dead_set Callgraph.Rta prog in
      let tree, vm = Util.tree_and_vm ~dead ~step_limit prog in
      Option.iter (Test.fail_reportf "(a) tree walker vs VM: %s")
        (Util.difference tree vm);
      Result.iter_error (Test.fail_reportf "(a) the run failed: %s") tree.result;
      if tree.steps > 1 then
        List.iter
          (fun limit ->
            let tree, vm = Util.tree_and_vm ~dead ~step_limit:limit prog in
            if Util.shown tree <> Util.shown vm || tree.steps <> vm.steps then
              Test.fail_reportf
                "(a) at step limit %d: tree walker %S after %d steps, VM %S \
                 after %d"
                limit (Util.shown tree) tree.steps (Util.shown vm) vm.steps)
          [ tree.steps - 1; 1 + (Hashtbl.hash src mod (tree.steps - 1)) ])

let chain =
  oracle "(b) dead sets nest across tiers" ~count:250 (fun _ src ->
      let prog = check src in
      let rec chain = function
        | (lo, a) :: ((hi, b) :: _ as rest) ->
            if not (Sema.Member.Set.subset a b) then
              Test.fail_reportf "(b) dead(%s) is not within dead(%s)" (name lo)
                (name hi);
            chain rest
        | _ -> ()
      in
      chain (List.map (fun tier -> (tier, dead_set tier prog)) tiers))

(* The members [select] picks from a program's facts are dead (or live)
   under every tier. *)
let fact what ~dead select =
  oracle what ~count:120 (fun t src ->
      let prog = check src in
      List.iter
        (fun tier ->
          let d = dead_set tier prog in
          List.iter
            (fun m ->
              if Sema.Member.Set.mem m d <> dead then
                Test.fail_reportf "%s: %s is %s" (name tier)
                  (Sema.Member.to_string m)
                  (if dead then "live" else "dead"))
            (select (Gen_mcc.facts t)))
        tiers)

let shown s = Util.shown (Util.observe ~step_limit (check s))

let runs_like ~original what s =
  let got = shown s and want = shown original in
  if got <> want then
    Test.fail_reportf "%s source shows %S, the original %S:\n%s" what got want s

let printing =
  oracle "(d) print fixpoint and rerun" ~count:150 (fun _ src ->
      let print s = Frontend.Ast_printer.program_to_string (Util.parse s) in
      let s1 = print src in
      if print s1 <> s1 then Test.fail_reportf "(d) print(parse s1) <> s1:\n%s" s1;
      runs_like ~original:src "(d) printed" s1)

(* The generator's scan loops reach the VM as [ILoopScan], and its
   pointer tests as [==]/[!=] on objects and [NULL], so (a) checks the
   VM's pointer comparisons on generated programs and not only on sched.
   A fixed draw, whatever QCHECK_SEED says. *)
let t_scans_fuse () =
  let rand = Random.State.make [| 1 |] in
  let progs =
    List.map Gen_mcc.render (Gen.generate ~rand ~n:60 Gen_mcc.gen)
  in
  let scans =
    List.filter
      (fun src ->
        let _, r = Runtime.Interp.run_profiled (Util.check_source src) in
        List.mem_assoc "ILoopScan" r.Runtime.Vm_profile.r_opcodes)
      progs
  in
  Util.check_bool
    (Printf.sprintf "%d of 60 programs dispatch ILoopScan" (List.length scans))
    true
    (List.length scans >= 6);
  List.iter
    (fun sub ->
      Util.check_bool (sub ^ " is generated") true
        (List.exists (Util.contains_sub ~sub) progs))
    [ " == NULL)"; "(NULL "; " != p)"; " == p->next)" ]

let suite =
  [
    engines_agree "(a) tree walker and VM agree" ~count:250;
    chain;
    printing;
    Util.test "scan loops and pointer tests reach the VM" t_scans_fuse;
  ]

let properties =
  [
    fact "liveness: read or address-taken members are live" ~dead:false
      (fun f -> f.read_in_main);
    fact "liveness: never-accessed members are dead" ~dead:true (fun f ->
        f.never_named);
    fact "liveness: write-only members are dead" ~dead:true (fun f ->
        f.write_only);
    oracle "eliminate: stripping preserves behaviour" ~count:80 (fun _ src ->
        Deadmem.Eliminate.strip_to_source ~source:src ~file:"gen.mcc" ()
        |> fst |> runs_like ~original:src "stripped");
    oracle "profile: dead space never exceeds object space" ~count:80
      (fun _ src ->
        let prog = check src in
        let dead = dead_set Callgraph.Rta prog in
        match (Util.observe ~dead ~step_limit prog).result with
        | Error e -> Test.fail_reportf "the run failed: %s" e
        | Ok { snapshot = s; _ } ->
            if s.dead_space > s.object_space then
              Test.fail_reportf "dead space %d > object space %d" s.dead_space
                s.object_space;
            if s.high_water_mark_reduced > s.high_water_mark then
              Test.fail_reportf "reduced HWM %d > HWM %d"
                s.high_water_mark_reduced s.high_water_mark);
  ]
