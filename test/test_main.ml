(* Test runner: one Alcotest suite per library module group. *)

let () =
  Alcotest.run "deadmem"
    [
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("sema", Test_sema.suite);
      ("layout", Test_layout.suite);
      ("callgraph", Test_callgraph.suite);
      ("liveness", Test_liveness.suite);
      ("interp", Test_interp.suite);
      ("resolve", Test_resolve.suite);
      ("bytecode", Test_bytecode.suite);
      ("typed_slots", Test_typed_slots.suite);
      ("profile", Test_profile.suite);
      ("vm_profile", Test_vm_profile.suite);
      ("alloc", Test_alloc.suite);
      ("benchmarks", Test_benchmarks.suite);
      ("eliminate", Test_eliminate.suite);
      ("properties", Test_generated.properties);
      ("generated", Test_generated.suite);
      ("edge", Test_edge.suite);
      ("robustness", Test_robustness.suite);
      ("telemetry", Test_telemetry.suite);
      ("pta", Test_pta.suite);
      ("pta_scale", Test_pta_scale.suite);
      ("server", Test_server.suite);
      ("cli", Test_cli.suite);
    ]
