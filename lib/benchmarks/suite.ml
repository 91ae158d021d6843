(* The benchmark suite: MiniC++ ports of the paper's 11 benchmark
   programs (Table 1). Each entry carries the program source, the Table-1
   metadata, and the qualitative expectations the paper reports, which the
   test suite asserts. *)

open Sema

type expectation = {
  (* Figure 3: expected band of the static dead-member percentage *)
  exp_dead_pct_min : float;
  exp_dead_pct_max : float;
  (* Table 2 shape: does the program hold (nearly) all objects to the end,
     making the high-water mark (almost) equal to total object space? *)
  exp_hwm_equals_total : bool;
  (* Figure 4, light bar band: % of object space occupied by dead members *)
  exp_dead_space_pct_min : float;
  exp_dead_space_pct_max : float;
}

type t = {
  name : string;
  description : string;
  source : string;
  uses_class_library : bool;  (* taldict/simulate/hotwire in the paper *)
  expect : expectation;
}

let mk name description ~library ~dead_pct:(dmin, dmax) ~hwm_eq
    ~dead_space:(smin, smax) source =
  {
    name;
    description;
    source;
    uses_class_library = library;
    expect =
      {
        exp_dead_pct_min = dmin;
        exp_dead_pct_max = dmax;
        exp_hwm_equals_total = hwm_eq;
        exp_dead_space_pct_min = smin;
        exp_dead_space_pct_max = smax;
      };
  }

let richards =
  mk Bench_richards.name Bench_richards.description ~library:false
    ~dead_pct:(0.0, 0.0) ~hwm_eq:true ~dead_space:(0.0, 0.0)
    Bench_richards.source

let deltablue =
  mk Bench_deltablue.name Bench_deltablue.description ~library:false
    ~dead_pct:(0.0, 0.0) ~hwm_eq:false ~dead_space:(0.0, 0.0)
    Bench_deltablue.source

let taldict =
  mk Bench_taldict.name Bench_taldict.description ~library:true
    ~dead_pct:(24.0, 31.0) ~hwm_eq:true ~dead_space:(0.0, 6.0)
    Bench_taldict.source

let simulate =
  mk Bench_simulate.name Bench_simulate.description ~library:true
    ~dead_pct:(22.0, 30.0) ~hwm_eq:false ~dead_space:(0.0, 6.0)
    Bench_simulate.source

let hotwire =
  mk Bench_hotwire.name Bench_hotwire.description ~library:true
    ~dead_pct:(16.0, 28.0) ~hwm_eq:true ~dead_space:(0.0, 8.0)
    Bench_hotwire.source

let sched =
  mk Bench_sched.name Bench_sched.description ~library:false
    ~dead_pct:(8.0, 14.0) ~hwm_eq:true ~dead_space:(7.0, 14.0)
    Bench_sched.source

let lcom =
  mk Bench_lcom.name Bench_lcom.description ~library:false
    ~dead_pct:(8.0, 15.0) ~hwm_eq:false ~dead_space:(5.0, 22.0)
    Bench_lcom.source

let ixx =
  mk Bench_ixx.name Bench_ixx.description ~library:false
    ~dead_pct:(8.0, 17.0) ~hwm_eq:false ~dead_space:(1.0, 12.0)
    Bench_ixx.source

let npic =
  mk Bench_npic.name Bench_npic.description ~library:false
    ~dead_pct:(7.0, 14.0) ~hwm_eq:false ~dead_space:(1.0, 8.0)
    Bench_npic.source

let idl =
  mk Bench_idl.name Bench_idl.description ~library:false
    ~dead_pct:(2.0, 7.0) ~hwm_eq:true ~dead_space:(0.0, 6.0)
    Bench_idl.source

let jikes =
  mk Bench_jikes.name Bench_jikes.description ~library:false
    ~dead_pct:(8.0, 14.0) ~hwm_eq:false ~dead_space:(1.0, 14.0)
    Bench_jikes.source

(* Table 1 order. *)
let all : t list =
  [
    jikes; idl; npic; lcom; taldict; ixx; simulate; sched; hotwire;
    deltablue; richards;
  ]

let find name = List.find_opt (fun b -> b.name = name) all

let find_exn name =
  match find name with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "unknown benchmark '%s'" name)

(* Lines of code (Table 1, column 3). *)
let loc b = Frontend.Lexer.count_code_lines b.source

(* Parse and type check the benchmark: a fresh typed program per call. *)
let program b : Typed_ast.program =
  Type_check.check_source ~file:(b.name ^ ".mcc") b.source
