(* The expected-output oracle. Every op of every workload is checked
   against an answer fixed here, never against the program under test.

   - Paper ports: the golden rows of the pre-slotting tree-walking
     interpreter (copied from the test suite's goldens; a change that
     alters any of them changes observable behaviour).
   - Synth programs: the generator's shape fixes the answer. Every
     [Node<k>::pad<k>] is written by its constructor and never read, so
     it is dead; [Node::tag] is read by [id()] and [Node::next] is read
     by the field traffic, so both are live. The dead set is therefore
     exactly [{Node<k>::pad<k> | k < classes}]. *)

type golden = {
  name : string;
  return : int;
  output_md5 : string;
  output_len : int;
  steps : int;
  allocations : int;
  object_space : int;
  dead_space : int;
  hwm : int;
  hwm_reduced : int;
  num_objects : int;
  scalar_bytes : int;
  leaked : int;
  dead_members : string list;
}

let goldens = [
  { name = "jikes"; return = 0; output_md5 = "c0015d5caa4c990898d6b26be24c8cd5"; output_len = 66;
    steps = 459845; allocations = 6583; object_space = 122716; dead_space = 1784;
    hwm = 74728; hwm_reduced = 71184; num_objects = 6583; scalar_bytes = 0; leaked = 2583;
    dead_members = ["AstField::javadoc_ref"; "AstMethod::line_table_ref"; "JLexer::deprecated_count"; "JParser::n_errors"; "SymbolTable::n_probes"] };
  { name = "idl"; return = 0; output_md5 = "f6a941bed0551bcce0dc8c67287502ab"; output_len = 50;
    steps = 26115; allocations = 695; object_space = 50680; dead_space = 2776;
    hwm = 50680; hwm_reduced = 50680; num_objects = 695; scalar_bytes = 0; leaked = 695;
    dead_members = ["IRObject::repo_tag"] };
  { name = "npic"; return = 0; output_md5 = "2a28e2493d2c4f889b24c25ad58918b3"; output_len = 23;
    steps = 967396; allocations = 7027; object_space = 120632; dead_space = 4100;
    hwm = 27032; hwm_reduced = 22928; num_objects = 7027; scalar_bytes = 8192; leaked = 0;
    dead_members = ["Cell::debug_flux"; "FieldSolver::spectral_modes"] };
  { name = "lcom"; return = 0; output_md5 = "6b37275baf6db123d4e6b8b98c3a8fe2"; output_len = 29;
    steps = 61204; allocations = 2139; object_space = 47976; dead_space = 3380;
    hwm = 29704; hwm_reduced = 22952; num_objects = 2139; scalar_bytes = 64; leaked = 1;
    dead_members = ["Expr::type_cache"; "Lexer::pushback"; "SymTab::hits"; "VM::trace_pc"] };
  { name = "taldict"; return = 0; output_md5 = "210c527b4fe8ccaf8665898571fc8c21"; output_len = 45;
    steps = 18454; allocations = 40; object_space = 1048; dead_space = 32;
    hwm = 1048; hwm_reduced = 1016; num_objects = 40; scalar_bytes = 128; leaked = 0;
    dead_members = ["Histogram::last_update"; "TDictIterator::seen"; "TDictStats::avg_chain_x100"; "TDictStats::dict"; "TDictStats::max_chain"; "TDictStats::min_chain"; "TDictionary::load_pct"; "TDictionary::mod_count"; "TDictionary::stat_collisions"; "TObject::refcount"; "TSortedDictionary::cmp_mode"; "TSortedDictionary::sorted"] };
  { name = "ixx"; return = 0; output_md5 = "e7697fa37da6064b018b04f58c20d209"; output_len = 41;
    steps = 49278; allocations = 1952; object_space = 46504; dead_space = 4932;
    hwm = 37272; hwm_reduced = 30912; num_objects = 1952; scalar_bytes = 0; leaked = 0;
    dead_members = ["Decl::repo_version"; "OpDecl::context_id"; "Scanner::include_depth"] };
  { name = "simulate"; return = 0; output_md5 = "465c626a6a7dddcbe172040e646f20e6"; output_len = 50;
    steps = 174307; allocations = 4153; object_space = 99692; dead_space = 28;
    hwm = 3212; hwm_reduced = 3188; num_objects = 4153; scalar_bytes = 0; leaked = 125;
    dead_members = ["RandomStream::antithetic"; "RandomStream::stream_id"; "SimCalendar::max_length"; "SimCalendar::trace_level"; "SimMonitor::enabled"; "SimMonitor::event_mask"; "SimResource::capacity"; "SimResource::in_use"; "SimResource::queue_len"; "StatCounter::batch_size"; "StatCounter::sum_sq"] };
  { name = "sched"; return = 0; output_md5 = "f8e290b1815bd26b1db7ae0712bd9403"; output_len = 31;
    steps = 2161560; allocations = 19096; object_space = 732872; dead_space = 80352;
    hwm = 732872; hwm_reduced = 652520; num_objects = 19096; scalar_bytes = 80096; leaked = 19096;
    dead_members = ["Insn::debug_line"; "Insn::profile_count"; "RegInfo::coalesce_hint"; "RegInfo::spill_cost"] };
  { name = "hotwire"; return = 0; output_md5 = "8f02f0b1788b5220e0b4ea9e280068e0"; output_len = 27;
    steps = 2423; allocations = 105; object_space = 4760; dead_space = 88;
    hwm = 4760; hwm_reduced = 4720; num_objects = 105; scalar_bytes = 0; leaked = 105;
    dead_members = ["Chart::legend_pos"; "Chart::n_series"; "Image::pixels"; "Image::scale_pct"; "Renderer::aa_level"; "Renderer::clip_x"; "Renderer::clip_y"; "Renderer::hit_test_slop"; "Slide::transition"; "Style::cache_key"; "Style::dirty"] };
  { name = "deltablue"; return = 0; output_md5 = "a1ac9f890043cccade005899ab296adf"; output_len = 27;
    steps = 22047; allocations = 49; object_space = 3672; dead_space = 0;
    hwm = 3384; hwm_reduced = 3384; num_objects = 49; scalar_bytes = 0; leaked = 5;
    dead_members = [] };
  { name = "richards"; return = 0; output_md5 = "fb2df8c1a1a9272bdc14c9dd2c198d61"; output_len = 31;
    steps = 61628; allocations = 196; object_space = 7992; dead_space = 0;
    hwm = 7992; hwm_reduced = 7992; num_objects = 196; scalar_bytes = 0; leaked = 189;
    dead_members = [] };
]

let find name =
  match List.find_opt (fun g -> g.name = name) goldens with
  | Some g -> g
  | None -> failwith ("no golden row for " ^ name)

(* An observed run, from whichever surface produced it. [allocations]
   is [None] where the surface does not report it separately. *)
type run = {
  r_return : int;
  r_output : string;
  r_steps : int;
  r_allocations : int option;
  r_object_space : int;
  r_dead_space : int;
  r_hwm : int;
  r_hwm_reduced : int;
  r_num_objects : int;
  r_scalar_bytes : int;
  r_leaked : int;
}

let of_snapshot ~return ~output ~steps ?allocations (s : Runtime.Profile.snapshot) =
  {
    r_return = return;
    r_output = output;
    r_steps = steps;
    r_allocations = allocations;
    r_object_space = s.object_space;
    r_dead_space = s.dead_space;
    r_hwm = s.high_water_mark;
    r_hwm_reduced = s.high_water_mark_reduced;
    r_num_objects = s.num_objects;
    r_scalar_bytes = s.scalar_bytes;
    r_leaked = s.leaked_objects;
  }

(* [Ok ()] or the first field that differs. *)
let check_run g r =
  let fields =
    [
      ("return value", g.return, r.r_return);
      ("output length", g.output_len, String.length r.r_output);
      ("steps", g.steps, r.r_steps);
      ("allocations", g.allocations, Option.value r.r_allocations ~default:g.allocations);
      ("object space", g.object_space, r.r_object_space);
      ("dead space", g.dead_space, r.r_dead_space);
      ("high-water mark", g.hwm, r.r_hwm);
      ("reduced high-water mark", g.hwm_reduced, r.r_hwm_reduced);
      ("objects", g.num_objects, r.r_num_objects);
      ("scalar bytes", g.scalar_bytes, r.r_scalar_bytes);
      ("leaked objects", g.leaked, r.r_leaked);
    ]
  in
  match List.find_opt (fun (_, want, got) -> want <> got) fields with
  | Some (what, want, got) ->
      Error (Printf.sprintf "%s: %s %d, expected %d" g.name what got want)
  | None ->
      let md5 = Digest.to_hex (Digest.string r.r_output) in
      if md5 <> g.output_md5 then
        Error (Printf.sprintf "%s: output md5 %s, expected %s" g.name md5 g.output_md5)
      else Ok ()

let same_members what want got =
  let want = List.sort compare want and got = List.sort compare got in
  if want = got then Ok ()
  else
    Error
      (Printf.sprintf "%s: dead members [%s], expected [%s]" what
         (String.concat "; " got) (String.concat "; " want))

let check_dead g got = same_members g.name g.dead_members got

(* `deadmem check` reports the dead-member count only. *)
let check_dead_count g n =
  let want = List.length g.dead_members in
  if n = want then Ok ()
  else Error (Printf.sprintf "%s: %d dead members, expected %d" g.name n want)

let synth_dead ~classes = List.init classes (fun k -> Printf.sprintf "Node%d::pad%d" k k)

let check_synth ~label ~classes got = same_members label (synth_dead ~classes) got
