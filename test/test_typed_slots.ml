(* Differential tests for the typed (unboxed) slot representation.

   The resolve pass puts every int-typed local and field slot whose
   address never escapes in an unboxed int bank, and the bytecode
   compiler emits typed opcodes on an untagged operand stack for it;
   everything else (floats, pointers, objects, escape-demoted ints) stays
   boxed and runs the generic opcodes. None of that may be observable:
   output, return value, step count, allocation count and the full
   profile snapshot must stay byte-identical to the tree-walking oracle.

   The generated programs of [test_generated.ml] mix the things the
   classifier has to keep apart: int and float locals, object pointers,
   int<->float casts, field traffic through both banks, address-taken
   ints (escape-demoted to the boxed bank, so their arithmetic runs on
   the generic opcodes), and virtual calls (the receiver's dynamic class
   decides which override runs, and overrides disagree about how they
   touch the banks). The pinned cases here cover the representation edges
   where an unboxing bug would hide: int wraparound at the word boundary
   (unboxed ints are native ints in every engine, so overflow must wrap
   identically) and float NaN/inf comparison semantics, which must
   follow the tree walker bit-for-bit even where it differs from IEEE
   conventions. *)

(* -- pinned representation edges ------------------------------------------------ *)

(* Int wraparound at the native word boundary. Unboxed int slots hold
   native ints exactly like the tree walker's tagged values, so
   max_int + 1 wraps to min_int in both engines. *)
let t_int_overflow_pin () =
  let src =
    {|int main() {
        int x = 4611686018427387903;
        int wrapped = x + 1;
        print_int(wrapped);
        print_int(wrapped < 0);
        int doubled = x * 2;
        print_int(doubled);
        return (wrapped < x);
      }|}
  in
  (* the tree walker is the semantics oracle: native wraparound, and the
     wrapped value compares below x *)
  Util.check_string "wraps to min_int"
    (Printf.sprintf "exit 1\n%d%d%d" min_int 1 (-2))
    (Util.shown (Util.engines_agree "int overflow" (Util.check_source src)))

(* Float NaN/inf compares. Division by zero is a runtime error in this
   language, but inf (overflow) and NaN (inf - inf) are reachable; the
   bytecode engine's boxed float path must reproduce the tree walker's
   comparison results bit-for-bit — including where its ordering of NaN
   differs from IEEE — plus IEEE-faithful (non-)equality of NaN with
   itself. *)
let t_float_nan_pin () =
  let src =
    {|int main() {
        double big = 1.0e308;
        double inf = big * 10.0;
        double n = inf - inf;
        double z = 1.0;
        print_int(n < z); print_int(n > z);
        print_int(n <= z); print_int(n >= z);
        print_int(n == n); print_int(n != n);
        print_int(inf > 1000000.0);
        print_float(n); print_float(inf);
        if (n == n) { print_int(111); } else { print_int(222); }
        return 0;
      }|}
  in
  (* pinned against the tree walker's observed semantics: NaN sorts
     below finite values in <, <= (structural ordering), while == / !=
     on NaN follow IEEE (never equal, always unequal) *)
  Util.check_string "nan compare trace" "exit 0\n1010011-naninf222"
    (Util.shown (Util.engines_agree "float nan" (Util.check_source src)))

(* -- the bank verdicts --------------------------------------------------- *)

(* [Resolve.banks] decides which slots the bytecode compiler unboxes;
   the differential above only sees that the result behaves. This pins
   the verdicts themselves, one per escape rule, plus the telemetry
   totals they feed. [main]'s slots are numbered in declaration order. *)
let t_bank_verdicts () =
  let src =
    {|class C {
      public:
        int plain;
        int pointed;
      };
      void bump(int &r) { r = r + 1; }
      int main() {
        int a = 1;
        int b = 2;
        int c = 3;
        double d = 1.5;
        int *p = &b;
        bump(c);
        int C::*pm = &C::pointed;
        C o;
        o.plain = a;
        o.*pm = 4;
        print_int(a + *p + c + o.plain + o.pointed);
        return 0;
      }|}
  in
  let open Runtime.Resolve in
  let rp = program (Util.check_source src) in
  let unboxed = Telemetry.Counter.make "runtime.slots.unboxed_int"
  and boxed = Telemetry.Counter.make "runtime.slots.boxed_fallback" in
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  let u0 = Telemetry.Counter.value unboxed
  and b0 = Telemetry.Counter.value boxed in
  let bk =
    Fun.protect
      ~finally:(fun () -> Telemetry.set_enabled was)
      (fun () -> banks rp)
  in
  let name = function BInt -> "int" | BBox -> "boxed" in
  let main_idx =
    Hashtbl.find rp.rp_func_idx (Sema.Typed_ast.Func_id.FFree "main")
  in
  let main = bk.bk_funcs.(main_idx) in
  List.iter
    (fun (what, slot, want) ->
      Util.check_string what (name want) (name main.ub_bank.(slot)))
    [
      ("plain int local", 0, BInt);
      ("address-taken int local", 1, BBox);
      ("int bound to an int& parameter", 2, BBox);
      ("double local", 3, BBox);
    ];
  List.iter
    (fun (what, m, want) ->
      Util.check_string what (name want) (name (member_bank bk m)))
    [
      ("int member named by &C::pointed", ("C", "pointed"), BBox);
      ("plain int member", ("C", "plain"), BInt);
    ];
  (* a, C::plain unboxed; b, c, d, p, pm, o, bump's r, C::pointed boxed *)
  Util.check_int "runtime.slots.unboxed_int" 2
    (Telemetry.Counter.value unboxed - u0);
  Util.check_int "runtime.slots.boxed_fallback" 8
    (Telemetry.Counter.value boxed - b0);
  (* the verdicts do not change behaviour *)
  ignore (Util.engines_agree "bank verdicts" (Util.check_source src))

let suite =
  [
    Util.test "int overflow wraps identically in all engines"
      t_int_overflow_pin;
    Util.test "float NaN/inf compares pinned against the tree walker"
      t_float_nan_pin;
    Util.test "bank verdicts: one per escape rule" t_bank_verdicts;
    Test_generated.engines_agree ~gen:Gen_mcc.(focused Banks)
      "typed slots: mixed int/float/object programs match tree" ~count:100;
  ]
