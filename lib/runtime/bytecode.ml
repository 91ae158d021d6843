(* Bytecode engine: a linear lowering of the resolved IR and the flat
   stack-machine VM that executes it.

   [compile] flattens every [Resolve.rfunc] body into one instruction
   array: an explicit operand stack replaces the OCaml call stack the
   tree-walker used per IR node, control flow becomes absolute jumps
   (patched in one pass, with compare-and-branch fusion for the common
   [a < b] loop conditions), and locals/globals/statics/fields are
   direct-indexed loads and stores. Calls still go through the interned
   function ids and per-name dispatch tables built by [Resolve];
   arguments are passed in place on the caller's operand stack, so the
   per-call [value array] allocation of the tree engine disappears.

   Observable semantics are preserved exactly — this is the whole
   contract, pinned by [test/test_bytecode.ml]'s golden differential:

   - tick (step-counting) points: one per statement entry, one per
     [call_function], one per constructor/destructor level, and the
     extra tick of the missing-constructor path;
   - [fresh_obj_id] sequencing, construction order (virtual bases at
     the most-derived level, direct bases, member subobjects, body) and
     reverse destruction order;
   - evaluation order, including lvalue-before-rhs in assignments and
     receiver-before-arguments in method calls;
   - error strings, the structured missing-member error, and the
     scope-exit destruction semantics of [Fun.protect] (a destructor
     failure during unwinding surfaces as [Fun.Finally_raised], exactly
     as the tree engine's [protect ~finally] did).

   The only intentional divergence: a [break]/[continue] outside any
   loop (never produced from well-formed sources, and never executed by
   any golden) raises a [Runtime_error] here, where the tree engine let
   the internal control exception escape. *)

open Frontend
open Sema
open Sema.Typed_ast
open Value
open Resolve

(* Every array access in this module is either compiler-generated (slot
   and jump indices validated during lowering) or guarded by an explicit
   bounds check that produces the interpreter's own error message, so
   the stdlib's implicit check never fires — shadow it away. This is
   worth ~10% on the dispatch loop. *)
module Array = struct
  include Stdlib.Array

  external get : 'a array -> int -> 'a = "%array_unsafe_get"
  external set : 'a array -> int -> 'a -> unit = "%array_unsafe_set"
end

(* -- typed slots ---------------------------------------------------------------

   The resolved IR keeps every slot boxed. [compile] asks [Resolve.banks]
   which local slots and object members to keep in an unboxed int bank,
   addresses each through that analysis's per-bank indices, layouts and
   slot tables, and mirrors it with a static *shape* for every
   expression: which operand stack its value lives on. [SBox] is the
   tagged stack; [SInt] is the untagged int stack.
   Typed opcodes are emitted only when every operand's shape is known
   at compile time; anything polymorphic (floats included) runs the
   generic opcodes, reached through the explicit box bridges, so
   semantics can never depend on a shape guess. *)

type shape = SBox | SInt

(* The integer image of [Value.coerce] for stores into an integral
   bank: the rhs is already an int, so only the narrowing step
   remains. [CChar] is [land 255], [CBool] is [<> 0]. *)
type icoerce = CNone | CChar | CBool

let ic_of_ty (ty : Ast.type_expr) : icoerce =
  match ty with
  | Ast.TChar -> CChar
  | Ast.TBool -> CBool
  | _ -> CNone

let[@inline] apply_ic ic n =
  match ic with
  | CNone -> n
  | CChar -> n land 255
  | CBool -> if n <> 0 then 1 else 0

(* -- instruction set ----------------------------------------------------------

   Lvalue locations are encoded as pointer values on the one operand
   stack: [VPtr (PArr (h, i))] for a slot of a backing array. Reading and
   writing through them is exactly [Value.read_loc]/[write_loc]; [ILocToPtr]
   applies the [arr_id = -1] re-wrap of [Value.ptr_of_loc] when a
   location escapes as a user-visible pointer. *)

(* Twins are one instruction with an operand. A leading [bool] on a
   load folds the statement tick before it ([ITickLoad] is [ILoad] with
   the flag set); a [bool] right before a branch target, or last on a
   store, folds the next statement's tick on fall-through; [keep] says
   whether a store, compound assignment or increment leaves the stored
   (or, postfix, the old) value on the stack; [sense] is the truthiness
   on which a conditional jump is taken. [mnemonic] reports each flag
   setting under its own name. *)
type instr =
  (* pushes *)
  | IConst of value
  | ILoad of bool * int   (* tick?; push frame slot *)
  | ILoadRef of int       (* reference local: push its referent's value *)
  | IGlobal of int
  | IStatic of int
  | IThis
  (* pure operators, in place on the stack *)
  | IPop
  | IUnary of Ast.unop
  | IBinop of Ast.binop   (* strict binops only; && / || compile to jumps *)
  | IToBool
  | ICastInt
  | ICastFloat
  | IField of slots_by_class * Member.t
  | IDeref
  | IIndex
  | IAsObj                (* coerce to an object before a member-ptr deref *)
  | IMemPtrDeref
  | IAddrOf
  (* lvalue locations *)
  | ILocLocal of int
  | ILocLocalRef of int
  | ILocGlobal of int
  | ILocStatic of int
  | ILocField of slots_by_class * Member.t
  | ILocDeref
  | ILocIndex
  | ILocMemPtr
  | ILocToPtr             (* location -> user-visible pointer (ptr_of_loc) *)
  | IObjToPtr             (* object-reference argument: VObj o -> VPtr (PObj o) *)
  (* stores *)
  | IAssign of Ast.type_expr
  | ICompound of Ast.assign_op * Ast.type_expr
  | IIncDec of Ast.incdec * Ast.fixity
  | IStoreLocal of bool * int * Ast.type_expr * bool
      (* keep; coerce, store; tick? *)
  | IStoreRawPop of int                     (* store without coercion *)
  | IIncDecLocal of bool * Ast.incdec * Ast.fixity * int  (* keep *)
  (* control *)
  | IJump of int
  | IJumpIf of bool * int  (* pop; jump when its truthiness is [sense] *)
  | IJumpCmpFalse of Ast.binop * int  (* fused compare-and-branch *)
  | IShortCircuit of bool * int
      (* &&/||: pop; truthiness [sense] -> push it as 0/1 and jump *)
  | IPushScope of int array
  | IPopScope
  | IExitScopes of int    (* break/continue leaving n destroy scopes *)
  | IReturn
  | IReturnUnit
  | IRaise of string
  (* allocation *)
  | INewObj of { n_cid : int; n_cls : string; n_ctor : int; n_argc : int }
  | INewScalar of int * Ast.type_expr       (* bytes, element type *)
  | INewArrObj of { w_cid : int; w_cls : string; w_ctor : int }
  | INewArrScalar of Ast.type_expr * int    (* element type, element bytes *)
  | IDelete
  (* declarations *)
  | IDeclScalar of int * Ast.type_expr
  | IDeclStackArr of {
      ds_slot : int;
      ds_cid : int;
      ds_cls : string;
      ds_ctor : int;
      ds_len : int;
    }
  | IDeclCtor of {
      dc_slot : int;
      dc_cid : int;
      dc_cls : string;
      dc_ctor : int;
      dc_argc : int;
    }
  (* calls: arguments stay in place on the operand stack; the callee
     reads them at [sp - argc .. sp - 1] *)
  | IBuiltin of builtin * int
  | ICallFunc of int * int
  | ICallMethod of { m_func : int; m_argc : int; m_arrow : bool }
  | ICallVirtual of { v_name : string; v_table : int array; v_argc : int }
  | ICallFunPtr of int
  | ICallCtor of int * int  (* base/vbase constructor on the current [this] *)
  (* constructor member-initializer steps *)
  | IInitField of {
      if_slots : slots_by_class;
      if_member : Member.t;
      if_cid : int;
      if_cls : string;
      if_ctor : int;
      if_argc : int;
    }
  | IInitFieldArr of {
      ia_slots : slots_by_class;
      ia_member : Member.t;
      ia_cid : int;
      ia_cls : string;
      ia_ctor : int;
      ia_len : int;
    }
  | IInitFieldScalar of {
      is_slots : slots_by_class;
      is_member : Member.t;
      is_coerce : Ast.type_expr;
    }
  (* superinstructions: adjacent pairs fused at emit time (see [fuse]).
     Each is exactly the sequence of its parts — same evaluation order,
     same errors — in one dispatch. The dynamic pair profile over the
     benchmark suite drove the selection: local.field reads, statement
     ticks glued to their first load, compare-and-branch against a
     constant or local, and the increment-then-back-edge of for loops
     together cover over half of all executed pairs. *)
  | ILoadField of bool * int * slots_by_class * Member.t  (* ILoad; IField *)
  | IBinopConst of Ast.binop * value                  (* IConst; IBinop *)
  | ITickN of int             (* n statement ticks; [ITick] when n = 1 *)
  | IJumpCmpConstFalse of Ast.binop * value * bool * int
  | IJumpLocCmpConstFalse of int * Ast.binop * value * bool * int
  | IJumpLocCmpFalse of Ast.binop * int * int     (* top CMP local *)
  (* the pointer-chase loop body [p = p->f;] in one or two dispatches *)
  | ITickLoadFieldStore of
      int * slots_by_class * Member.t * int * Ast.type_expr
  | ITickLoadFieldStoreJump of
      int * slots_by_class * Member.t * int * Ast.type_expr * int
  (* round 3: cascade fusion re-fuses a fusion product with its own
     predecessor, so whole expression chains ([o.f[i*k+j].g], the
     pointer-scan loop condition) collapse to one dispatch. *)
  | ITickLoadFieldCmpLocFalse of
      int * slots_by_class * Member.t * Ast.binop * int * bool * int
  (* a scan loop's hot cycle [guard-branch -> p = p->f -> back edge]
     with the step on the branch's false edge: [finish]'s branch-target
     peephole inlines the step into the false arm; the step's own slot
     stays in place for the fall-in path *)
  | IScanStep of
      int * slots_by_class * Member.t * Ast.binop * int
      * int * slots_by_class * Member.t * int * Ast.type_expr * int
  (* [finish]'s second peephole: a guard [local CMP const] immediately
     followed by an [IScanStep] whose back edge is the guard itself is a
     whole self-contained scan loop; run it in a single dispatch. The
     body exit falls to [pc + 2]. *)
  | ILoopScan of
      int * Ast.binop * value * int
      * int * slots_by_class * Member.t * Ast.binop * int
      * int * slots_by_class * Member.t * int * Ast.type_expr
  (* -- typed (untagged) instructions -----------------------------------
     These run on the per-invocation int operand stack instead of the
     boxed one: zero allocation and no tag dispatch on int hot paths.
     Each arm is the exact image of its generic counterpart — same
     evaluation order, tick points, coercions and error strings — with
     the tag test resolved at compile time by the resolve pass's bank
     classification. Suffix conventions: [..I] names the int stack an
     instruction's operands live on; [..IB]/[..B] are bridge forms
     whose rhs stays boxed (polymorphic) but whose destination is an
     unboxed int slot. *)
  (* pushes / reads *)
  | IConstI of int
  | ILoadI of bool * int  (* tick?; push int local *)
  | IFieldI of slots_by_class * Member.t   (* pop obj; push int member *)
  | IIndexI               (* a[i] with an untagged index; result boxed *)
  (* bridges between the int stack and the boxed stack *)
  | IBoxI                 (* pop int stack; push boxed *)
  | IBoxIU                (* pop int stack; insert *under* the boxed top *)
  | IPopI
  | ILoadIB of int        (* ILoadI; IBoxI *)
  (* pure typed operators *)
  | IUnaryI of Ast.unop
  | IToBoolI
  | IBinopII of Ast.binop (* int OP int -> int, incl. compares *)
  (* typed local stores *)
  | IStoreLocalI of bool * icoerce * int  (* keep; coerce, store *)
  | IStoreLocalIB of bool * Ast.type_expr * int  (* boxed rhs -> int slot *)
  | IIncDecLocalI of bool * Ast.incdec * Ast.fixity * int
  | ICompoundLocalI of bool * Ast.binop * icoerce * int
  | ICompoundLocalB of bool * Ast.assign_op * Ast.type_expr * int
      (* boxed rhs *)
  (* unboxed member lvalues. [ILocFieldI] keeps the object on the boxed
     stack and pushes the resolved bank index onto the int stack, so the
     member lookup (and its missing-member error) happens before the rhs
     is evaluated, exactly as the tree engine orders it. *)
  | ILocFieldI of slots_by_class * Member.t
  | IAssignFieldI of bool * icoerce   (* pop rhs(int), slot, obj *)
  | IAssignFieldIB of bool * Ast.type_expr    (* boxed rhs -> int bank member *)
  | ICompoundFieldI of bool * Ast.binop * icoerce
  | ICompoundFieldB of bool * Ast.assign_op * Ast.type_expr  (* boxed rhs *)
  | IIncDecFieldI of bool * Ast.incdec * Ast.fixity
  (* typed declarations / ctor member initializers *)
  | IDeclScalarI of int
  | IInitFieldScalarI of slots_by_class * Member.t * icoerce
  | IInitFieldScalarB of slots_by_class * Member.t * Ast.type_expr
  (* typed control *)
  | IJumpIfI of bool * bool * int  (* sense; tick? on fall-through *)
  | IShortCircuitI of bool * int
  | IJumpCmpFalseI of Ast.binop * int
  | IJumpCmpConstFalseI of Ast.binop * int * bool * int
  | IJumpLocCmpFalseI of Ast.binop * int * bool * int
  | IJumpLocFCmpFalseI of
      int * int * slots_by_class * Member.t * Ast.binop * bool * int
  (* typed superinstructions *)
  | ILoadFieldI of bool * int * slots_by_class * Member.t
  | IIndexFieldI of slots_by_class * Member.t
  | IBinopConstI of Ast.binop * int
  | ILoadBinopConstI of bool * int * Ast.binop * int
  | ILoadFieldBCI of int * slots_by_class * Member.t * Ast.binop * int
  | ILoadFieldLoadBCI of
      int * slots_by_class * Member.t * int * Ast.binop * int
      (* boxed l.f; typed [l' op k] index *)
  | ILoadFieldBinopI of int * slots_by_class * Member.t * Ast.binop
  | IIncDecLocalJumpI of Ast.incdec * int * int
  | IFieldIdxFieldI of
      int * slots_by_class * Member.t * int * Ast.binop * int
      * slots_by_class * Member.t
  | ITickLoadFieldCmpLocFalseI of
      int * slots_by_class * Member.t * Ast.binop * int * bool * int
  | IJumpLL2FBCCmpFalseI of
      int * int * slots_by_class * Member.t * Ast.binop * int * Ast.binop
      * bool * int
  (* the scan loop with an int guard member: guard read is unboxed, the
     pointer step stays boxed (the step member is a reference bank) *)
  | IScanStepI of
      int * slots_by_class * Member.t * Ast.binop * int
      * int * slots_by_class * Member.t * int * Ast.type_expr * int
  (* typed index/store chains and field-copy superinstructions, plus
     store-from-source forms that collapse whole assignment statements
     into one dispatch *)
  | ILoadIndexI of int
  | ILoadFieldIndexI of bool * int * slots_by_class * Member.t * int
  | ITLFIndexIStoreT of
      int * slots_by_class * Member.t * int * int * Ast.type_expr
  | ILoadBinopI of Ast.binop * int
  | ILoadLocFieldI of bool * int * slots_by_class * Member.t
  | IAssignFieldLFIPop of icoerce * int * slots_by_class * Member.t
  | IFieldCopyII of
      icoerce * int * slots_by_class * Member.t * int * slots_by_class
      * Member.t
  (* constructor field initialization from a local or constant, and
     folded constant-operator chains *)
  | IInitFieldLI of slots_by_class * Member.t * icoerce * int
  | IInitFieldConstI of slots_by_class * Member.t * icoerce * int
  | IBinopConst2I of Ast.binop * int * Ast.binop * int
  (* [if (local->f BINOP const)] in branch position: the whole guard in
     one dispatch. The bool folds the statement tick before the test *)
  | IJumpLocFieldBCFalseI of
      bool * int * slots_by_class * Member.t * Ast.binop * int * int

(* A compiled code body. [b_omax] bounds the operand stack the body can
   ever need (computed conservatively during emission); [b_scoped] says
   whether any destroy scope is opened, so scope-free bodies skip the
   unwinding machinery entirely. [b_escapes] says whether the code
   holds an [ILocLocal]/[ILocLocalRef], the only instructions that let
   a pointer into the frame's locals outlive the activation; such
   bodies get fresh frames, every other body runs on pooled ones (see
   [new_frame]). [b_id] is the body's index into
   [cp_bodies]/[cp_owners], assigned during [compile]; the profiler
   uses it to find the body's counter row. *)
type cbody = {
  b_code : instr array;
  b_omax : int;
  b_imax : int;  (* untagged int operand-stack bound *)
  b_scoped : bool;
  b_escapes : bool;
  mutable b_id : int;
}

type ckind =
  | KBody of cbody
  | KCtor of { kc_body : cbody; kc_entry : int }
      (* [kc_entry]: entry point skipping virtual-base construction, for
         non-most-derived invocations *)
  | KDtor
  | KUnknown
  | KUndefined
  | KMissingCtor

(* Where a call's argument lands in the callee's frame. *)
type cparam =
  | PBox of int * Ast.type_expr  (* boxed slot, coerced *)
  | PInt of int * Ast.type_expr  (* int-bank slot, coerced *)
  | PRef of int  (* reference: the location as passed, boxed *)

type cfunc = {
  c_id : Func_id.t;
  c_frame : fshape;
  c_params : cparam array;
  c_kind : ckind;
}

(* Per-class destruction plan with the destructor body compiled. *)
type cdestroy = {
  cd_dtor : (fshape * cbody) option;
  cd_fields : dfield array;
  cd_nv_bases : int array;
  cd_vbases_rev : int array;
}

type cprogram = {
  cp_rp : rprogram;
  cp_classes : class_info array;  (* banked layouts, objects are built from *)
  cp_funcs : cfunc array;
  cp_destroy : cdestroy array;
  cp_ginit : cbody option array;  (* global initializers, by global index *)
  (* every compiled body, indexed by [b_id], with its owner: a display
     label plus the owning function's index when the body belongs to
     one (profiler call counts attach there) *)
  cp_bodies : cbody array;
  cp_owners : (string * int option) array;
}

(* -- telemetry (no-ops unless collection is enabled) -------------------------- *)

let instrs_counter = Telemetry.Counter.make "bytecode.instructions_compiled"
let bodies_counter = Telemetry.Counter.make "bytecode.bodies_compiled"

(* -- compiler ------------------------------------------------------------------ *)

(* Net operand-stack effect of one emitted instruction; peaks within an
   instruction are covered by the +1 slack [emit] keeps and the fixed
   slack [finish] adds. Over-estimation is harmless (a few spare slots),
   under-estimation impossible: branch joins only ever *lower* the real
   depth below the linear scan's estimate. Fused forms are never bumped
   (see [bump]). *)
let delta = function
  | IConst _ | ILoad _ | ILoadRef _ | IGlobal _ | IStatic _ | IThis
  | ILocLocal _ | ILocLocalRef _ | ILocGlobal _ | ILocStatic _
  | INewScalar _ | IRaise _ ->
      1
  | IIncDecLocal (keep, _, _, _) -> if keep then 1 else 0
  | IStoreLocal (keep, _, _, _)
  | IStoreLocalIB (keep, _, _)
  | ICompoundLocalB (keep, _, _, _) ->
      if keep then 0 else -1
  | IAssignFieldIB (keep, _) | ICompoundFieldB (keep, _, _) ->
      if keep then -1 else -2
  | IUnary _ | IToBool | ICastInt | ICastFloat | IField _ | IDeref | IAsObj
  | IAddrOf | ILocField _ | ILocDeref | ILocToPtr | IObjToPtr | IIncDec _
  | INewArrObj _ | INewArrScalar _ | IJump _ | ITickN _
  | IPushScope _ | IPopScope | IExitScopes _ | IReturnUnit | IDeclScalar _
  | IDeclStackArr _ | IInitFieldArr _ ->
      0
  | IPop | IBinop _ | IIndex | IMemPtrDeref | ILocIndex | ILocMemPtr
  | IAssign _ | ICompound _ | IStoreRawPop _ | IDelete
  | IJumpIf _ | IShortCircuit _ | IReturn
  | IInitFieldScalar _ ->
      -1
  | IBuiltin (_, n) | ICallFunc (_, n) | INewObj { n_argc = n; _ } -> 1 - n
  | ICallMethod { m_argc = n; _ } -> -n  (* receiver consumed, result pushed *)
  | ICallVirtual { v_argc = n; _ } -> -n
  | ICallFunPtr n -> -n
  | ICallCtor (_, n) -> -n
  | IInitField { if_argc = n; _ } -> -n
  | IDeclCtor { dc_argc = n; _ } -> -n
  (* typed instructions: boxed-stack effect only (their int stack
     effects live in [idelta]) *)
  | IBoxI | IBoxIU -> 1
  | IFieldI _ | IAssignFieldI _ | ICompoundFieldI _ | IIncDecFieldI _
  | IInitFieldScalarB _ ->
      -1
  | IConstI _ | ILoadI _ | IIndexI | IPopI
  | IUnaryI _ | IToBoolI | IBinopII _
  | IStoreLocalI _ | IIncDecLocalI _ | ICompoundLocalI _
  | ILocFieldI _ | IDeclScalarI _ | IInitFieldScalarI _
  | IJumpIfI _ | IShortCircuitI _ ->
      0
  | _ -> invalid_arg "Bytecode.delta: a fused form"

(* Net effect of one emitted instruction on the untagged int operand
   stack. Only typed instructions touch it, so the wildcard covers the
   whole generic set. *)
let idelta = function
  | IConstI _ | ILoadI _ | IFieldI _ | ILocFieldI _ -> 1
  | IIncDecLocalI (keep, _, _, _) -> if keep then 1 else 0
  | IStoreLocalI (keep, _, _)
  | ICompoundLocalI (keep, _, _, _)
  | IIncDecFieldI (keep, _, _) ->
      if keep then 0 else -1
  | IAssignFieldI (keep, _) | ICompoundFieldI (keep, _, _) ->
      if keep then -1 else -2
  | IBoxI | IBoxIU | IPopI | IBinopII _
  | IJumpIfI _ | IShortCircuitI _ | IAssignFieldIB _ | ICompoundFieldB _
  | IInitFieldScalarI _ | IIndexI ->
      -1
  | _ -> 0

type buf = {
  bk : banks;
  u : unit_banks;  (* the body's local slots *)
  mutable code : instr array;
  mutable len : int;
  mutable od : int;    (* linear-scan operand depth *)
  mutable omax : int;
  mutable iod : int;   (* untagged int stack depth *)
  mutable iomax : int;
  mutable sdepth : int;  (* open destroy scopes at the frontier *)
  mutable scoped : bool;
  mutable lastlab : int;
      (* highest position that is a jump target; labels are only created
         at the frontier, so this is monotone. Fusing [prev; i] into one
         instruction in [prev]'s slot is legal unless a label sits
         *between* the two ([lastlab = len]): a jumper landing there
         expects [i] without [prev]'s effect. A label on [prev] itself
         is fine — jumpers wanted [prev] then [i] anyway. *)
}

let mk_buf bk u =
  {
    bk;
    u;
    code = Array.make 32 IReturnUnit;
    len = 0;
    od = 0;
    omax = 0;
    iod = 0;
    iomax = 0;
    sdepth = 0;
    scoped = false;
    lastlab = -1;
  }

(* Track both stack depths for one emitted instruction. Only the
   instructions the compiler emits are bumped: a fused form's effect is
   the sum of its parts', already counted when they were emitted. The
   int maximum tracks reached depth only (no +1 floor): a body that
   never touches the int stack keeps a 0 bound and the VM skips that
   stack's allocation entirely. *)
let bump (b : buf) (i : instr) =
  b.od <- b.od + delta i;
  if b.od + 1 > b.omax then b.omax <- b.od + 1;
  b.iod <- b.iod + idelta i;
  if b.iod > b.iomax then b.iomax <- b.iod

let is_cmp = function
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge -> true
  | _ -> false

(* The fusion table: [fuse prev i] is the single instruction equivalent
   to [prev; i], or [None]. Every fusion preserves the exact sequence
   semantics (evaluation order, ticks, errors) by construction — the VM
   arm of each fused form is the concatenation of its parts' arms. The
   selection comes from the dynamic pair profile over the benchmark
   suite: local.field reads, statement ticks glued to their first load,
   binops against a constant, compare-and-branch, and the increment
   plus back-edge of for loops cover over half of all executed pairs.

   [emit] offers every product back to its own predecessor, so a rule
   may have a fused form on the right and whole chains ([o.f[i*k+j].g],
   a loop guard with its branch) collapse one pair at a time. A branch
   fold is such a pair, its right half the branch being emitted:
   [IBinop cmp; IJumpIf false] is [IJumpCmpFalse], and an [ILoad]
   before that makes it [IJumpLocCmpFalse].

   Branch safety: a branch already in the buffer is offered again only
   in its ticked form, after the next statement's [ITickN 1] folded into
   it. Its unticked form was offered to the same predecessor under the
   same label guard when it was placed, so it could move only if some
   rule matched its ticked form on the right but not its unticked form.
   No rule does, so a recorded patch site never moves. *)
let fuse (prev : instr) (i : instr) : instr option =
  match (prev, i) with
  | ILoad (tk, n), IField (s, m) -> Some (ILoadField (tk, n, s, m))
  | ITickN 1, ILoad (false, n) -> Some (ILoad (true, n))
  | ITickN a, ITickN c -> Some (ITickN (a + c))
  | IStoreLocal (false, n, ty, false), ITickN 1 ->
      Some (IStoreLocal (false, n, ty, true))
  | IJumpCmpConstFalse (op, v, false, t), ITickN 1 ->
      Some (IJumpCmpConstFalse (op, v, true, t))
  | IJumpLocCmpConstFalse (n, op, v, false, t), ITickN 1 ->
      Some (IJumpLocCmpConstFalse (n, op, v, true, t))
  | ILoadField (true, i, s, m), IStoreLocal (false, j, ty, false) ->
      Some (ITickLoadFieldStore (i, s, m, j, ty))
  | ITickLoadFieldStore (i, s, m, j, ty), IJump t ->
      Some (ITickLoadFieldStoreJump (i, s, m, j, ty, t))
  | IConst v, IBinop op -> Some (IBinopConst (op, v))
  | ILoadField (true, n, s, m), IJumpLocCmpFalse (op, y, t) ->
      Some (ITickLoadFieldCmpLocFalse (n, s, m, op, y, false, t))
  | ITickLoadFieldCmpLocFalse (n, s, m, op, y, false, t), ITickN 1 ->
      Some (ITickLoadFieldCmpLocFalse (n, s, m, op, y, true, t))
  (* branch folds: [a CMP b], [a CMP const], and [local CMP ...] with
     the load folded in too *)
  | IBinop op, IJumpIf (false, t) when is_cmp op -> Some (IJumpCmpFalse (op, t))
  | ILoad (false, y), IJumpCmpFalse (op, t) -> Some (IJumpLocCmpFalse (op, y, t))
  | IBinopConst (op, v), IJumpIf (false, t) when is_cmp op ->
      Some (IJumpCmpConstFalse (op, v, false, t))
  | ILoad (false, n), IJumpCmpConstFalse (op, v, false, t) ->
      Some (IJumpLocCmpConstFalse (n, op, v, false, t))
  (* -- typed mirrors ---------------------------------------------------- *)
  | IConstI n, IBoxI -> Some (IConst (vint n))
  | ILoadI (false, n), IBoxI -> Some (ILoadIB n)
  | ITickN 1, ILoadI (false, n) -> Some (ILoadI (true, n))
  | ILoad (tk, n), IFieldI (s, m) -> Some (ILoadFieldI (tk, n, s, m))
  | IIndexI, IFieldI (s, m) -> Some (IIndexFieldI (s, m))
  | IConstI k, IBinopII op -> Some (IBinopConstI (op, k))
  | IBinopConstI (o1, k1), IBinopConstI (o2, k2) ->
      Some (IBinopConst2I (o1, k1, o2, k2))
  | ILoadI (tk, n), IBinopConstI (op, k) ->
      Some (ILoadBinopConstI (tk, n, op, k))
  | ILoadFieldI (false, n, s, m), IBinopConstI (op, k) ->
      Some (ILoadFieldBCI (n, s, m, op, k))
  | ILoadField (false, n, s, m), ILoadBinopConstI (false, j, op, k) ->
      Some (ILoadFieldLoadBCI (n, s, m, j, op, k))
  | ILoadFieldLoadBCI (n, s, m, j, op, k), IIndexFieldI (s2, m2) ->
      Some (IFieldIdxFieldI (n, s, m, j, op, k, s2, m2))
  | ILoadFieldI (false, n, s, m), IBinopII op ->
      Some (ILoadFieldBinopI (n, s, m, op))
  | IIncDecLocalI (false, w, _, n), IJump t ->
      Some (IIncDecLocalJumpI (w, n, t))
  | IJumpIfI (false, false, t), ITickN 1 -> Some (IJumpIfI (false, true, t))
  | IJumpCmpConstFalseI (op, k, false, t), ITickN 1 ->
      Some (IJumpCmpConstFalseI (op, k, true, t))
  | IJumpLocCmpFalseI (op, n, false, t), ITickN 1 ->
      Some (IJumpLocCmpFalseI (op, n, true, t))
  | IJumpLocFCmpFalseI (i, j, s, m, op, false, t), ITickN 1 ->
      Some (IJumpLocFCmpFalseI (i, j, s, m, op, true, t))
  | IJumpLL2FBCCmpFalseI (i, j, s, m, op1, k, op2, false, t), ITickN 1 ->
      Some (IJumpLL2FBCCmpFalseI (i, j, s, m, op1, k, op2, true, t))
  | ILoadFieldBCI (n, s, m, op, k), IJumpIfI (false, false, t) ->
      Some (IJumpLocFieldBCFalseI (false, n, s, m, op, k, t))
  | ILoadFieldI (true, n, s, m), IJumpLocCmpFalseI (op, y, tk, t) ->
      Some (ITickLoadFieldCmpLocFalseI (n, s, m, op, y, tk, t))
  | ITickLoadFieldCmpLocFalseI (n, s, m, op, y, false, t), ITickN 1 ->
      Some (ITickLoadFieldCmpLocFalseI (n, s, m, op, y, true, t))
  | ILoadI (false, i), IIndexI -> Some (ILoadIndexI i)
  | ILoadField (tk, a, s, m), ILoadIndexI i ->
      Some (ILoadFieldIndexI (tk, a, s, m, i))
  | ILoadFieldIndexI (true, a, s, m, i), IStoreLocal (false, x, ty, true) ->
      Some (ITLFIndexIStoreT (a, s, m, i, x, ty))
  | ILoadI (false, i), IBinopII op -> Some (ILoadBinopI (op, i))
  | ILoad (tk, n), ILocFieldI (s, m) -> Some (ILoadLocFieldI (tk, n, s, m))
  (* assignment from a member; initialization from a local or a
     constant *)
  | ILoadFieldI (false, j, s, m), IAssignFieldI (false, ic) ->
      Some (IAssignFieldLFIPop (ic, j, s, m))
  | ILoadLocFieldI (false, a, s1, m1), IAssignFieldLFIPop (ic, j, s2, m2) ->
      Some (IFieldCopyII (ic, a, s1, m1, j, s2, m2))
  | ILoadI (false, i), IInitFieldScalarI (s, m, ic) ->
      Some (IInitFieldLI (s, m, ic, i))
  | IConstI k, IInitFieldScalarI (s, m, ic) ->
      Some (IInitFieldConstI (s, m, ic, k))
  (* typed branch folds. Beyond compare-and-branch they fold in only the
     guards that read a member: [local CMP const] stays
     [ILoadBinopConstI; IJumpIfI] and [local CMP local] stays
     [ILoadI; IJumpLocCmpFalseI] *)
  | IBinopII op, IJumpIfI (false, false, t) when is_cmp op ->
      Some (IJumpCmpFalseI (op, t))
  | IBinopConstI (op, k), IJumpIfI (false, false, t) when is_cmp op ->
      Some (IJumpCmpConstFalseI (op, k, false, t))
  | ILoadFieldI (true, n, s, m), IJumpCmpConstFalseI (op, k, false, t) ->
      Some (IJumpLocFieldBCFalseI (true, n, s, m, op, k, t))
  | ILoadBinopI (op, y), IJumpIfI (false, false, t) when is_cmp op ->
      Some (IJumpLocCmpFalseI (op, y, false, t))
  | _ -> None

(* The loop guards that must see two instructions back, [local CMP e]
   where [e] already fused into one instruction: [fuse3 p2 p1 i] is the
   single instruction equivalent to [p2; p1; i], or [None]. *)
let fuse3 (p2 : instr) (p1 : instr) (i : instr) : instr option =
  match (p2, p1, i) with
  | ILoadI (false, x), ILoadFieldBCI (y, s, m, op1, k), IJumpCmpFalseI (op, t)
    ->
      (* [local CMP local->f op k] *)
      Some (IJumpLL2FBCCmpFalseI (x, y, s, m, op1, k, op, false, t))
  | ILoadI (false, x), ILoadFieldBinopI (y, s, m, op), IJumpIfI (false, false, t)
    when is_cmp op ->
      (* [local CMP local->f], the [i < p->n] loop guard *)
      Some (IJumpLocFCmpFalseI (x, y, s, m, op, false, t))
  | _ -> None

(* Put [i] at the frontier, fusing it into what precedes it while a rule
   applies; each product is offered again to its new predecessor. A
   fused run must not swallow a jump target: a label on the slot [i]
   would take ([lastlab = len]) blocks every rule, one on its
   predecessor's slot blocks [fuse3] too. A label on the surviving slot
   is fine — jumpers wanted the whole run anyway. *)
let rec place (b : buf) (i : instr) =
  let p = b.len in
  match if p > 0 && b.lastlab < p then fuse b.code.(p - 1) i else None with
  | Some f ->
      b.len <- p - 1;
      place b f
  | None -> (
      match
        if p > 1 && b.lastlab < p - 1 then fuse3 b.code.(p - 2) b.code.(p - 1) i
        else None
      with
      | Some f ->
          b.len <- p - 2;
          place b f
      | None ->
          if p = Array.length b.code then begin
            let nc = Array.make (2 * p) IReturnUnit in
            Array.blit b.code 0 nc 0 p;
            b.code <- nc
          end;
          b.code.(p) <- i;
          b.len <- p + 1)

let emit (b : buf) (i : instr) =
  bump b i;
  place b i

(* Emit a forward jump with a placeholder target; returns the patch site
   (the fused slot, when the jump merged into its predecessor). *)
let emit_patch b i =
  emit b i;
  b.len - 1

(* Mark the frontier as a jump target (blocks fusion across it). *)
let here b =
  b.lastlab <- b.len;
  b.len

(* The branch forms, listed once: [retarget f i] is [i] with its
   branch target [t] replaced by [f t], or [i] itself when it carries
   none. [patch_to] and [branch_target] are both read off this table,
   so no branch form can be patchable but invisible to loop detection,
   or the other way round. [ILoopScan]'s back edge is internal. *)
let retarget f (i : instr) : instr =
  match i with
  | IJump t -> IJump (f t)
  | IJumpIf (sense, t) -> IJumpIf (sense, f t)
  | IShortCircuit (sense, t) -> IShortCircuit (sense, f t)
  | IJumpCmpFalse (op, t) -> IJumpCmpFalse (op, f t)
  | IJumpCmpConstFalse (op, v, tk, t) -> IJumpCmpConstFalse (op, v, tk, f t)
  | IJumpLocCmpConstFalse (n, op, v, tk, t) ->
      IJumpLocCmpConstFalse (n, op, v, tk, f t)
  | IJumpLocCmpFalse (op, n, t) -> IJumpLocCmpFalse (op, n, f t)
  | ITickLoadFieldStoreJump (i, s, m, j, ty, t) ->
      ITickLoadFieldStoreJump (i, s, m, j, ty, f t)
  | ITickLoadFieldCmpLocFalse (n, s, m, op, y, tk, t) ->
      ITickLoadFieldCmpLocFalse (n, s, m, op, y, tk, f t)
  | IScanStep (j, s, m, op, n, a, s2, m2, d, ty, t) ->
      IScanStep (j, s, m, op, n, a, s2, m2, d, ty, f t)
  (* typed branch forms *)
  | IJumpIfI (sense, tk, t) -> IJumpIfI (sense, tk, f t)
  | IShortCircuitI (sense, t) -> IShortCircuitI (sense, f t)
  | IJumpCmpFalseI (op, t) -> IJumpCmpFalseI (op, f t)
  | IJumpCmpConstFalseI (op, k, tk, t) -> IJumpCmpConstFalseI (op, k, tk, f t)
  | IJumpLocCmpFalseI (op, n, tk, t) -> IJumpLocCmpFalseI (op, n, tk, f t)
  | IJumpLocFCmpFalseI (i, j, s, m, op, tk, t) ->
      IJumpLocFCmpFalseI (i, j, s, m, op, tk, f t)
  | IJumpLL2FBCCmpFalseI (i, j, s, m, op1, k, op2, tk, t) ->
      IJumpLL2FBCCmpFalseI (i, j, s, m, op1, k, op2, tk, f t)
  | IJumpLocFieldBCFalseI (tp, n, s, m, op, k, t) ->
      IJumpLocFieldBCFalseI (tp, n, s, m, op, k, f t)
  | ITickLoadFieldCmpLocFalseI (n, s, m, op, y, tk, t) ->
      ITickLoadFieldCmpLocFalseI (n, s, m, op, y, tk, f t)
  | IIncDecLocalJumpI (w, n, t) -> IIncDecLocalJumpI (w, n, f t)
  | IScanStepI (j, s, m, op, n, a, s2, m2, d, ty, t) ->
      IScanStepI (j, s, m, op, n, a, s2, m2, d, ty, f t)
  | _ -> i

(* The branch target carried by an instruction, if any. *)
let branch_target (i : instr) : int option =
  let r = ref None in
  ignore (retarget (fun t -> r := Some t; t) i);
  !r

(* Aim the branches at the given patch sites at [t]. *)
let patch_to (b : buf) (t : int) sites =
  let f _ = t in
  List.iter
    (fun i ->
      let ins = b.code.(i) in
      let ins' = retarget f ins in
      assert (ins' != ins);
      b.code.(i) <- ins')
    sites

(* Land the given patch sites on the frontier. *)
let land_patches b sites =
  if sites <> [] then begin
    patch_to b b.len sites;
    b.lastlab <- b.len
  end

(* Branch on a falsy condition whose compiled shape is [sh]; [fuse]
   folds the comparison just emitted into the branch. *)
let emit_cond_false b (sh : shape) =
  match sh with
  | SBox -> emit_patch b (IJumpIf (false, -1))
  | SInt -> emit_patch b (IJumpIfI (false, false, -1))

(* Move the top of the int stack over to the boxed stack. *)
let box_top b (sh : shape) = match sh with SBox -> () | SInt -> emit b IBoxI

let bop_of_assign (op : Ast.assign_op) : Ast.binop =
  match op with
  | Ast.AddAssign -> Ast.Add
  | Ast.SubAssign -> Ast.Sub
  | Ast.MulAssign -> Ast.Mul
  | Ast.DivAssign -> Ast.Div
  | Ast.ModAssign -> Ast.Mod
  | Ast.AndAssign -> Ast.BAnd
  | Ast.OrAssign -> Ast.BOr
  | Ast.XorAssign -> Ast.BXor
  | Ast.ShlAssign -> Ast.Shl
  | Ast.ShrAssign -> Ast.Shr
  | Ast.Assign -> assert false

(* The analysis's verdicts for the body being compiled: a local's
   bank, its index there, and whether a member is unboxed. *)
let int_local b i = b.u.ub_bank.(i) = BInt
let local_index b i = b.u.ub_index.(i)
let int_member b m = member_bank b.bk m = BInt
let slots b m = banked_slots b.bk m

(* an lvalue the typed store/compound/incdec paths handle *)
let int_lval b (lv : rlval) =
  match lv with
  | LvLocal i -> int_local b i
  | LvField (_, _, m) -> int_member b m
  | _ -> false

(* Static shape prediction. Needed only where the compiler must commit
   to a stack before a subexpression is emitted (the lhs of a binop
   whose rhs is boxed, [&&]/[||] arms). It is syntax-directed over the
   same cases as [compile_expr], so the two always agree; even if they
   ever diverged, the cost would be an extra box bridge, never a
   semantic change — [compile_expr]'s returned shape is authoritative. *)
let rec shape_of b (e : rexpr) : shape =
  match e with
  | RConst (VInt _) -> SInt
  | RLocal i when int_local b i -> SInt
  | RField (_, _, m) when int_member b m -> SInt
  | RUnary (_, a) | RCastInt a -> shape_of b a
  | RBinary (_, x, y) ->
      if shape_of b x = SInt && shape_of b y = SInt then SInt else SBox
  | (RAssign (lv, rhs, _) | RCompound (_, lv, rhs, _)) when int_lval b lv ->
      shape_of b rhs
  | RIncDec (_, _, lv) when int_lval b lv -> SInt
  | _ -> SBox

(* No argument from [i] on can tick, write or fail. A plain recursion:
   [Array.for_all] would allocate its loop closure per call. *)
let rec inert_args (args : arg_mode array) i =
  i >= Array.length args
  || (match args.(i) with
     | AVal (RConst _ | RLocal _ | RGlobal _ | RStatic _) -> true
     | _ -> false)
     && inert_args args (i + 1)

type loopctx = { mutable brk : int list; mutable cont : int list; base : int }

(* [compile_expr] returns the shape of the value it left behind: which
   operand stack holds the result. Typed results stay untagged until a
   consumer genuinely needs a boxed value ([compile_expr_box]); the box
   bridges are ordinary instructions, so a conservative prediction can
   only cost a bridge dispatch, never change semantics. *)
let rec compile_expr b (e : rexpr) : shape =
  match e with
  | RConst (VInt n) -> emit b (IConstI n); SInt
  | RConst v -> emit b (IConst v); SBox
  | RLocal i ->
      if int_local b i then (emit b (ILoadI (false, local_index b i)); SInt)
      else (emit b (ILoad (false, local_index b i)); SBox)
  | RLocalRef i -> emit b (ILoadRef (local_index b i)); SBox
  | RGlobal i -> emit b (IGlobal i); SBox
  | RStatic i -> emit b (IStatic i); SBox
  | RThis -> emit b IThis; SBox
  | RUnary (op, a) -> (
      match compile_expr b a with
      | SInt ->
          emit b (IUnaryI op);
          SInt
      | SBox ->
          emit b (IUnary op);
          SBox)
  | RBinary (Ast.LAnd, x, y) ->
      if shape_of b x = SInt && shape_of b y = SInt then begin
        (match compile_expr b x with SInt -> () | _ -> assert false);
        let j = emit_patch b (IShortCircuitI (false, -1)) in
        (match compile_expr b y with SInt -> () | _ -> assert false);
        emit b IToBoolI;
        land_patches b [ j ];
        SInt
      end
      else begin
        compile_expr_box b x;
        let j = emit_patch b (IShortCircuit (false, -1)) in
        compile_expr_box b y;
        emit b IToBool;
        land_patches b [ j ];
        SBox
      end
  | RBinary (Ast.LOr, x, y) ->
      if shape_of b x = SInt && shape_of b y = SInt then begin
        (match compile_expr b x with SInt -> () | _ -> assert false);
        let j = emit_patch b (IShortCircuitI (true, -1)) in
        (match compile_expr b y with SInt -> () | _ -> assert false);
        emit b IToBoolI;
        land_patches b [ j ];
        SInt
      end
      else begin
        compile_expr_box b x;
        let j = emit_patch b (IShortCircuit (true, -1)) in
        compile_expr_box b y;
        emit b IToBool;
        land_patches b [ j ];
        SBox
      end
  | RBinary (op, x, y) -> (
      let sx = compile_expr b x in
      (* if the rhs will be boxed, bridge the lhs now so the two reach
         the boxed stack in evaluation order (boxing is pure) *)
      let sx =
        if sx <> SBox && shape_of b y = SBox then begin
          box_top b sx;
          SBox
        end
        else sx
      in
      let sy = compile_expr b y in
      match (sx, sy) with
      | SBox, sy ->
          box_top b sy;
          emit b (IBinop op);
          SBox
      | SInt, SInt ->
          emit b (IBinopII op);
          SInt
      | SInt, SBox ->
          (* the prediction promised a typed rhs; bridge the lhs under
             the boxed rhs instead *)
          emit b IBoxIU;
          emit b (IBinop op);
          SBox)
  | RAssign (lhs, rhs, ty) -> compile_assign b lhs rhs ty ~keep:true
  | RCompound (op, lhs, rhs, ty) -> compile_compound b op lhs rhs ty ~keep:true
  | RIncDec (w, fx, lv) -> compile_incdec b w fx lv ~keep:true
  | RCond (c, t, f) ->
      let shc = compile_expr b c in
      let j1 = emit_cond_false b shc in
      let d0 = b.od and di0 = b.iod in
      compile_expr_box b t;
      let j2 = emit_patch b (IJump (-1)) in
      land_patches b [ j1 ];
      (* the two arms join at the same depth on both stacks *)
      b.od <- d0;
      b.iod <- di0;
      compile_expr_box b f;
      land_patches b [ j2 ];
      SBox
  | RCastInt a -> (
      match compile_expr b a with
      | SInt -> SInt
      | SBox ->
          emit b ICastInt;
          SBox)
  | RCastFloat a ->
      compile_expr_box b a;
      emit b ICastFloat;
      SBox
  | RField (oe, _, m) ->
      compile_recv b oe;
      if int_member b m then (emit b (IFieldI (slots b m, m)); SInt)
      else (emit b (IField (slots b m, m)); SBox)
  | RCall c ->
      compile_call b c;
      SBox
  | RAddrOf lv ->
      compile_lval b lv;
      emit b IAddrOf;
      SBox
  | RDeref a ->
      compile_expr_box b a;
      emit b IDeref;
      SBox
  | RIndex (a, i) ->
      compile_expr_box b a;
      (match compile_expr b i with
      | SInt -> emit b IIndexI
      | SBox -> emit b IIndex);
      SBox
  | RMemPtrDeref (recv, pm) ->
      (* the receiver must be an object before the member pointer is even
         evaluated — same error order as the tree engine *)
      compile_expr_box b recv;
      emit b IAsObj;
      compile_expr_box b pm;
      emit b IMemPtrDeref;
      SBox
  | RNewObj { no_cid; no_cls; no_ctor; no_args } ->
      compile_args b no_args;
      emit b
        (INewObj
           {
             n_cid = no_cid;
             n_cls = no_cls;
             n_ctor = no_ctor;
             n_argc = Array.length no_args;
           });
      SBox
  | RNewScalar { ns_bytes; ns_ty } ->
      emit b (INewScalar (ns_bytes, ns_ty));
      SBox
  | RNewArrObj { na_cid; na_cls; na_ctor; na_len } ->
      compile_expr_box b na_len;
      emit b (INewArrObj { w_cid = na_cid; w_cls = na_cls; w_ctor = na_ctor });
      SBox
  | RNewArrScalar { nas_ty; nas_elem_bytes; nas_len } ->
      compile_expr_box b nas_len;
      emit b (INewArrScalar (nas_ty, nas_elem_bytes));
      SBox
  | RInvalid msg ->
      emit b (IRaise msg);
      SBox

and compile_expr_box b (e : rexpr) = box_top b (compile_expr b e)

(* The object of a member access or call. [this] there is a load of
   the frame's receiver slot, one past the body's boxed locals (see
   [new_frame]), so the local-rooted fusions cover it; as a value it
   stays [IThis], a pointer even to a stack receiver. *)
and compile_recv b (e : rexpr) =
  match e with
  | RThis -> emit b (ILoad (false, b.u.ub_shape.nbox))
  | _ -> compile_expr_box b e

(* Assignment, in expression ([~keep:true]: the stored value stays for
   the surrounding expression) or statement position. The lhs location
   is established before the rhs runs, exactly as the tree engine's
   [eval_lval]-then-[eval] order; for unboxed members that means
   [ILocFieldI] resolves the slot (and raises any
   missing-member error) first. Cross-shape stores bridge through the
   boxed instruction forms, which run the same [coerce] the tree engine
   ran. *)
and compile_assign b (lhs : rlval) rhs ty ~keep : shape =
  match lhs with
  | LvLocal i when not (int_local b i) ->
      let i = local_index b i in
      compile_expr_box b rhs;
      emit b (IStoreLocal (keep, i, ty, false));
      SBox
  | LvLocal i -> (
      let i = local_index b i in
      match compile_expr b rhs with
      | SInt ->
          emit b (IStoreLocalI (keep, ic_of_ty ty, i));
          SInt
      | SBox ->
          emit b (IStoreLocalIB (keep, ty, i));
          SBox)
  | LvField (oe, _, m) when int_member b m -> (
      compile_recv b oe;
      emit b (ILocFieldI (slots b m, m));
      match compile_expr b rhs with
      | SInt ->
          emit b (IAssignFieldI (keep, ic_of_ty ty));
          SInt
      | SBox ->
          emit b (IAssignFieldIB (keep, ty));
          SBox)
  | _ ->
      compile_lval b lhs;
      compile_expr_box b rhs;
      emit b (IAssign ty);
      if not keep then emit b IPop;
      SBox

and compile_compound b op (lhs : rlval) rhs ty ~keep : shape =
  match lhs with
  | LvLocal i when int_local b i -> (
      let i = local_index b i in
      match compile_expr b rhs with
      | SInt ->
          emit b (ICompoundLocalI (keep, bop_of_assign op, ic_of_ty ty, i));
          SInt
      | SBox ->
          emit b (ICompoundLocalB (keep, op, ty, i));
          SBox)
  | LvField (oe, _, m) when int_member b m -> (
      compile_recv b oe;
      emit b (ILocFieldI (slots b m, m));
      match compile_expr b rhs with
      | SInt ->
          emit b (ICompoundFieldI (keep, bop_of_assign op, ic_of_ty ty));
          SInt
      | SBox ->
          emit b (ICompoundFieldB (keep, op, ty));
          SBox)
  | _ ->
      compile_lval b lhs;
      compile_expr_box b rhs;
      emit b (ICompound (op, ty));
      if not keep then emit b IPop;
      SBox

and compile_incdec b w fx (lv : rlval) ~keep : shape =
  match lv with
  | LvLocal i when not (int_local b i) ->
      emit b (IIncDecLocal (keep, w, fx, local_index b i));
      SBox
  | LvLocal i ->
      emit b (IIncDecLocalI (keep, w, fx, local_index b i));
      SInt
  | LvField (oe, _, m) when int_member b m ->
      compile_recv b oe;
      emit b (ILocFieldI (slots b m, m));
      emit b (IIncDecFieldI (keep, w, fx));
      SInt
  | _ ->
      compile_lval b lv;
      emit b (IIncDec (w, fx));
      if not keep then emit b IPop;
      SBox

and compile_lval b (lv : rlval) =
  match lv with
  | _ when int_lval b lv ->
      (* unreachable: the analysis demotes every address-taken or
         reference-bound slot to the boxed bank, and the typed
         store/compound/incdec paths intercept the rest *)
      emit b (IRaise "cannot take the address of an unboxed slot")
  | LvLocal i -> emit b (ILocLocal (local_index b i))
  | LvLocalRef i -> emit b (ILocLocalRef (local_index b i))
  | LvGlobal i -> emit b (ILocGlobal i)
  | LvStatic i -> emit b (ILocStatic i)
  | LvField (oe, _, m) ->
      compile_recv b oe;
      emit b (ILocField (slots b m, m))
  | LvDeref a ->
      compile_expr_box b a;
      emit b ILocDeref
  | LvIndex (a, i) ->
      compile_expr_box b a;
      compile_expr_box b i;
      emit b ILocIndex
  | LvMemPtrDeref (recv, pm) ->
      compile_expr_box b recv;
      emit b IAsObj;
      compile_expr_box b pm;
      emit b ILocMemPtr
  | LvInvalid msg -> emit b (IRaise msg)

and compile_arg b (a : arg_mode) =
  match a with
  | AVal e -> compile_expr_box b e
  | ARefScalar lv ->
      compile_lval b lv;
      emit b ILocToPtr
  | ARefObj e ->
      compile_expr_box b e;
      emit b IObjToPtr

and compile_args b (args : arg_mode array) = Array.iter (compile_arg b) args

(* A call finds a missing receiver in the slot only when it runs, after
   its arguments; the tree engine fails on [this] before them. So a call
   reads the slot only when no argument can tick, write or fail, and
   otherwise takes [this] as a value, which fails at once. *)
and compile_call_recv b recv (args : arg_mode array) =
  if inert_args args 0 then compile_recv b recv
  else compile_expr_box b recv

and compile_call b (c : rcall) =
  match c with
  | RBuiltin (bi, args) ->
      Array.iter (compile_expr_box b) args;
      emit b (IBuiltin (bi, Array.length args))
  | RCallFunc { cf_func; cf_args } ->
      compile_args b cf_args;
      emit b (ICallFunc (cf_func, Array.length cf_args))
  | RCallMethod { cm_recv; cm_arrow; cm_func; cm_args } ->
      compile_call_recv b cm_recv cm_args;
      compile_args b cm_args;
      emit b
        (ICallMethod
           { m_func = cm_func; m_argc = Array.length cm_args; m_arrow = cm_arrow })
  | RCallVirtual { cv_recv; cv_name; cv_table; cv_args } ->
      compile_call_recv b cv_recv cv_args;
      compile_args b cv_args;
      emit b
        (ICallVirtual
           { v_name = cv_name; v_table = cv_table; v_argc = Array.length cv_args })
  | RCallFunPtr { fp_fn; fp_args } ->
      compile_expr_box b fp_fn;
      compile_args b fp_args;
      emit b (ICallFunPtr (Array.length fp_args))

and compile_decl b (d : rdecl) =
  match d with
  | DScalar { d_slot; d_ty } ->
      let i = local_index b d_slot in
      emit b
        (if int_local b d_slot then IDeclScalarI i else IDeclScalar (i, d_ty))
  | DStackArrObj { d_slot; d_cid; d_cls; d_ctor; d_len } ->
      emit b
        (IDeclStackArr
           {
             ds_slot = local_index b d_slot;
             ds_cid = d_cid;
             ds_cls = d_cls;
             ds_ctor = d_ctor;
             ds_len = d_len;
           })
  | DExpr { d_slot; d_coerce; d_init } when not (int_local b d_slot) ->
      compile_expr_box b d_init;
      emit b (IStoreLocal (false, local_index b d_slot, d_coerce, false))
  | DExpr { d_slot; d_coerce; d_init } -> (
      let d_slot = local_index b d_slot in
      match compile_expr b d_init with
      | SInt -> emit b (IStoreLocalI (false, ic_of_ty d_coerce, d_slot))
      | SBox -> emit b (IStoreLocalIB (false, d_coerce, d_slot)))
  | DRefExpr { d_slot; d_init; d_lv } ->
      (* the initializer is evaluated for its value first, then again as
         a location, exactly as the tree engine did *)
      compile_expr_box b d_init;
      emit b IPop;
      compile_lval b d_lv;
      emit b ILocToPtr;
      emit b (IStoreRawPop (local_index b d_slot))
  | DCtor { d_slot; d_cid; d_cls; d_ctor; d_args } ->
      compile_args b d_args;
      emit b
        (IDeclCtor
           {
             dc_slot = local_index b d_slot;
             dc_cid = d_cid;
             dc_cls = d_cls;
             dc_ctor = d_ctor;
             dc_argc = Array.length d_args;
           })
  | DFail msg -> emit b (IRaise msg)

(* An expression in statement position: its value is dropped, so route
   stores/compounds/incdecs to their pop forms directly (the direct
   forms keep the statement-level superinstruction fusions reachable). *)
(* Compile a condition in branch context: fall through when [c] is
   true, jump via the returned patch sites when it is false. A typed
   [&&] chain becomes cascaded branch-falses instead of a materialized
   boolean: each arm short-circuits straight to the join, and every
   comparison lands adjacent to its own branch, where [fuse] folds it
   into the branch. Restricted to int-shaped arms so
   falsiness is exactly [= 0] on both paths. *)
and compile_cond_false b (c : rexpr) : int list =
  match c with
  | RBinary (Ast.LAnd, x, y) when shape_of b x = SInt && shape_of b y = SInt ->
      let jx = compile_cond_false b x in
      let jy = compile_cond_false b y in
      jx @ jy
  | _ ->
      let sh = compile_expr b c in
      [ emit_cond_false b sh ]

and compile_expr_stmt b (e : rexpr) =
  match e with
  | RAssign (lhs, rhs, ty) -> ignore (compile_assign b lhs rhs ty ~keep:false)
  | RCompound (op, lhs, rhs, ty) ->
      ignore (compile_compound b op lhs rhs ty ~keep:false)
  | RIncDec (w, fx, lv) -> ignore (compile_incdec b w fx lv ~keep:false)
  | e -> (
      match compile_expr b e with
      | SBox -> emit b IPop
      | SInt -> emit b IPopI)

(* A scope's destroy list, cut down to its owning boxed slots (see
   [Resolve.unit_banks]) in their boxed-bank numbering, reverse
   declaration order kept. *)
and destroy_list b (slots : int array) =
  let u = b.u in
  Array.of_list
    (List.filter_map
       (fun s ->
         if u.ub_bank.(s) = BBox && u.ub_owns.(s) then Some u.ub_index.(s)
         else None)
       (Array.to_list slots))

and compile_stmt b (lc : loopctx option) (s : rstmt) =
  emit b (ITickN 1);
  match s with
  | RSExpr e -> compile_expr_stmt b e
  | RSDecl ds -> List.iter (compile_decl b) ds
  | RSBlock (body, destroy) ->
      let destroy = destroy_list b destroy in
      if Array.length destroy = 0 then Array.iter (compile_stmt b lc) body
      else begin
        emit b (IPushScope destroy);
        b.sdepth <- b.sdepth + 1;
        b.scoped <- true;
        Array.iter (compile_stmt b lc) body;
        b.sdepth <- b.sdepth - 1;
        emit b IPopScope
      end
  | RSIf (c, t, e) -> (
      let js = compile_cond_false b c in
      compile_stmt b lc t;
      match e with
      | None -> land_patches b js
      | Some es ->
          let j2 = emit_patch b (IJump (-1)) in
          land_patches b js;
          compile_stmt b lc es;
          land_patches b [ j2 ])
  | RSWhile (c, body) ->
      let top = here b in
      let jend = compile_cond_false b c in
      let lc' = { brk = []; cont = []; base = b.sdepth } in
      compile_stmt b (Some lc') body;
      emit b (IJump top);
      patch_to b top lc'.cont;  (* continue re-tests the condition *)
      land_patches b (jend @ lc'.brk)
  | RSDoWhile (body, c) ->
      let top = here b in
      let lc' = { brk = []; cont = []; base = b.sdepth } in
      compile_stmt b (Some lc') body;
      land_patches b lc'.cont;  (* continue falls into the condition *)
      (match compile_expr b c with
      | SBox -> emit b (IJumpIf (true, top))
      | SInt -> emit b (IJumpIfI (true, false, top)));
      land_patches b lc'.brk
  | RSFor { rf_init; rf_cond; rf_step; rf_body; rf_destroy } ->
      (* the destroy scope covers init + body, as the tree engine's
         [Fun.protect] around [exec_for] did; break exits to the scope
         pop, not past it *)
      let rf_destroy = destroy_list b rf_destroy in
      let scoped = Array.length rf_destroy > 0 in
      if scoped then begin
        emit b (IPushScope rf_destroy);
        b.sdepth <- b.sdepth + 1;
        b.scoped <- true
      end;
      Option.iter (compile_stmt b lc) rf_init;
      let top = here b in
      let jend =
        match rf_cond with Some c -> compile_cond_false b c | None -> []
      in
      let lc' = { brk = []; cont = []; base = b.sdepth } in
      compile_stmt b (Some lc') rf_body;
      land_patches b lc'.cont;
      (match rf_step with Some e -> compile_expr_stmt b e | None -> ());
      emit b (IJump top);
      land_patches b (jend @ lc'.brk);
      if scoped then begin
        b.sdepth <- b.sdepth - 1;
        emit b IPopScope
      end
  | RSReturn None -> emit b IReturnUnit
  | RSReturn (Some e) ->
      compile_expr_box b e;
      emit b IReturn
  | RSBreak -> (
      match lc with
      | Some l ->
          let n = b.sdepth - l.base in
          if n > 0 then emit b (IExitScopes n);
          l.brk <- emit_patch b (IJump (-1)) :: l.brk
      | None -> emit b (IRaise "break outside a loop"))
  | RSContinue -> (
      match lc with
      | Some l ->
          let n = b.sdepth - l.base in
          if n > 0 then emit b (IExitScopes n);
          l.cont <- emit_patch b (IJump (-1)) :: l.cont
      | None -> emit b (IRaise "continue outside a loop"))
  | RSDelete e ->
      compile_expr_box b e;
      emit b IDelete
  | RSEmpty -> ()

(* [code] holds an [ILocLocal]/[ILocLocalRef] at or after [pc]. A plain
   recursion: [Array.exists] would allocate its loop closure per body. *)
let rec takes_local_address (code : instr array) pc =
  pc < Array.length code
  &&
  match code.(pc) with
  | ILocLocal _ | ILocLocalRef _ -> true
  | _ -> takes_local_address code (pc + 1)

let finish (b : buf) : cbody =
  let code = Array.sub b.code 0 b.len in
  (* Branch-target inlining, after all patching: a list-scan loop runs
     [guard -> (false edge) -> step -> back edge] with the step only
     *jump*-adjacent to the guard, so emit-time fusion can never see
     the pair. Replicate the step into the guard's false arm instead;
     the step's slot stays for the fall-in (then-branch) path. The tick
     and error sequence of the combined arm is the exact concatenation
     of the two instructions. The typed guard reads an int member; the
     step stays boxed (a pointer). *)
  Array.iteri
    (fun i ins ->
      match ins with
      | ITickLoadFieldCmpLocFalse (j, s, m, op, n, true, texit)
      | ITickLoadFieldCmpLocFalseI (j, s, m, op, n, true, texit)
        when texit >= 0 && texit < Array.length code -> (
          match code.(texit) with
          | ITickLoadFieldStoreJump (a, s2, m2, bdst, ty, tback) ->
              code.(i) <-
                (match ins with
                | ITickLoadFieldCmpLocFalse _ ->
                    IScanStep (j, s, m, op, n, a, s2, m2, bdst, ty, tback)
                | _ -> IScanStepI (j, s, m, op, n, a, s2, m2, bdst, ty, tback))
          | _ -> ())
      | _ -> ())
    code;
  Array.iteri
    (fun i ins ->
      match ins with
      | IJumpLocCmpConstFalse (x, op0, v0, true, texit0)
        when i + 1 < Array.length code -> (
          match code.(i + 1) with
          | IScanStep (j, s, m, op, n, a, s2, m2, bdst, ty, tback)
            when tback = i ->
              code.(i) <-
                ILoopScan
                  (x, op0, v0, texit0, j, s, m, op, n, a, s2, m2, bdst, ty)
          | _ -> ())
      | _ -> ())
    code;
  {
    b_code = code;
    b_omax = b.omax + 8;  (* slack over the conservative linear estimate *)
    b_imax = (if b.iomax = 0 then 0 else b.iomax + 8);
    b_scoped = b.scoped;
    b_escapes = takes_local_address code 0;
    b_id = -1;
  }

(* A statement body (function, constructor tail, destructor): falls off
   the end returning [VUnit], like the tree engine's implicit return. *)
let compile_body_stmt bk u (s : rstmt) : cbody =
  let b = mk_buf bk u in
  compile_stmt b None s;
  emit b IReturnUnit;
  finish b

(* Constructor: virtual-base calls first (skipped via [kc_entry] when
   not most-derived), then direct bases, member initializers, body.
   The per-level tick is issued by the VM's [run_ctor], not in code. *)
let compile_ctor bk u (plan : ctor_plan) : int * cbody =
  let b = mk_buf bk u in
  Array.iter
    (fun (bp : base_plan) ->
      compile_args b bp.bp_args;
      emit b (ICallCtor (bp.bp_ctor, Array.length bp.bp_args)))
    plan.cp_vbases;
  let entry = b.len in
  Array.iter
    (fun (bp : base_plan) ->
      compile_args b bp.bp_args;
      emit b (ICallCtor (bp.bp_ctor, Array.length bp.bp_args)))
    plan.cp_bases;
  Array.iter
    (fun fp ->
      match fp with
      | FPClass { fc_member; fc_cid; fc_cls; fc_ctor; fc_args; _ } ->
          compile_args b fc_args;
          emit b
            (IInitField
               {
                 if_slots = slots b fc_member;
                 if_member = fc_member;
                 if_cid = fc_cid;
                 if_cls = fc_cls;
                 if_ctor = fc_ctor;
                 if_argc = Array.length fc_args;
               })
      | FPClassArr { fa_member; fa_cid; fa_cls; fa_ctor; fa_len; _ } ->
          emit b
            (IInitFieldArr
               {
                 ia_slots = slots b fa_member;
                 ia_member = fa_member;
                 ia_cid = fa_cid;
                 ia_cls = fa_cls;
                 ia_ctor = fa_ctor;
                 ia_len = fa_len;
               })
      | FPScalar { fs_member; fs_coerce; fs_init; _ } -> (
          (* initializer evaluated and coerced before the slot lookup,
             matching the tree engine's store order *)
          let fs_slots = slots b fs_member in
          match member_bank b.bk fs_member with
          | BBox ->
              compile_expr_box b fs_init;
              emit b
                (IInitFieldScalar
                   {
                     is_slots = fs_slots;
                     is_member = fs_member;
                     is_coerce = fs_coerce;
                   })
          | BInt -> (
              match compile_expr b fs_init with
              | SInt ->
                  emit b
                    (IInitFieldScalarI (fs_slots, fs_member, ic_of_ty fs_coerce))
              | SBox ->
                  emit b (IInitFieldScalarB (fs_slots, fs_member, fs_coerce))))
      | FPBadInit -> emit b (IRaise "bad scalar member initializer"))
    plan.cp_fields;
  (match plan.cp_body with None -> () | Some body -> compile_stmt b None body);
  emit b IReturnUnit;
  (entry, finish b)

(* Global initializer: the bare expression (no tick — the tree engine
   evaluated these outside any statement). *)
let compile_ginit bk (e : rexpr) : cbody =
  let b = mk_buf bk bk.bk_globals in
  compile_expr_box b e;
  emit b IReturn;
  finish b

let compile (rp : rprogram) : cprogram =
  Telemetry.Span.with_ "bytecode" @@ fun () ->
  let bk = Resolve.banks rp in
  let total = ref 0 in
  let bodies_rev = ref [] in
  let owners_rev = ref [] in
  let nbodies = ref 0 in
  (* register a compiled body: assign its id and remember its owner so
     the profiler can attribute per-pc counts back to a name *)
  let fin ~owner ?fidx (cb : cbody) =
    total := !total + Array.length cb.b_code;
    cb.b_id <- !nbodies;
    incr nbodies;
    bodies_rev := cb :: !bodies_rev;
    owners_rev := (owner, fidx) :: !owners_rev;
    cb
  in
  let cp_funcs =
    Array.mapi
      (fun fidx (rf : rfunc) ->
        let owner = Func_id.to_string rf.rf_id in
        let u = bk.bk_funcs.(fidx) in
        let kind =
          match rf.rf_code with
          | CBody s -> KBody (fin ~owner ~fidx (compile_body_stmt bk u s))
          | CCtor plan ->
              let entry, cb = compile_ctor bk u plan in
              KCtor { kc_body = fin ~owner ~fidx cb; kc_entry = entry }
          | CDtor -> KDtor
          | CUnknown -> KUnknown
          | CUndefined -> KUndefined
          | CMissingCtor -> KMissingCtor
        in
        let param (p : rparam) =
          let i = u.ub_index.(p.rp_slot) in
          if p.rp_ref then PRef i
          else
            match u.ub_bank.(p.rp_slot) with
            | BBox -> PBox (i, p.rp_coerce)
            | BInt -> PInt (i, p.rp_coerce)
        in
        {
          c_id = rf.rf_id;
          c_frame = u.ub_shape;
          c_params = Array.map param rf.rf_params;
          c_kind = kind;
        })
      rp.rp_funcs
  in
  let banked = function
    | DFClass (_, m) -> DFClass (banked_slots bk m, m)
    | DFClassArr (_, m) -> DFClassArr (banked_slots bk m, m)
  in
  let cp_destroy =
    Array.mapi
      (fun cid (ci : class_info) ->
        let dp = rp.rp_destroy.(cid) in
        {
          cd_dtor =
            (match (dp.dp_dtor, bk.bk_dtors.(cid)) with
            | Some (_, body), Some u ->
                Some
                  ( u.ub_shape,
                    fin
                      ~owner:(Printf.sprintf "%s::~%s" ci.ci_name ci.ci_name)
                      (compile_body_stmt bk u body) )
            | _ -> None);
          cd_fields = Array.map banked dp.dp_fields;
          cd_nv_bases = dp.dp_nv_bases;
          cd_vbases_rev = ci.ci_vbases_rev;
        })
      rp.rp_classes
  in
  let cp_ginit =
    Array.map
      (fun (g : rglobal) ->
        Option.map
          (fun e ->
            fin
              ~owner:(Printf.sprintf "global-init:%s" g.rg_name)
              (compile_ginit bk e))
          g.rg_init)
      rp.rp_globals
  in
  Telemetry.Counter.add instrs_counter !total;
  Telemetry.Counter.add bodies_counter !nbodies;
  {
    cp_rp = rp;
    cp_classes = bk.bk_classes;
    cp_funcs;
    cp_destroy;
    cp_ginit;
    cp_bodies = Array.of_list (List.rev !bodies_rev);
    cp_owners = Array.of_list (List.rev !owners_rev);
  }

(* == virtual machine ========================================================== *)

type vm = {
  cp : cprogram;
  funcs : cfunc array;
  classes : class_info array;
  destroy : cdestroy array;
  profile : Profile.t;
  globals : harray;
  statics : harray;
  output : Buffer.t;
  mutable obj_counter : int;
  mutable steps : int;
  step_limit : int;
  (* nearer of [step_limit] and the next deadline checkpoint: the hot
     tick is one compare against it, everything else is cold *)
  mutable next_stop : int;
  mutable call_depth : int;
  mutable max_call_depth : int;
  call_depth_limit : int;
  heap_object_limit : int;
  (* hot-site profiler rows, or [[||]] when profiling is off: the
     dispatch loop tests emptiness once per body entry, the call path
     once per call — one predictable branch each when disabled *)
  prof_counts : int array array;
  prof_calls : int array;
  (* Activation pools, indexed by activation depth: [act] counts the
     live [exec_code] entries (constructors run at their caller's call
     depth but are activations of their own). An entry's operand stacks
     always come from the pool at its depth, its locals too unless its
     body lets their address escape ([b_escapes]). A normal return
     restores [act]; an exception may leave it high, which is safe:
     every activation above the handler is dead, so the slots it skips
     belong to nobody. The four arrays grow together, on demand. *)
  mutable act : int;
  mutable pool_ost : value array array;
  mutable pool_ist : int array array;
  mutable pool_locals : harray array;
  mutable pool_ilocals : int array array;
}

let empty_vals : value array = [||]

(* shared empty locals: the pool's initial entry at every depth *)
let no_locals : harray = { arr_id = -1; cells = empty_vals }

(* shared sentinel: "no profiling rows for this body" *)
let no_prof_row : int array = [||]

(* Shared scope stack for bodies that never open a destroy scope
   ([b_scoped = false] implies no [IPushScope] in the code). *)
let no_scopes : int array list ref = ref []

let fresh_obj_id vm =
  let id = vm.obj_counter in
  if id >= vm.heap_object_limit then
    limit_exceeded "object limit exceeded (%d): possible runaway allocation"
      vm.heap_object_limit;
  vm.obj_counter <- id + 1;
  id

(* Reached every [deadline_check_interval] steps, or past the step
   limit — never on the per-step fast path (same scheme, and so the
   same raising step counts, as the tree engine). *)
let[@inline never] slow_tick vm =
  if vm.steps > vm.step_limit then
    limit_exceeded "step limit exceeded (%d): possible non-termination"
      vm.step_limit;
  check_deadline ();
  vm.next_stop <- min vm.step_limit (vm.steps + deadline_check_interval)

(* [ITickN]'s cold half: [s] is the already-batched step count. *)
let[@inline never] slow_tick_n vm s =
  if s > vm.step_limit then begin
    (* the raising tick leaves the same count the tree engine did *)
    vm.steps <- vm.step_limit + 1;
    limit_exceeded "step limit exceeded (%d): possible non-termination"
      vm.step_limit
  end;
  check_deadline ();
  vm.next_stop <- min vm.step_limit (s + deadline_check_interval)

let[@inline] tick vm =
  vm.steps <- vm.steps + 1;
  if vm.steps > vm.next_stop then slow_tick vm

(* Locations on the operand stack are pointer values (see the
   instruction-set comment). *)
let loc_read = function
  | VPtr (PArr (h, i)) -> h.cells.(i)
  | _ -> assert false

let loc_write l v =
  match l with
  | VPtr (PArr (h, i)) -> h.cells.(i) <- v
  | _ -> assert false

(* [Value.ptr_of_loc]'s arr_id = -1 re-wrap, applied when a location
   escapes as a pointer value. *)
let loc_to_ptr = function
  | VPtr (PArr (h, i)) when h.arr_id <> -1 ->
      VPtr (PArr ({ arr_id = -1; cells = h.cells }, i))
  | l -> l

let cmp_test_slow op va vb =
  match op with
  | Ast.Eq -> value_eq va vb
  | Ast.Ne -> not (value_eq va vb)
  | _ -> compare_test op va vb

(* [value_eq] on object pointers and nulls: identity of the object. *)
let[@inline] same_object va vb =
  match (va, vb) with
  | VPtr (PObj a), VPtr (PObj b) -> a == b
  | VNull, VNull -> true
  | _ -> false

(* Int-int is the overwhelmingly common case in every benchmark's loop
   conditions; dispatch on the operator directly instead of computing a
   three-way compare first. [==]/[!=] on object pointers and nulls (list
   scans against NULL, receiver tests) compare identity the same way.
   Semantically identical to the slow path. *)
let[@inline] cmp_test op va vb =
  match (va, vb) with
  | VInt x, VInt y -> (
      match op with
      | Ast.Lt -> x < y
      | Ast.Gt -> x > y
      | Ast.Le -> x <= y
      | Ast.Ge -> x >= y
      | Ast.Eq -> x = y
      | Ast.Ne -> x <> y
      | _ -> assert false)
  | (VPtr (PObj _) | VNull), (VPtr (PObj _) | VNull) -> (
      match op with
      | Ast.Eq -> same_object va vb
      | Ast.Ne -> not (same_object va vb)
      | _ -> cmp_test_slow op va vb)
  | _ -> cmp_test_slow op va vb

let binop_slow op va vb =
  match op with
  | Ast.Eq -> VInt (if value_eq va vb then 1 else 0)
  | Ast.Ne -> VInt (if value_eq va vb then 0 else 1)
  | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge -> compare_values op va vb
  | _ -> arith op va vb

(* Same fast path for value-producing binops; results go through the
   shared [vint] cache so loop-counter arithmetic stays off the minor
   heap. Error strings on Div/Mod match [Value.arith] exactly. *)
let[@inline] binop op va vb =
  match (va, vb) with
  | VInt x, VInt y -> (
      match op with
      | Ast.Add -> vint (x + y)
      | Ast.Sub -> vint (x - y)
      | Ast.Mul -> vint (x * y)
      | Ast.Div ->
          if y = 0 then runtime_error "division by zero" else vint (x / y)
      | Ast.Mod ->
          if y = 0 then runtime_error "modulo by zero" else vint (x mod y)
      | Ast.Lt -> if x < y then vtrue else vfalse
      | Ast.Gt -> if x > y then vtrue else vfalse
      | Ast.Le -> if x <= y then vtrue else vfalse
      | Ast.Ge -> if x >= y then vtrue else vfalse
      | Ast.Eq -> if x = y then vtrue else vfalse
      | Ast.Ne -> if x <> y then vtrue else vfalse
      | Ast.BAnd -> vint (x land y)
      | Ast.BOr -> vint (x lor y)
      | Ast.BXor -> vint (x lxor y)
      | Ast.Shl -> vint (x lsl y)
      | Ast.Shr -> vint (x asr y)
      | _ -> binop_slow op va vb)
  | _ -> binop_slow op va vb

let[@inline] incdec_new which old =
  let delta = match which with Ast.Incr -> 1 | Ast.Decr -> -1 in
  match old with
  | VInt n -> vint (n + delta)
  | VFloat f -> VFloat (f +. float_of_int delta)
  | VPtr (PArr (h, i)) -> VPtr (PArr (h, i + delta))
  | _ -> runtime_error "cannot increment this value"

(* The [a[i]] read shared by IIndex and its fused forms; [iv] is the
   already-coerced integer index. Error strings are the tree engine's. *)
let[@inline] index_read av iv =
  match av with
  | VArr h | VPtr (PArr (h, 0)) ->
      if iv < 0 || iv >= Array.length h.cells then
        runtime_error "array index %d out of bounds (size %d)" iv
          (Array.length h.cells);
      h.cells.(iv)
  | VPtr (PArr (h, off)) ->
      let j = off + iv in
      if j < 0 || j >= Array.length h.cells then
        runtime_error "array index out of bounds";
      h.cells.(j)
  | VStr s ->
      if iv < 0 || iv >= String.length s then VInt 0
      else VInt (Char.code s.[iv])
  | VNull -> runtime_error "indexing a null pointer"
  | _ -> runtime_error "indexing a non-array value"

(* ------------------------------------------------------------------ *)
(* Typed (untagged) operator semantics: the unboxed images of [binop], *)
(* [cmp_test] and [Value.arith] on operands whose tags the compiler    *)
(* already proved. Same results, same error strings, no dispatch.      *)
(* ------------------------------------------------------------------ *)

let[@inline] ibinop_i op (x : int) (y : int) : int =
  match op with
  | Ast.Add -> x + y
  | Ast.Sub -> x - y
  | Ast.Mul -> x * y
  | Ast.Div -> if y = 0 then runtime_error "division by zero" else x / y
  | Ast.Mod -> if y = 0 then runtime_error "modulo by zero" else x mod y
  | Ast.Lt -> if x < y then 1 else 0
  | Ast.Gt -> if x > y then 1 else 0
  | Ast.Le -> if x <= y then 1 else 0
  | Ast.Ge -> if x >= y then 1 else 0
  | Ast.Eq -> if x = y then 1 else 0
  | Ast.Ne -> if x <> y then 1 else 0
  | Ast.BAnd -> x land y
  | Ast.BOr -> x lor y
  | Ast.BXor -> x lxor y
  | Ast.Shl -> x lsl y
  | Ast.Shr -> x asr y
  | Ast.LAnd | Ast.LOr -> assert false (* never emitted as a binop *)

let[@inline] icmp op (x : int) (y : int) : bool =
  match op with
  | Ast.Lt -> x < y
  | Ast.Gt -> x > y
  | Ast.Le -> x <= y
  | Ast.Ge -> x >= y
  | Ast.Eq -> x = y
  | Ast.Ne -> x <> y
  | _ -> assert false

let[@inline] incdec_delta which =
  match which with Ast.Incr -> 1 | Ast.Decr -> -1

let[@inline never] grow_pools vm d =
  let n = max 8 (2 * (d + 1)) in
  let grow a fill =
    Array.init n (fun i -> if i < Array.length a then a.(i) else fill)
  in
  vm.pool_ost <- grow vm.pool_ost empty_vals;
  vm.pool_ist <- grow vm.pool_ist no_ints;
  vm.pool_locals <- grow vm.pool_locals no_locals;
  vm.pool_ilocals <- grow vm.pool_ilocals no_ints

(* [pool.(d)], replaced by a fresh [n]-slot array when it is shorter;
   the contents are stale, callers reset what they read first. *)
let pooled pool d n fill =
  let a = Array.get pool d in
  if Array.length a >= n then a
  else begin
    let a = Array.make n fill in
    Array.set pool d a;
    a
  end

(* The frame for an activation of [b] at depth [vm.act]: fresh when [b]
   can take its locals' address, otherwise the pooled banks at that
   depth, reset to [VUnit] / 0 as a fresh frame would be. The boxed
   slot past the shape's holds the receiver, [no_receiver] outside a
   method ([compile_recv]). A pooled bank may be longer; nothing reads
   past the receiver slot. *)
let new_frame vm (sh : fshape) (b : cbody) this =
  let fr =
    if b.b_escapes then mk_frame ~ints:sh.nint (sh.nbox + 1) this
    else begin
      let d = vm.act in
      if d >= Array.length vm.pool_locals then grow_pools vm d;
      let h = Array.get vm.pool_locals d in
      let h =
        if Array.length h.cells > sh.nbox then h
        else begin
          let h = { arr_id = -1; cells = Array.make (sh.nbox + 1) VUnit } in
          Array.set vm.pool_locals d h;
          h
        end
      in
      for i = 0 to sh.nbox - 1 do
        Array.set h.cells i VUnit
      done;
      let il = pooled vm.pool_ilocals d sh.nint 0 in
      for i = 0 to sh.nint - 1 do
        Array.set il i 0
      done;
      { locals = h; ilocals = il; this }
    end
  in
  Array.set fr.locals.cells sh.nbox
    (match this with VUnit -> no_receiver | v -> v);
  fr

let rec bind_params frame (cf : cfunc) (src : value array) base argc =
  let n = Array.length cf.c_params in
  if n <> argc then
    runtime_error "arity mismatch calling %s" (Func_id.to_string cf.c_id);
  for i = 0 to n - 1 do
    match cf.c_params.(i) with
    | PBox (j, ty) -> frame.locals.cells.(j) <- coerce ty src.(base + i)
    | PInt (j, ty) -> frame.ilocals.(j) <- as_int (coerce ty src.(base + i))
    | PRef j -> frame.locals.cells.(j) <- src.(base + i)
  done

(* Same protocol as the tree engine's [call_function]: depth guard and
   tick happen before the depth-restoring handler is installed, so a
   limit hit there leaves the depth incremented, exactly as the tree
   engine's pre-[Fun.protect] tick did. *)
and call_function vm fi ~this (src : value array) base argc : value =
  if Array.length vm.prof_calls <> 0 then
    Array.unsafe_set vm.prof_calls fi (Array.unsafe_get vm.prof_calls fi + 1);
  vm.call_depth <- vm.call_depth + 1;
  if vm.call_depth > vm.max_call_depth then
    vm.max_call_depth <- vm.call_depth;
  if vm.call_depth > vm.call_depth_limit then
    limit_exceeded "call depth limit exceeded (%d): possible runaway recursion"
      vm.call_depth_limit;
  tick vm;
  match invoke vm fi ~this src base argc with
  | v ->
      vm.call_depth <- vm.call_depth - 1;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      vm.call_depth <- vm.call_depth - 1;
      Printexc.raise_with_backtrace e bt

and invoke vm fi ~this (src : value array) base argc : value =
  let cf = vm.funcs.(fi) in
  match cf.c_kind with
  | KBody body ->
      let frame = new_frame vm cf.c_frame body this in
      bind_params frame cf src base argc;
      exec_code vm frame body 0
  | KCtor { kc_body; kc_entry } -> (
      match this with
      | VObj o | VPtr (PObj o) ->
          run_ctor vm o cf kc_body kc_entry ~most_derived:false src base argc;
          VUnit
      | _ -> runtime_error "constructor called without an object")
  | KDtor -> (
      match this with
      | VObj o | VPtr (PObj o) ->
          destroy_complete vm o;
          VUnit
      | _ -> runtime_error "destructor called without an object")
  | KMissingCtor -> (
      match this with
      | VObj _ | VPtr (PObj _) ->
          (* constructor dispatch ticked before discovering the body was
             missing, as in the tree engine *)
          tick vm;
          runtime_error "missing constructor %s" (Func_id.to_string cf.c_id)
      | _ -> runtime_error "constructor called without an object")
  | KUnknown ->
      runtime_error "call to unknown function %s" (Func_id.to_string cf.c_id)
  | KUndefined ->
      runtime_error "call to undefined (external) function %s"
        (Func_id.to_string cf.c_id)

and run_ctor vm (o : obj) (cf : cfunc) kc_body kc_entry ~most_derived
    (src : value array) base argc =
  tick vm;
  let frame = new_frame vm cf.c_frame kc_body (VObj o) in
  bind_params frame cf src base argc;
  ignore (exec_code vm frame kc_body (if most_derived then 0 else kc_entry))

(* Constructor dispatch without the call-depth protocol: base, virtual
   base and member-subobject constructors run at the caller's depth,
   matching the tree engine's direct [run_ctor_idx]. *)
and run_ctor_idx vm (o : obj) fi ~most_derived (src : value array) base argc =
  let cf = vm.funcs.(fi) in
  match cf.c_kind with
  | KCtor { kc_body; kc_entry } ->
      (* constructor runs outside [call_function] ([new], stack
         objects, base and member subobjects) count as calls too *)
      if Array.length vm.prof_calls <> 0 then
        Array.unsafe_set vm.prof_calls fi (Array.unsafe_get vm.prof_calls fi + 1);
      run_ctor vm o cf kc_body kc_entry ~most_derived src base argc
  | _ ->
      tick vm;
      runtime_error "missing constructor %s" (Func_id.to_string cf.c_id)

and construct_raw vm cid cls ctor (src : value array) base argc : obj =
  let id = fresh_obj_id vm in
  let o = new_obj_of vm.classes cid cls id in
  run_ctor_idx vm o ctor ~most_derived:true src base argc;
  o

and construct_journalled vm cid cls ctor (src : value array) base argc : obj =
  let id = fresh_obj_id vm in
  let o = new_obj_of vm.classes cid cls id in
  Profile.record_alloc vm.profile ~id ~cls ~count:1;
  run_ctor_idx vm o ctor ~most_derived:true src base argc;
  o

and destroy_complete vm (o : obj) = destroy_from vm o o.obj_cid ~most_derived:true

and destroy_from vm (o : obj) cid ~most_derived =
  tick vm;
  if cid >= 0 then begin
    let cd = vm.destroy.(cid) in
    (match cd.cd_dtor with
    | Some (fsize, body) ->
        ignore (exec_code vm (new_frame vm fsize body (VObj o)) body 0)
    | None -> ());
    (* member subobjects, reverse declaration order *)
    for k = 0 to Array.length cd.cd_fields - 1 do
      match cd.cd_fields.(k) with
      | DFClass (slots, _) -> (
          let s = if o.obj_cid >= 0 then slots.(o.obj_cid) else -1 in
          if s >= 0 then
            match o.fields.cells.(s) with
            | VObj sub -> destroy_complete vm sub
            | _ -> ())
      | DFClassArr (slots, _) -> (
          let s = if o.obj_cid >= 0 then slots.(o.obj_cid) else -1 in
          if s >= 0 then
            match o.fields.cells.(s) with
            | VArr h ->
                for j = 0 to Array.length h.cells - 1 do
                  match h.cells.(j) with
                  | VObj sub -> destroy_complete vm sub
                  | _ -> ()
                done
            | _ -> ())
    done;
    for k = 0 to Array.length cd.cd_nv_bases - 1 do
      destroy_from vm o cd.cd_nv_bases.(k) ~most_derived:false
    done;
    if most_derived then
      for k = 0 to Array.length cd.cd_vbases_rev - 1 do
        destroy_from vm o cd.cd_vbases_rev.(k) ~most_derived:false
      done
  end

and destroy_slots vm (locals : value array) (slots : int array) =
  Array.iter
    (fun s ->
      match locals.(s) with
      | VObj o ->
          destroy_complete vm o;
          Profile.record_free vm.profile o.obj_id;
          locals.(s) <- VUnit
      | VArr h when h.arr_id >= 0 ->
          Array.iter
            (function VObj o -> destroy_complete vm o | _ -> ())
            h.cells;
          Profile.record_free vm.profile h.arr_id;
          locals.(s) <- VUnit
      | _ -> ())
    slots

(* Unwind this invocation's destroy scopes around an in-flight
   exception: each scope's destructor failure replaces the exception
   with [Fun.Finally_raised], exactly as the nested [Fun.protect]s of
   the tree engine did. *)
and unwind_exn vm (locals : value array) scopes e =
  match !scopes with
  | [] -> e
  | slots :: rest -> (
      scopes := rest;
      match destroy_slots vm locals slots with
      | () -> unwind_exn vm locals scopes e
      | exception fe -> unwind_exn vm locals scopes (Fun.Finally_raised fe))

(* Scope destruction on the normal return path; a failure surfaces as
   [Finally_raised] and the in-loop handler unwinds the rest. *)
and ret_unwind vm (locals : value array) scopes =
  match !scopes with
  | [] -> ()
  | slots :: rest ->
      scopes := rest;
      (try destroy_slots vm locals slots
       with fe -> raise (Fun.Finally_raised fe));
      ret_unwind vm locals scopes

and exec_builtin vm (ost : value array) base (b : builtin) argc : unit =
  match (b, argc) with
  | BPrintInt, 1 ->
      Buffer.add_string vm.output (string_of_int (as_int ost.(base)))
  | BPrintChar, 1 ->
      Buffer.add_char vm.output (Char.chr (as_int ost.(base) land 255))
  | BPrintFloat, 1 ->
      Buffer.add_string vm.output (Printf.sprintf "%g" (as_float ost.(base)))
  | BPrintStr, 1 -> (
      match ost.(base) with
      | VStr s -> Buffer.add_string vm.output s
      | VNull -> runtime_error "print_str(NULL)"
      | _ -> runtime_error "bad builtin call")
  | BPrintNl, 0 -> Buffer.add_char vm.output '\n'
  | BFree, 1 -> (
      match ost.(base) with
      | VPtr (PObj o) -> Profile.record_free vm.profile o.obj_id
      | VPtr (PArr (h, _)) when h.arr_id >= 0 ->
          Profile.record_free vm.profile h.arr_id
      | VNull | VPtr _ -> ()
      | _ -> runtime_error "free of a non-pointer")
  | BAbort, 0 -> raise Abort_called
  | _ -> runtime_error "bad builtin call"

and exec_code vm (frame : frame) (b : cbody) (start : int) : value =
  let code = b.b_code in
  let d = vm.act in
  if d >= Array.length vm.pool_ost then grow_pools vm d;
  vm.act <- d + 1;
  let ost = pooled vm.pool_ost d b.b_omax VUnit in
  (* Untagged operand stack: int operands live here, never boxed;
     purely generic bodies keep the bound at 0. *)
  let ist = pooled vm.pool_ist d b.b_imax 0 in
  let locals = frame.locals.cells in
  let ilocals = frame.ilocals in
  let scopes = if b.b_scoped then ref [] else no_scopes in
  let prow =
    if Array.length vm.prof_counts = 0 || b.b_id < 0 then no_prof_row
    else Array.unsafe_get vm.prof_counts b.b_id
  in
  let profiling = prow != no_prof_row in
  let rec loop pc sp isp : value =
    if profiling then
      Array.unsafe_set prow pc (Array.unsafe_get prow pc + 1);
    match Array.unsafe_get code pc with
    | IConst v ->
        ost.(sp) <- v;
        loop (pc + 1) (sp + 1) isp
    | ILoad (tk, i) ->
        if tk then tick vm;
        ost.(sp) <- Array.unsafe_get locals i;
        loop (pc + 1) (sp + 1) isp
    | ILoadRef i ->
        ost.(sp) <-
          (match Array.unsafe_get locals i with
          | VPtr (PArr (h, j)) -> h.cells.(j)
          | VPtr (PObj o) -> VObj o
          | v -> v);
        loop (pc + 1) (sp + 1) isp
    | IGlobal i ->
        ost.(sp) <- vm.globals.cells.(i);
        loop (pc + 1) (sp + 1) isp
    | IStatic i ->
        ost.(sp) <- vm.statics.cells.(i);
        loop (pc + 1) (sp + 1) isp
    | IThis ->
        (* a receiver the caller held as a pointer is [this] as it is *)
        ost.(sp) <-
          (match frame.this with
          | VPtr (PObj _) as p -> p
          | _ -> VPtr (PObj (this_of frame)));
        loop (pc + 1) (sp + 1) isp
    | IPop -> loop (pc + 1) (sp - 1) isp
    | IUnary op ->
        ost.(sp - 1) <- unary op ost.(sp - 1);
        loop (pc + 1) sp isp
    | IBinop op ->
        ost.(sp - 2) <- binop op ost.(sp - 2) ost.(sp - 1);
        loop (pc + 1) (sp - 1) isp
    | IToBool ->
        ost.(sp - 1) <- (if truthy ost.(sp - 1) then vtrue else vfalse);
        loop (pc + 1) sp isp
    | ICastInt ->
        (match ost.(sp - 1) with
        | VInt _ -> ()
        | v -> ost.(sp - 1) <- vint (as_int v));
        loop (pc + 1) sp isp
    | ICastFloat ->
        ost.(sp - 1) <- VFloat (as_float ost.(sp - 1));
        loop (pc + 1) sp isp
    | IField (slots, m) ->
        let o = as_obj ost.(sp - 1) in
        ost.(sp - 1) <- o.fields.cells.(field_slot o slots m);
        loop (pc + 1) sp isp
    | IDeref ->
        ost.(sp - 1) <-
          (match ost.(sp - 1) with
          | VPtr (PObj o) -> VObj o
          | VPtr (PArr (h, i)) ->
              if i < 0 || i >= Array.length h.cells then
                runtime_error "pointer dereference out of bounds";
              h.cells.(i)
          | VNull -> runtime_error "null pointer dereference"
          | VStr s ->
              if String.length s > 0 then VInt (Char.code s.[0]) else VInt 0
          | _ -> runtime_error "dereference of a non-pointer");
        loop (pc + 1) sp isp
    | IIndex ->
        ost.(sp - 2) <- index_read ost.(sp - 2) (as_int ost.(sp - 1));
        loop (pc + 1) (sp - 1) isp
    | IAsObj ->
        ost.(sp - 1) <- VObj (as_obj ost.(sp - 1));
        loop (pc + 1) sp isp
    | IMemPtrDeref ->
        let o = as_obj ost.(sp - 2) in
        ost.(sp - 2) <-
          (match ost.(sp - 1) with
          | VMemPtr m -> o.fields.cells.(memptr_slot_of vm.classes o m)
          | VNull -> runtime_error "null member pointer dereference"
          | _ -> runtime_error ".*/->* with a non-member-pointer");
        loop (pc + 1) (sp - 1) isp
    | IAddrOf ->
        let l = ost.(sp - 1) in
        ost.(sp - 1) <-
          (* taking the address of an embedded object yields an object
             pointer, not a cell pointer *)
          (match loc_read l with VObj o -> VPtr (PObj o) | _ -> loc_to_ptr l);
        loop (pc + 1) sp isp
    | ILocLocal i ->
        ost.(sp) <- VPtr (PArr (frame.locals, i));
        loop (pc + 1) (sp + 1) isp
    | ILocLocalRef i ->
        ost.(sp) <-
          (match Array.unsafe_get locals i with
          | VPtr (PArr _) as p -> p
          | _ -> VPtr (PArr (frame.locals, i)));
        loop (pc + 1) (sp + 1) isp
    | ILocGlobal i ->
        ost.(sp) <- VPtr (PArr (vm.globals, i));
        loop (pc + 1) (sp + 1) isp
    | ILocStatic i ->
        ost.(sp) <- VPtr (PArr (vm.statics, i));
        loop (pc + 1) (sp + 1) isp
    | ILocField (slots, m) ->
        let o = as_obj ost.(sp - 1) in
        ost.(sp - 1) <- VPtr (PArr (o.fields, field_slot o slots m));
        loop (pc + 1) sp isp
    | ILocDeref ->
        ost.(sp - 1) <-
          (match ost.(sp - 1) with
          | VPtr (PArr _) as p -> p
          | VPtr (PObj _) ->
              runtime_error "cannot assign whole objects through a pointer"
          | VNull -> runtime_error "null pointer dereference"
          | _ -> runtime_error "dereference of a non-pointer");
        loop (pc + 1) sp isp
    | ILocIndex ->
        let iv = as_int ost.(sp - 1) in
        ost.(sp - 2) <-
          (match ost.(sp - 2) with
          | VArr h -> VPtr (PArr (h, iv))
          | VPtr (PArr (h, off)) -> VPtr (PArr (h, off + iv))
          | _ -> runtime_error "indexing a non-array value");
        loop (pc + 1) (sp - 1) isp
    | ILocMemPtr ->
        let o = as_obj ost.(sp - 2) in
        ost.(sp - 2) <-
          (match ost.(sp - 1) with
          | VMemPtr m -> VPtr (PArr (o.fields, memptr_slot_of vm.classes o m))
          | _ -> runtime_error ".*/->* with a non-member-pointer");
        loop (pc + 1) (sp - 1) isp
    | ILocToPtr ->
        ost.(sp - 1) <- loc_to_ptr ost.(sp - 1);
        loop (pc + 1) sp isp
    | IObjToPtr ->
        (match ost.(sp - 1) with
        | VObj o -> ost.(sp - 1) <- VPtr (PObj o)
        | _ -> ());
        loop (pc + 1) sp isp
    | IAssign ty ->
        let v = coerce ty ost.(sp - 1) in
        loc_write ost.(sp - 2) v;
        ost.(sp - 2) <- v;
        loop (pc + 1) (sp - 1) isp
    | ICompound (op, ty) ->
        let l = ost.(sp - 2) in
        let v = compound_op op (loc_read l) ost.(sp - 1) ty in
        loc_write l v;
        ost.(sp - 2) <- v;
        loop (pc + 1) (sp - 1) isp
    | IIncDec (which, fix) ->
        let l = ost.(sp - 1) in
        let old = loc_read l in
        let nv = incdec_new which old in
        loc_write l nv;
        ost.(sp - 1) <- (match fix with Ast.Prefix -> nv | Ast.Postfix -> old);
        loop (pc + 1) sp isp
    | IStoreLocal (keep, i, ty, tk) ->
        let v = coerce ty ost.(sp - 1) in
        Array.unsafe_set locals i v;
        if keep then begin
          ost.(sp - 1) <- v;
          loop (pc + 1) sp isp
        end
        else begin
          if tk then tick vm;
          loop (pc + 1) (sp - 1) isp
        end
    | IStoreRawPop i ->
        Array.unsafe_set locals i ost.(sp - 1);
        loop (pc + 1) (sp - 1) isp
    | IIncDecLocal (keep, which, fix, i) ->
        let old = Array.unsafe_get locals i in
        let nv = incdec_new which old in
        Array.unsafe_set locals i nv;
        if keep then begin
          ost.(sp) <- (match fix with Ast.Prefix -> nv | Ast.Postfix -> old);
          loop (pc + 1) (sp + 1) isp
        end
        else loop (pc + 1) sp isp
    | IJump t -> loop t sp isp
    | IJumpIf (sense, t) ->
        if truthy ost.(sp - 1) = sense then loop t (sp - 1) isp
        else loop (pc + 1) (sp - 1) isp
    | IJumpCmpFalse (op, t) ->
        if cmp_test op ost.(sp - 2) ost.(sp - 1) then loop (pc + 1) (sp - 2) isp
        else loop t (sp - 2) isp
    | IShortCircuit (sense, t) ->
        if truthy ost.(sp - 1) = sense then begin
          ost.(sp - 1) <- (if sense then VInt 1 else VInt 0);
          loop t sp isp
        end
        else loop (pc + 1) (sp - 1) isp
    | IPushScope slots ->
        scopes := slots :: !scopes;
        loop (pc + 1) sp isp
    | IPopScope ->
        (match !scopes with
        | slots :: rest ->
            scopes := rest;
            (try destroy_slots vm locals slots
             with fe -> raise (Fun.Finally_raised fe))
        | [] -> assert false);
        loop (pc + 1) sp isp
    | IExitScopes n ->
        for _ = 1 to n do
          match !scopes with
          | slots :: rest ->
              scopes := rest;
              (try destroy_slots vm locals slots
               with fe -> raise (Fun.Finally_raised fe))
          | [] -> assert false
        done;
        loop (pc + 1) sp isp
    | IReturn ->
        let v = ost.(sp - 1) in
        if b.b_scoped then ret_unwind vm locals scopes;
        v
    | IReturnUnit ->
        if b.b_scoped then ret_unwind vm locals scopes;
        VUnit
    | IRaise msg -> runtime_error "%s" msg
    | INewObj { n_cid; n_cls; n_ctor; n_argc } ->
        let base = sp - n_argc in
        let o = construct_journalled vm n_cid n_cls n_ctor ost base n_argc in
        ost.(base) <- VPtr (PObj o);
        loop (pc + 1) (base + 1) isp
    | INewScalar (bytes, ty) ->
        Profile.record_scalar_alloc vm.profile ~bytes;
        ost.(sp) <- VPtr (PArr ({ arr_id = -1; cells = [| default_value ty |] }, 0));
        loop (pc + 1) (sp + 1) isp
    | INewArrObj { w_cid; w_cls; w_ctor } ->
        let n = as_int ost.(sp - 1) in
        if n < 0 then runtime_error "negative array size in new[]";
        let id = fresh_obj_id vm in
        Profile.record_alloc vm.profile ~id ~cls:w_cls ~count:n;
        let cells =
          guest_array n (fun _ ->
              VObj (construct_raw vm w_cid w_cls w_ctor empty_vals 0 0))
        in
        ost.(sp - 1) <- VPtr (PArr ({ arr_id = id; cells }, 0));
        loop (pc + 1) sp isp
    | INewArrScalar (ty, elem_bytes) ->
        let n = as_int ost.(sp - 1) in
        if n < 0 then runtime_error "negative array size in new[]";
        Profile.record_scalar_alloc vm.profile ~bytes:(n * elem_bytes);
        let cells = guest_array n (fun _ -> default_value ty) in
        ost.(sp - 1) <- VPtr (PArr ({ arr_id = -1; cells }, 0));
        loop (pc + 1) sp isp
    | IDelete ->
        (match ost.(sp - 1) with
        | VNull -> ()
        | VPtr (PObj o) ->
            destroy_complete vm o;
            Profile.record_free vm.profile o.obj_id
        | VPtr (PArr (h, _)) ->
            Array.iter
              (function VObj o -> destroy_complete vm o | _ -> ())
              h.cells;
            if h.arr_id >= 0 then Profile.record_free vm.profile h.arr_id
        | _ -> runtime_error "delete of a non-pointer value");
        loop (pc + 1) (sp - 1) isp
    | IDeclScalar (slot, ty) ->
        Array.unsafe_set locals slot (default_value ty);
        loop (pc + 1) sp isp
    | IDeclStackArr { ds_slot; ds_cid; ds_cls; ds_ctor; ds_len } ->
        let id = fresh_obj_id vm in
        Profile.record_alloc vm.profile ~id ~cls:ds_cls ~count:ds_len;
        let cells =
          guest_array ds_len (fun _ ->
              VObj (construct_raw vm ds_cid ds_cls ds_ctor empty_vals 0 0))
        in
        locals.(ds_slot) <- VArr { arr_id = id; cells };
        loop (pc + 1) sp isp
    | IDeclCtor { dc_slot; dc_cid; dc_cls; dc_ctor; dc_argc } ->
        let base = sp - dc_argc in
        let o = construct_journalled vm dc_cid dc_cls dc_ctor ost base dc_argc in
        locals.(dc_slot) <- VObj o;
        loop (pc + 1) base isp
    | IBuiltin (bi, argc) ->
        let base = sp - argc in
        exec_builtin vm ost base bi argc;
        ost.(base) <- VUnit;
        loop (pc + 1) (base + 1) isp
    | ICallFunc (fi, argc) ->
        let base = sp - argc in
        let v = call_function vm fi ~this:VUnit ost base argc in
        ost.(base) <- v;
        loop (pc + 1) (base + 1) isp
    | ICallMethod { m_func; m_argc; m_arrow } ->
        let base = sp - m_argc in
        let v =
          match ost.(base - 1) with
          | VNull when m_arrow -> runtime_error "method call on null pointer"
          | (VObj _ | VPtr (PObj _)) as recv ->
              call_function vm m_func ~this:recv ost base m_argc
          | v when v == no_receiver -> no_this ()  (* see [new_frame] *)
          | _ ->
              (* static member function *)
              call_function vm m_func ~this:VUnit ost base m_argc
        in
        ost.(base - 1) <- v;
        loop (pc + 1) base isp
    | ICallVirtual { v_name; v_table; v_argc } ->
        let base = sp - v_argc in
        let v =
          match ost.(base - 1) with
          | (VObj o | VPtr (PObj o)) as recv ->
              let fi = if o.obj_cid >= 0 then v_table.(o.obj_cid) else -1 in
              if fi >= 0 then call_function vm fi ~this:recv ost base v_argc
              else
                runtime_error "no virtual target for %s::%s" o.obj_class v_name
          | VNull -> runtime_error "virtual call on null pointer"
          | v when v == no_receiver -> no_this ()
          | _ -> runtime_error "virtual call on a non-object"
        in
        ost.(base - 1) <- v;
        loop (pc + 1) base isp
    | ICallFunPtr argc ->
        let base = sp - argc in
        let v =
          match ost.(base - 1) with
          | VFunPtr id -> (
              let this =
                match id with Func_id.FMethod _ -> frame.this | _ -> VUnit
              in
              match Hashtbl.find_opt vm.cp.cp_rp.rp_func_idx id with
              | Some fi -> call_function vm fi ~this ost base argc
              | None ->
                  runtime_error "call to unknown function %s"
                    (Func_id.to_string id))
          | VNull -> runtime_error "call through a null function pointer"
          | _ -> runtime_error "call through a non-function value"
        in
        ost.(base - 1) <- v;
        loop (pc + 1) base isp
    | ICallCtor (fi, argc) ->
        let base = sp - argc in
        run_ctor_idx vm (this_of frame) fi ~most_derived:false ost base argc;
        loop (pc + 1) base isp
    | IInitField { if_slots; if_member; if_cid; if_cls; if_ctor; if_argc } ->
        let base = sp - if_argc in
        let o = this_of frame in
        let sub = construct_raw vm if_cid if_cls if_ctor ost base if_argc in
        o.fields.cells.(field_slot o if_slots if_member) <- VObj sub;
        loop (pc + 1) base isp
    | IInitFieldArr { ia_slots; ia_member; ia_cid; ia_cls; ia_ctor; ia_len } ->
        let o = this_of frame in
        let cells =
          guest_array ia_len (fun _ ->
              VObj (construct_raw vm ia_cid ia_cls ia_ctor empty_vals 0 0))
        in
        o.fields.cells.(field_slot o ia_slots ia_member) <-
          VArr { arr_id = -1; cells };
        loop (pc + 1) sp isp
    | IInitFieldScalar { is_slots; is_member; is_coerce } ->
        let v = coerce is_coerce ost.(sp - 1) in
        let o = this_of frame in
        o.fields.cells.(field_slot o is_slots is_member) <- v;
        loop (pc + 1) (sp - 1) isp
    (* superinstructions: each arm is the exact concatenation of its
       parts' arms — same evaluation order, ticks and errors *)
    | ILoadField (tk, i, slots, m) ->
        if tk then tick vm;
        let o = as_obj (Array.get locals i) in
        ost.(sp) <- o.fields.cells.(field_slot o slots m);
        loop (pc + 1) (sp + 1) isp
    | IBinopConst (op, v) ->
        ost.(sp - 1) <- binop op ost.(sp - 1) v;
        loop (pc + 1) sp isp
    | ITickN n ->
        let s = vm.steps + n in
        if s > vm.next_stop then slow_tick_n vm s;
        vm.steps <- s;
        loop (pc + 1) sp isp
    | IJumpCmpConstFalse (op, v, tk, t) ->
        if cmp_test op ost.(sp - 1) v then begin
          if tk then tick vm;
          loop (pc + 1) (sp - 1) isp
        end
        else loop t (sp - 1) isp
    | IJumpLocCmpConstFalse (i, op, v, tk, t) ->
        if cmp_test op (Array.get locals i) v then begin
          if tk then tick vm;
          loop (pc + 1) sp isp
        end
        else loop t sp isp
    | IJumpLocCmpFalse (op, i, t) ->
        if cmp_test op ost.(sp - 1) (Array.get locals i) then
          loop (pc + 1) (sp - 1) isp
        else loop t (sp - 1) isp
    | ITickLoadFieldStore (i, slots, m, j, ty) ->
        tick vm;
        let o = as_obj (Array.get locals i) in
        Array.set locals j (coerce ty o.fields.cells.(field_slot o slots m));
        loop (pc + 1) sp isp
    | ITickLoadFieldStoreJump (i, slots, m, j, ty, t) ->
        tick vm;
        let o = as_obj (Array.get locals i) in
        Array.set locals j (coerce ty o.fields.cells.(field_slot o slots m));
        loop t sp isp
    | ITickLoadFieldCmpLocFalse (j, slots, m, op, n, tk, t) ->
        tick vm;
        let o = as_obj (Array.get locals j) in
        if cmp_test op o.fields.cells.(field_slot o slots m) (Array.get locals n)
        then begin
          if tk then tick vm;
          loop (pc + 1) sp isp
        end
        else loop t sp isp
    | IScanStep (j, slots, m, op, n, a, s2, m2, bdst, ty, tback) ->
        tick vm;
        let o = as_obj (Array.get locals j) in
        if cmp_test op o.fields.cells.(field_slot o slots m) (Array.get locals n)
        then begin
          tick vm;
          loop (pc + 1) sp isp
        end
        else begin
          tick vm;
          let o2 = as_obj (Array.get locals a) in
          Array.set locals bdst
            (coerce ty o2.fields.cells.(field_slot o2 s2 m2));
          loop tback sp isp
        end
    | ILoopScan (x, op0, v0, texit0, j, slots, m, op, n, a, s2, m2, bdst, ty)
      ->
        (* a plain loop over an unboxed local: a local recursive closure
           here would be allocated on every dispatch. [next] stays -1
           until the loop leaves: to the body at [pc + 2], or to the
           guard's (patched, non-negative) exit *)
        let next = ref (-1) in
        while !next < 0 do
          if cmp_test op0 (Array.get locals x) v0 then begin
            tick vm;
            tick vm;
            let o = as_obj (Array.get locals j) in
            if
              cmp_test op
                o.fields.cells.(field_slot o slots m)
                (Array.get locals n)
            then begin
              tick vm;
              next := pc + 2
            end
            else begin
              tick vm;
              let o2 = as_obj (Array.get locals a) in
              Array.set locals bdst
                (coerce ty o2.fields.cells.(field_slot o2 s2 m2));
              (* profiled count = guard evaluations, one per iteration:
                 the whole loop runs in this single dispatch, and a
                 count of 1 would hide exactly the hot loops the
                 profiler exists to surface *)
              if profiling then
                Array.unsafe_set prow pc (Array.unsafe_get prow pc + 1)
            end
          end
          else next := texit0
        done;
        loop !next sp isp
    (* -- typed (untagged) arms: pushes, bridges ---------------------- *)
    | IConstI n ->
        ist.(isp) <- n;
        loop (pc + 1) sp (isp + 1)
    | ILoadI (tk, i) ->
        if tk then tick vm;
        ist.(isp) <- Array.unsafe_get ilocals i;
        loop (pc + 1) sp (isp + 1)
    | IFieldI (slots, m) ->
        let o = as_obj ost.(sp - 1) in
        ist.(isp) <- o.ifields.(field_slot o slots m);
        loop (pc + 1) (sp - 1) (isp + 1)
    | IIndexI ->
        ost.(sp - 1) <- index_read ost.(sp - 1) ist.(isp - 1);
        loop (pc + 1) sp (isp - 1)
    | IBoxI ->
        ost.(sp) <- vint ist.(isp - 1);
        loop (pc + 1) (sp + 1) (isp - 1)
    | IBoxIU ->
        ost.(sp) <- ost.(sp - 1);
        ost.(sp - 1) <- vint ist.(isp - 1);
        loop (pc + 1) (sp + 1) (isp - 1)
    | IPopI -> loop (pc + 1) sp (isp - 1)
    | ILoadIB i ->
        ost.(sp) <- vint (Array.unsafe_get ilocals i);
        loop (pc + 1) (sp + 1) isp
    (* -- typed operators --------------------------------------------- *)
    | IUnaryI op ->
        (match op with
        | Ast.Neg -> ist.(isp - 1) <- -ist.(isp - 1)
        | Ast.Not -> ist.(isp - 1) <- (if ist.(isp - 1) = 0 then 1 else 0)
        | Ast.BitNot -> ist.(isp - 1) <- lnot ist.(isp - 1)
        | Ast.UPlus -> ());
        loop (pc + 1) sp isp
    | IToBoolI ->
        ist.(isp - 1) <- (if ist.(isp - 1) <> 0 then 1 else 0);
        loop (pc + 1) sp isp
    | IBinopII op ->
        ist.(isp - 2) <- ibinop_i op ist.(isp - 2) ist.(isp - 1);
        loop (pc + 1) sp (isp - 1)
    (* -- typed local stores ------------------------------------------ *)
    | IStoreLocalI (keep, ic, i) ->
        let v = apply_ic ic ist.(isp - 1) in
        Array.unsafe_set ilocals i v;
        if keep then begin
          ist.(isp - 1) <- v;
          loop (pc + 1) sp isp
        end
        else loop (pc + 1) sp (isp - 1)
    | IStoreLocalIB (keep, ty, i) ->
        let v = coerce ty ost.(sp - 1) in
        Array.unsafe_set ilocals i (as_int v);
        if keep then begin
          ost.(sp - 1) <- v;
          loop (pc + 1) sp isp
        end
        else loop (pc + 1) (sp - 1) isp
    | IIncDecLocalI (keep, which, fix, i) ->
        let old = Array.unsafe_get ilocals i in
        let nv = old + incdec_delta which in
        Array.unsafe_set ilocals i nv;
        if keep then begin
          ist.(isp) <- (match fix with Ast.Prefix -> nv | Ast.Postfix -> old);
          loop (pc + 1) sp (isp + 1)
        end
        else loop (pc + 1) sp isp
    | ICompoundLocalI (keep, op, ic, i) ->
        let v =
          apply_ic ic (ibinop_i op (Array.unsafe_get ilocals i) ist.(isp - 1))
        in
        Array.unsafe_set ilocals i v;
        if keep then begin
          ist.(isp - 1) <- v;
          loop (pc + 1) sp isp
        end
        else loop (pc + 1) sp (isp - 1)
    | ICompoundLocalB (keep, aop, ty, i) ->
        let v = compound_op aop (vint ilocals.(i)) ost.(sp - 1) ty in
        ilocals.(i) <- as_int v;
        if keep then begin
          ost.(sp - 1) <- v;
          loop (pc + 1) sp isp
        end
        else loop (pc + 1) (sp - 1) isp
    (* -- typed member lvalues ---------------------------------------- *)
    | ILocFieldI (slots, m) ->
        ist.(isp) <- field_slot (as_obj ost.(sp - 1)) slots m;
        loop (pc + 1) sp (isp + 1)
    | IAssignFieldI (keep, ic) ->
        let v = apply_ic ic ist.(isp - 1) in
        let o = as_obj ost.(sp - 1) in
        o.ifields.(ist.(isp - 2)) <- v;
        if keep then begin
          ist.(isp - 2) <- v;
          loop (pc + 1) (sp - 1) (isp - 1)
        end
        else loop (pc + 1) (sp - 1) (isp - 2)
    | IAssignFieldIB (keep, ty) ->
        let v = coerce ty ost.(sp - 1) in
        let o = as_obj ost.(sp - 2) in
        o.ifields.(ist.(isp - 1)) <- as_int v;
        if keep then begin
          ost.(sp - 2) <- v;
          loop (pc + 1) (sp - 1) (isp - 1)
        end
        else loop (pc + 1) (sp - 2) (isp - 1)
    | ICompoundFieldI (keep, op, ic) ->
        let o = as_obj ost.(sp - 1) in
        let s = ist.(isp - 2) in
        let v = apply_ic ic (ibinop_i op o.ifields.(s) ist.(isp - 1)) in
        o.ifields.(s) <- v;
        if keep then begin
          ist.(isp - 2) <- v;
          loop (pc + 1) (sp - 1) (isp - 1)
        end
        else loop (pc + 1) (sp - 1) (isp - 2)
    | ICompoundFieldB (keep, aop, ty) ->
        let o = as_obj ost.(sp - 2) in
        let s = ist.(isp - 1) in
        let v = compound_op aop (vint o.ifields.(s)) ost.(sp - 1) ty in
        o.ifields.(s) <- as_int v;
        if keep then begin
          ost.(sp - 2) <- v;
          loop (pc + 1) (sp - 1) (isp - 1)
        end
        else loop (pc + 1) (sp - 2) (isp - 1)
    | IIncDecFieldI (keep, which, fix) ->
        let o = as_obj ost.(sp - 1) in
        let s = ist.(isp - 1) in
        let old = o.ifields.(s) in
        let nv = old + incdec_delta which in
        o.ifields.(s) <- nv;
        if keep then begin
          ist.(isp - 1) <-
            (match fix with Ast.Prefix -> nv | Ast.Postfix -> old);
          loop (pc + 1) (sp - 1) isp
        end
        else loop (pc + 1) (sp - 1) (isp - 1)
    (* -- typed declarations / ctor member initializers ---------------- *)
    | IDeclScalarI i ->
        Array.unsafe_set ilocals i 0;
        loop (pc + 1) sp isp
    | IInitFieldScalarI (slots, m, ic) ->
        let o = this_of frame in
        o.ifields.(field_slot o slots m) <- apply_ic ic ist.(isp - 1);
        loop (pc + 1) sp (isp - 1)
    | IInitFieldScalarB (slots, m, ty) ->
        let v = coerce ty ost.(sp - 1) in
        let o = this_of frame in
        o.ifields.(field_slot o slots m) <- as_int v;
        loop (pc + 1) (sp - 1) isp
    (* -- typed control ------------------------------------------------ *)
    | IJumpIfI (sense, tk, t) ->
        if (ist.(isp - 1) <> 0) = sense then loop t sp (isp - 1)
        else begin
          if tk then tick vm;
          loop (pc + 1) sp (isp - 1)
        end
    | IShortCircuitI (sense, t) ->
        if (ist.(isp - 1) <> 0) = sense then begin
          ist.(isp - 1) <- (if sense then 1 else 0);
          loop t sp isp
        end
        else loop (pc + 1) sp (isp - 1)
    | IJumpCmpFalseI (op, t) ->
        if icmp op ist.(isp - 2) ist.(isp - 1) then loop (pc + 1) sp (isp - 2)
        else loop t sp (isp - 2)
    | IJumpCmpConstFalseI (op, k, tk, t) ->
        if icmp op ist.(isp - 1) k then begin
          if tk then tick vm;
          loop (pc + 1) sp (isp - 1)
        end
        else loop t sp (isp - 1)
    | IJumpLocCmpFalseI (op, i, tk, t) ->
        if icmp op ist.(isp - 1) (Array.unsafe_get ilocals i) then begin
          if tk then tick vm;
          loop (pc + 1) sp (isp - 1)
        end
        else loop t sp (isp - 1)
    | IJumpLocFCmpFalseI (x, y, slots, m, op, tk, t) ->
        let o = as_obj (Array.get locals y) in
        if icmp op (Array.unsafe_get ilocals x) o.ifields.(field_slot o slots m)
        then begin
          if tk then tick vm;
          loop (pc + 1) sp isp
        end
        else loop t sp isp
    | IJumpLocFieldBCFalseI (tp, n, slots, m, op, k, t) ->
        if tp then tick vm;
        let o = as_obj (Array.get locals n) in
        if ibinop_i op o.ifields.(field_slot o slots m) k <> 0 then
          loop (pc + 1) sp isp
        else loop t sp isp
    (* -- typed superinstructions -------------------------------------- *)
    | ILoadFieldI (tk, i, slots, m) ->
        if tk then tick vm;
        let o = as_obj (Array.get locals i) in
        ist.(isp) <- o.ifields.(field_slot o slots m);
        loop (pc + 1) sp (isp + 1)
    | IIndexFieldI (slots, m) ->
        let elem = index_read ost.(sp - 1) ist.(isp - 1) in
        let o = as_obj elem in
        ist.(isp - 1) <- o.ifields.(field_slot o slots m);
        loop (pc + 1) (sp - 1) isp
    | IBinopConstI (op, k) ->
        ist.(isp - 1) <- ibinop_i op ist.(isp - 1) k;
        loop (pc + 1) sp isp
    | ILoadBinopConstI (tk, i, op, k) ->
        if tk then tick vm;
        ist.(isp) <- ibinop_i op (Array.unsafe_get ilocals i) k;
        loop (pc + 1) sp (isp + 1)
    | ILoadFieldBCI (i, slots, m, op, k) ->
        let o = as_obj (Array.get locals i) in
        ist.(isp) <- ibinop_i op o.ifields.(field_slot o slots m) k;
        loop (pc + 1) sp (isp + 1)
    | ILoadFieldLoadBCI (i, slots, m, j, op, k) ->
        let o = as_obj (Array.get locals i) in
        ost.(sp) <- o.fields.cells.(field_slot o slots m);
        ist.(isp) <- ibinop_i op (Array.unsafe_get ilocals j) k;
        loop (pc + 1) (sp + 1) (isp + 1)
    | ILoadFieldBinopI (i, slots, m, op) ->
        let o = as_obj (Array.get locals i) in
        ist.(isp - 1) <-
          ibinop_i op ist.(isp - 1) o.ifields.(field_slot o slots m);
        loop (pc + 1) sp isp
    | IIncDecLocalJumpI (which, i, t) ->
        Array.unsafe_set ilocals i
          (Array.unsafe_get ilocals i + incdec_delta which);
        loop t sp isp
    | IFieldIdxFieldI (i, slots, m, j, op, k, s2, m2) ->
        let o = as_obj (Array.get locals i) in
        let av = o.fields.cells.(field_slot o slots m) in
        let iv = ibinop_i op (Array.unsafe_get ilocals j) k in
        let eo = as_obj (index_read av iv) in
        ist.(isp) <- eo.ifields.(field_slot eo s2 m2);
        loop (pc + 1) sp (isp + 1)
    | ITickLoadFieldCmpLocFalseI (j, slots, m, op, n, tk, t) ->
        tick vm;
        let o = as_obj (Array.get locals j) in
        if
          icmp op o.ifields.(field_slot o slots m) (Array.unsafe_get ilocals n)
        then begin
          if tk then tick vm;
          loop (pc + 1) sp isp
        end
        else loop t sp isp
    | IJumpLL2FBCCmpFalseI (i, j, slots, m, op1, k, op2, tk, t) ->
        let o = as_obj (Array.get locals j) in
        let rhs = ibinop_i op1 o.ifields.(field_slot o slots m) k in
        if icmp op2 (Array.unsafe_get ilocals i) rhs then begin
          if tk then tick vm;
          loop (pc + 1) sp isp
        end
        else loop t sp isp
    | ILoadIndexI i ->
        ost.(sp - 1) <- index_read ost.(sp - 1) (Array.unsafe_get ilocals i);
        loop (pc + 1) sp isp
    | ILoadFieldIndexI (tk, a, slots, m, i) ->
        if tk then tick vm;
        let o = as_obj (Array.get locals a) in
        let av = o.fields.cells.(field_slot o slots m) in
        ost.(sp) <- index_read av (Array.unsafe_get ilocals i);
        loop (pc + 1) (sp + 1) isp
    | ITLFIndexIStoreT (a, slots, m, i, x, ty) ->
        tick vm;
        let o = as_obj (Array.get locals a) in
        let av = o.fields.cells.(field_slot o slots m) in
        Array.set locals x
          (coerce ty (index_read av (Array.unsafe_get ilocals i)));
        tick vm;
        loop (pc + 1) sp isp
    | ILoadBinopI (op, i) ->
        ist.(isp - 1) <- ibinop_i op ist.(isp - 1) (Array.unsafe_get ilocals i);
        loop (pc + 1) sp isp
    | ILoadLocFieldI (tk, a, slots, m) ->
        if tk then tick vm;
        let v = Array.get locals a in
        ist.(isp) <- field_slot (as_obj v) slots m;
        ost.(sp) <- v;
        loop (pc + 1) (sp + 1) (isp + 1)
    | IAssignFieldLFIPop (ic, j, slots, m) ->
        let o2 = as_obj (Array.get locals j) in
        let v = apply_ic ic o2.ifields.(field_slot o2 slots m) in
        let o = as_obj ost.(sp - 1) in
        o.ifields.(ist.(isp - 1)) <- v;
        loop (pc + 1) (sp - 1) (isp - 1)
    | IFieldCopyII (ic, a, s1, m1, j, s2, m2) ->
        let o1 = as_obj (Array.get locals a) in
        let d = field_slot o1 s1 m1 in
        let o2 = as_obj (Array.get locals j) in
        o1.ifields.(d) <- apply_ic ic o2.ifields.(field_slot o2 s2 m2);
        loop (pc + 1) sp isp
    | IInitFieldLI (slots, m, ic, i) ->
        let o = this_of frame in
        o.ifields.(field_slot o slots m) <-
          apply_ic ic (Array.unsafe_get ilocals i);
        loop (pc + 1) sp isp
    | IInitFieldConstI (slots, m, ic, k) ->
        let o = this_of frame in
        o.ifields.(field_slot o slots m) <- apply_ic ic k;
        loop (pc + 1) sp isp
    | IBinopConst2I (o1, k1, o2, k2) ->
        ist.(isp - 1) <- ibinop_i o2 (ibinop_i o1 ist.(isp - 1) k1) k2;
        loop (pc + 1) sp isp
    | IScanStepI (j, slots, m, op, n, a, s2, m2, bdst, ty, tback) ->
        tick vm;
        let o = as_obj (Array.get locals j) in
        if
          icmp op o.ifields.(field_slot o slots m) (Array.unsafe_get ilocals n)
        then begin
          tick vm;
          loop (pc + 1) sp isp
        end
        else begin
          tick vm;
          let o2 = as_obj (Array.get locals a) in
          Array.set locals bdst
            (coerce ty o2.fields.cells.(field_slot o2 s2 m2));
          loop tback sp isp
        end
  in
  let v =
    if not b.b_scoped then loop start 0 0
    else
      try loop start 0 0
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        let e = unwind_exn vm locals scopes e in
        Printexc.raise_with_backtrace e bt
  in
  vm.act <- d;
  v

(* -- entry points -------------------------------------------------------------- *)

let make_profiler (cp : cprogram) : Vm_profile.t =
  Vm_profile.create
    ~body_sizes:(Array.map (fun b -> Array.length b.b_code) cp.cp_bodies)
    ~nfuncs:(Array.length cp.cp_funcs)

let make_vm ?(dead = Member.Set.empty) ?profiler ~step_limit ~call_depth_limit
    ~heap_object_limit (cp : cprogram) : vm =
  let rp = cp.cp_rp in
  let prof_counts, prof_calls =
    match profiler with
    | None -> ([||], [||])
    | Some (p : Vm_profile.t) -> (p.Vm_profile.body_counts, p.Vm_profile.call_counts)
  in
  {
    cp;
    funcs = cp.cp_funcs;
    classes = cp.cp_classes;
    destroy = cp.cp_destroy;
    profile = Profile.create ~dead rp.rp_table;
    globals =
      { arr_id = -1; cells = Array.make (Array.length rp.rp_globals) VUnit };
    statics = { arr_id = -1; cells = Array.map default_value rp.rp_static_tys };
    output = Buffer.create 256;
    obj_counter = 0;
    steps = 0;
    step_limit;
    next_stop = min step_limit deadline_check_interval;
    call_depth = 0;
    max_call_depth = 0;
    call_depth_limit;
    heap_object_limit;
    prof_counts;
    prof_calls;
    act = 0;
    pool_ost = [||];
    pool_ist = [||];
    pool_locals = [||];
    pool_ilocals = [||];
  }

let no_shape : fshape = { nbox = 0; nint = 0 }

let execute (vm : vm) : value =
  let cp = vm.cp in
  let rp = cp.cp_rp in
  (* [abort()] and native resource exhaustion end the run as in the
     tree engine *)
  try
    (* globals, in declaration order *)
    Array.iteri
      (fun i (g : rglobal) ->
        vm.globals.cells.(i) <-
          (match cp.cp_ginit.(i) with
          | Some body ->
              coerce g.rg_coerce
                (exec_code vm (new_frame vm no_shape body VUnit) body 0)
          | None -> default_value g.rg_default))
      rp.rp_globals;
    call_function vm rp.rp_main ~this:VUnit empty_vals 0 0
  with
  | e when is_abort e -> VInt 134
  | Stack_overflow ->
      limit_exceeded "interpreter stack exhausted (call depth limit %d)"
        vm.call_depth_limit
  | Out_of_memory ->
      limit_exceeded "interpreter heap exhausted (object limit %d)"
        vm.heap_object_limit

let output vm = Buffer.contents vm.output
let steps vm = vm.steps
let allocations vm = vm.obj_counter
let max_call_depth vm = vm.max_call_depth
let profile vm = vm.profile

(* == hot-site profiler report ================================================= *)

let mnemonic (i : instr) : string =
  match i with
  | IConst _ -> "IConst"
  | ILoad (tk, _) -> if tk then "ITickLoad" else "ILoad"
  | ILoadRef _ -> "ILoadRef"
  | IGlobal _ -> "IGlobal"
  | IStatic _ -> "IStatic"
  | IThis -> "IThis"
  | IPop -> "IPop"
  | IUnary _ -> "IUnary"
  | IBinop _ -> "IBinop"
  | IToBool -> "IToBool"
  | ICastInt -> "ICastInt"
  | ICastFloat -> "ICastFloat"
  | IField _ -> "IField"
  | IDeref -> "IDeref"
  | IIndex -> "IIndex"
  | IAsObj -> "IAsObj"
  | IMemPtrDeref -> "IMemPtrDeref"
  | IAddrOf -> "IAddrOf"
  | ILocLocal _ -> "ILocLocal"
  | ILocLocalRef _ -> "ILocLocalRef"
  | ILocGlobal _ -> "ILocGlobal"
  | ILocStatic _ -> "ILocStatic"
  | ILocField _ -> "ILocField"
  | ILocDeref -> "ILocDeref"
  | ILocIndex -> "ILocIndex"
  | ILocMemPtr -> "ILocMemPtr"
  | ILocToPtr -> "ILocToPtr"
  | IObjToPtr -> "IObjToPtr"
  | IAssign _ -> "IAssign"
  | ICompound _ -> "ICompound"
  | IIncDec _ -> "IIncDec"
  | IStoreLocal (keep, _, _, tk) ->
      if keep then "IStoreLocal"
      else if tk then "IStoreLocalPopT"
      else "IStoreLocalPop"
  | IStoreRawPop _ -> "IStoreRawPop"
  | IIncDecLocal (keep, _, _, _) ->
      if keep then "IIncDecLocal" else "IIncDecLocalPop"
  | IJump _ -> "IJump"
  | IJumpIf (sense, _) -> if sense then "IJumpIfTrue" else "IJumpIfFalse"
  | IJumpCmpFalse _ -> "IJumpCmpFalse"
  | IShortCircuit (sense, _) -> if sense then "IOrTrue" else "IAndFalse"
  | IPushScope _ -> "IPushScope"
  | IPopScope -> "IPopScope"
  | IExitScopes _ -> "IExitScopes"
  | IReturn -> "IReturn"
  | IReturnUnit -> "IReturnUnit"
  | IRaise _ -> "IRaise"
  | INewObj _ -> "INewObj"
  | INewScalar _ -> "INewScalar"
  | INewArrObj _ -> "INewArrObj"
  | INewArrScalar _ -> "INewArrScalar"
  | IDelete -> "IDelete"
  | IDeclScalar _ -> "IDeclScalar"
  | IDeclStackArr _ -> "IDeclStackArr"
  | IDeclCtor _ -> "IDeclCtor"
  | IBuiltin _ -> "IBuiltin"
  | ICallFunc _ -> "ICallFunc"
  | ICallMethod _ -> "ICallMethod"
  | ICallVirtual _ -> "ICallVirtual"
  | ICallFunPtr _ -> "ICallFunPtr"
  | ICallCtor _ -> "ICallCtor"
  | IInitField _ -> "IInitField"
  | IInitFieldArr _ -> "IInitFieldArr"
  | IInitFieldScalar _ -> "IInitFieldScalar"
  | ILoadField (tk, _, _, _) -> if tk then "ITickLoadField" else "ILoadField"
  | IBinopConst _ -> "IBinopConst"
  | ITickN n -> if n = 1 then "ITick" else "ITickN"
  | IJumpCmpConstFalse (_, _, tk, _) ->
      if tk then "IJumpCmpConstFalseT" else "IJumpCmpConstFalse"
  | IJumpLocCmpConstFalse (_, _, _, tk, _) ->
      if tk then "IJumpLocCmpConstFalseT" else "IJumpLocCmpConstFalse"
  | IJumpLocCmpFalse _ -> "IJumpLocCmpFalse"
  | ITickLoadFieldStore _ -> "ITickLoadFieldStore"
  | ITickLoadFieldStoreJump _ -> "ITickLoadFieldStoreJump"
  | ITickLoadFieldCmpLocFalse (_, _, _, _, _, tk, _) ->
      if tk then "ITickLoadFieldCmpLocFalseT" else "ITickLoadFieldCmpLocFalse"
  | IScanStep _ -> "IScanStep"
  | ILoopScan _ -> "ILoopScan"
  (* typed (untagged) instructions *)
  | IConstI _ -> "IConstI"
  | ILoadI (tk, _) -> if tk then "ITickLoadI" else "ILoadI"
  | IFieldI _ -> "IFieldI"
  | IIndexI -> "IIndexI"
  | IBoxI -> "IBoxI"
  | IBoxIU -> "IBoxIU"
  | IPopI -> "IPopI"
  | ILoadIB _ -> "ILoadIB"
  | IUnaryI _ -> "IUnaryI"
  | IToBoolI -> "IToBoolI"
  | IBinopII _ -> "IBinopII"
  | IStoreLocalI (keep, _, _) ->
      if keep then "IStoreLocalI" else "IStoreLocalPopI"
  | IStoreLocalIB (keep, _, _) ->
      if keep then "IStoreLocalIB" else "IStoreLocalIBPop"
  | IIncDecLocalI (keep, _, _, _) ->
      if keep then "IIncDecLocalI" else "IIncDecLocalPopI"
  | ICompoundLocalI (keep, _, _, _) ->
      if keep then "ICompoundLocalI" else "ICompoundLocalIPop"
  | ICompoundLocalB (keep, _, _, _) ->
      if keep then "ICompoundLocalB" else "ICompoundLocalBPop"
  | ILocFieldI _ -> "ILocFieldI"
  | IAssignFieldI (keep, _) ->
      if keep then "IAssignFieldI" else "IAssignFieldIPop"
  | IAssignFieldIB (keep, _) ->
      if keep then "IAssignFieldIB" else "IAssignFieldIBPop"
  | ICompoundFieldI (keep, _, _) ->
      if keep then "ICompoundFieldI" else "ICompoundFieldIPop"
  | ICompoundFieldB (keep, _, _) ->
      if keep then "ICompoundFieldB" else "ICompoundFieldBPop"
  | IIncDecFieldI (keep, _, _) ->
      if keep then "IIncDecFieldI" else "IIncDecFieldIPop"
  | IDeclScalarI _ -> "IDeclScalarI"
  | IInitFieldScalarI _ -> "IInitFieldScalarI"
  | IInitFieldScalarB _ -> "IInitFieldScalarB"
  | IJumpIfI (sense, tk, _) ->
      if sense then "IJumpIfTrueI"
      else if tk then "IJumpIfFalseTI"
      else "IJumpIfFalseI"
  | IShortCircuitI (sense, _) -> if sense then "IOrTrueI" else "IAndFalseI"
  | IJumpCmpFalseI _ -> "IJumpCmpFalseI"
  | IJumpCmpConstFalseI (_, _, tk, _) ->
      if tk then "IJumpCmpConstFalseTI" else "IJumpCmpConstFalseI"
  | IJumpLocCmpFalseI (_, _, tk, _) ->
      if tk then "IJumpLocCmpFalseTI" else "IJumpLocCmpFalseI"
  | IJumpLocFCmpFalseI (_, _, _, _, _, tk, _) ->
      if tk then "IJumpLocFCmpFalseTI" else "IJumpLocFCmpFalseI"
  | ILoadFieldI (tk, _, _, _) -> if tk then "ITickLoadFieldI" else "ILoadFieldI"
  | IIndexFieldI _ -> "IIndexFieldI"
  | IBinopConstI _ -> "IBinopConstI"
  | ILoadBinopConstI (tk, _, _, _) ->
      if tk then "ITickLoadBCI" else "ILoadBinopConstI"
  | ILoadFieldBCI _ -> "ILoadFieldBCI"
  | ILoadFieldLoadBCI _ -> "ILoadFieldLoadBCI"
  | ILoadFieldBinopI _ -> "ILoadFieldBinopI"
  | IIncDecLocalJumpI _ -> "IIncDecLocalJumpI"
  | IFieldIdxFieldI _ -> "IFieldIdxFieldI"
  | ITickLoadFieldCmpLocFalseI (_, _, _, _, _, tk, _) ->
      if tk then "ITickLoadFieldCmpLocFalseTI" else "ITickLoadFieldCmpLocFalseI"
  | IJumpLL2FBCCmpFalseI (_, _, _, _, _, _, _, tk, _) ->
      if tk then "IJumpLL2FBCCmpFalseTI" else "IJumpLL2FBCCmpFalseI"
  | IScanStepI _ -> "IScanStepI"
  | ILoadIndexI _ -> "ILoadIndexI"
  | ILoadFieldIndexI (tk, _, _, _, _) ->
      if tk then "ITickLoadFieldIndexI" else "ILoadFieldIndexI"
  | ITLFIndexIStoreT _ -> "ITLFIndexIStoreT"
  | ILoadBinopI _ -> "ILoadBinopI"
  | ILoadLocFieldI (tk, _, _, _) ->
      if tk then "ITickLocFieldI" else "ILoadLocFieldI"
  | IAssignFieldLFIPop _ -> "IAssignFieldLFIPop"
  | IFieldCopyII _ -> "IFieldCopyII"
  | IInitFieldLI _ -> "IInitFieldLI"
  | IInitFieldConstI _ -> "IInitFieldConstI"
  | IBinopConst2I _ -> "IBinopConst2I"
  | IJumpLocFieldBCFalseI (tp, _, _, _, _, _, _) ->
      if tp then "ITickJumpLocFieldBCFalseI" else "IJumpLocFieldBCFalseI"

(* Typed (untagged) opcodes, for the profiler's typed-vs-generic
   dispatch split. Bridge boxing instructions count as typed: they only
   exist on classified paths. *)
let is_typed (i : instr) : bool =
  match i with
  | IConstI _ | ILoadI _ | IFieldI _
  | IIndexI | IBoxI | IBoxIU | IPopI | ILoadIB _
  | IUnaryI _ | IToBoolI | IBinopII _
  | IStoreLocalI _ | IStoreLocalIB _ | IIncDecLocalI _
  | ICompoundLocalI _ | ICompoundLocalB _ | ILocFieldI _
  | IAssignFieldI _ | IAssignFieldIB _
  | ICompoundFieldI _ | ICompoundFieldB _ | IIncDecFieldI _
  | IDeclScalarI _
  | IInitFieldScalarI _ | IInitFieldScalarB _
  | IJumpIfI _ | IShortCircuitI _
  | IJumpCmpFalseI _ | IJumpCmpConstFalseI _
  | IJumpLocCmpFalseI _ | IJumpLocFCmpFalseI _
  | ILoadFieldI _ | IIndexFieldI _ | IBinopConstI _ | ILoadBinopConstI _
  | ILoadFieldBCI _ | ILoadFieldLoadBCI _ | ILoadFieldBinopI _
  | IIncDecLocalJumpI _
  | IFieldIdxFieldI _ | ITickLoadFieldCmpLocFalseI _
  | IJumpLL2FBCCmpFalseI _ | IScanStepI _
  | ILoadIndexI _ | ILoadFieldIndexI _
  | ITLFIndexIStoreT _ | ILoadBinopI _
  | ILoadLocFieldI _
  | IAssignFieldLFIPop _ | IFieldCopyII _
  | IInitFieldLI _ | IInitFieldConstI _ | IBinopConst2I _
  | IJumpLocFieldBCFalseI _ ->
      true
  | _ -> false

(* A loop site: a branch whose target is at or before itself, or a
   whole-loop superinstruction. *)
let is_loop_site (i : instr) ~pc =
  match i with
  | ILoopScan _ -> true
  | _ -> ( match branch_target i with Some t -> t <= pc | None -> false)

let profile_report (cp : cprogram) (p : Vm_profile.t) ~steps :
    Vm_profile.report =
  let opcodes : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
  let total = ref 0 in
  let typed = ref 0 in
  let funcs = ref [] in
  let sites = ref [] in
  Array.iteri
    (fun bid (body : cbody) ->
      let counts = p.Vm_profile.body_counts.(bid) in
      let owner, fidx = cp.cp_owners.(bid) in
      let body_total = ref 0 in
      Array.iteri
        (fun pc n ->
          if n > 0 then begin
            body_total := !body_total + n;
            let ins = body.b_code.(pc) in
            if is_typed ins then typed := !typed + n;
            let m = mnemonic ins in
            (match Hashtbl.find_opt opcodes m with
            | Some r -> r := !r + n
            | None -> Hashtbl.add opcodes m (ref n));
            if is_loop_site ins ~pc then
              sites :=
                {
                  Vm_profile.sr_func = owner;
                  sr_pc = pc;
                  sr_op = m;
                  sr_count = n;
                }
                :: !sites
          end)
        counts;
      total := !total + !body_total;
      let calls =
        match fidx with
        | Some fi -> p.Vm_profile.call_counts.(fi)
        | None -> 0
      in
      if !body_total > 0 || calls > 0 then
        funcs :=
          {
            Vm_profile.fr_name = owner;
            fr_instrs = !body_total;
            fr_calls = calls;
          }
          :: !funcs)
    cp.cp_bodies;
  let by_count_desc name count a b =
    let c = compare (count b) (count a) in
    if c <> 0 then c else String.compare (name a) (name b)
  in
  {
    Vm_profile.r_steps = steps;
    r_dispatches = !total;
    r_typed = !typed;
    r_opcodes =
      Hashtbl.fold (fun m r acc -> (m, !r) :: acc) opcodes []
      |> List.sort (by_count_desc fst snd);
    r_functions =
      List.sort
        (by_count_desc
           (fun (f : Vm_profile.func_row) -> f.Vm_profile.fr_name)
           (fun (f : Vm_profile.func_row) -> f.Vm_profile.fr_instrs))
        !funcs;
    r_sites =
      List.sort
        (by_count_desc
           (fun (s : Vm_profile.site_row) ->
             Printf.sprintf "%s@%d" s.Vm_profile.sr_func s.Vm_profile.sr_pc)
           (fun (s : Vm_profile.site_row) -> s.Vm_profile.sr_count))
        !sites;
  }
