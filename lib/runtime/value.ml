(* Runtime values for the MiniC++ interpreter.

   Objects are flattened: a complete object holds one slot per instance
   data member of its class and of every (transitively) inherited base.
   Slot numbers are assigned per dynamic class by the resolve pass from
   the member's identity (defining class, name); virtual bases therefore
   appear once, matching C++ semantics. Repeated non-virtual bases are
   rejected by the semantic analysis. Class-typed data members are
   embedded objects stored as [VObj]. *)

open Sema

type value =
  | VUnit
  | VInt of int          (* int/long/char/bool *)
  | VFloat of float
  | VStr of string       (* char* pointing at a string literal *)
  | VNull
  | VPtr of pointer
  | VObj of obj          (* class-typed subobject / local *)
  | VArr of harray       (* array object (local, member, or heap) *)
  | VMemPtr of Member.t
  | VFunPtr of Typed_ast.Func_id.t

and pointer =
  | PObj of obj                (* pointer to a class object *)
  | PCell of value ref         (* pointer to a scalar variable or member *)
  | PArr of harray * int       (* pointer into an array *)

and obj = {
  obj_id : int;
  obj_class : string;  (* most-derived (dynamic) class *)
  obj_cid : int;       (* interned id of the dynamic class (resolve pass) *)
  fields : harray;     (* boxed member bank, one cell per boxed member *)
  ifields : int array;   (* unboxed integral member bank (bytecode VM only) *)
}

and harray = {
  arr_id : int;
      (* journalled allocation id of a class-object array; -1 for scalar
         and member arrays *)
  cells : value array;
}

exception Runtime_error of string

(* A configured resource limit (steps, call depth, object count) was hit,
   or a native resource exception (Stack_overflow, Out_of_memory) was
   intercepted. Kept distinct from [Runtime_error] so the CLI can map it
   to its own exit code (3) in the documented contract. *)
exception Limit_exceeded of string

let runtime_error fmt = Fmt.kstr (fun m -> raise (Runtime_error m)) fmt
let limit_exceeded fmt = Fmt.kstr (fun m -> raise (Limit_exceeded m)) fmt

(* -- cooperative deadlines ----------------------------------------------------

   A per-domain wall-clock deadline, checked by both engines at their
   existing tick points (every few thousand steps, so the check stays
   off the hot path). Domains cannot be interrupted asynchronously in
   OCaml, so a hung request can only be cancelled cooperatively: the
   serve daemon arms a deadline before running a request and the
   interpreter raises [Limit_exceeded] — the same structured error as
   the step/depth/object guards — once it passes. Domain-local state
   keeps concurrent worker domains' deadlines independent. *)

let deadline_key : float Domain.DLS.key =
  Domain.DLS.new_key (fun () -> infinity)

(* [arm_deadline t] arms an absolute wall-clock deadline [t] (the
   [Unix.gettimeofday] timebase, seconds) for the calling domain. *)
let arm_deadline t = Domain.DLS.set deadline_key t
let disarm_deadline () = Domain.DLS.set deadline_key infinity
let deadline_expired () = Unix.gettimeofday () > Domain.DLS.get deadline_key

let check_deadline () =
  if deadline_expired () then
    limit_exceeded "deadline exceeded: request wall-clock budget consumed"

(* How many interpreter steps may pass between wall-clock reads. Both
   engines fold this into their step-limit compare (a [next_stop]
   checkpoint) so the hot tick path stays one increment + one test. *)
let deadline_check_interval = 2048

let with_deadline t f =
  arm_deadline t;
  Fun.protect ~finally:disarm_deadline f

(* Shared [VInt] blocks for the values the interpreted programs actually
   produce (loop counters, flags, small arithmetic): [VInt] is immutable,
   so sharing one block per small integer is unobservable, and it keeps
   the hot arithmetic/comparison paths of both engines off the minor
   heap. *)
let vint_cache = Array.init 1281 (fun i -> VInt (i - 256))

let[@inline] vint n =
  if n >= -256 && n <= 1024 then Array.unsafe_get vint_cache (n + 256)
  else VInt n

let vtrue = VInt 1
let vfalse = VInt 0

(* Truthiness for conditions. *)
let truthy = function
  | VInt n -> n <> 0
  | VFloat f -> f <> 0.0
  | VNull -> false
  | VPtr _ | VObj _ | VArr _ | VStr _ | VFunPtr _ | VMemPtr _ -> true
  | VUnit -> runtime_error "void value used in condition"

let as_int = function
  | VInt n -> n
  | VFloat f -> int_of_float f
  | VNull -> 0
  | v ->
      runtime_error "expected an integer value, got %s"
        (match v with
        | VStr _ -> "a string"
        | VPtr _ -> "a pointer"
        | VObj _ -> "an object"
        | VArr _ -> "an array"
        | VMemPtr _ -> "a member pointer"
        | VFunPtr _ -> "a function pointer"
        | VUnit -> "void"
        | VInt _ | VFloat _ | VNull -> assert false)

let as_float = function
  | VFloat f -> f
  | VInt n -> float_of_int n
  | _ -> runtime_error "expected a floating-point value"

let as_obj = function
  | VObj o -> o
  | VPtr (PObj o) -> o
  | _ -> runtime_error "expected a class object"

(* Equality used by == and != : pointer identity for pointers. *)
let value_eq a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VFloat x, VFloat y -> x = y
  | VInt x, VFloat y | VFloat y, VInt x -> float_of_int x = y
  | VNull, VNull -> true
  | VNull, VPtr _ | VPtr _, VNull -> false
  | VNull, (VInt 0) | (VInt 0), VNull -> true
  | VPtr (PObj a), VPtr (PObj b) -> a == b
  | VPtr (PCell a), VPtr (PCell b) -> a == b
  | VPtr (PArr (a, i)), VPtr (PArr (b, j)) -> a.cells == b.cells && i = j
  | VPtr _, VPtr _ -> false
  | VStr a, VStr b -> String.equal a b
  | VFunPtr a, VFunPtr b -> Typed_ast.Func_id.equal a b
  | VMemPtr a, VMemPtr b -> Member.equal a b
  | _ -> runtime_error "incomparable values"

(* Every array whose length the guest program chooses — [new T[n]],
   local, global, static and member arrays, stack and member arrays of
   objects — is allocated here, in both engines: a length past
   [Sys.max_array_length] is a resource limit, not an [Invalid_argument]
   escaping the run. *)
let guest_array n f =
  if n > Sys.max_array_length then
    limit_exceeded "array of %d elements exceeds the maximum array length %d" n
      Sys.max_array_length;
  Array.init n f

(* Default (zero) value for a type; class-typed slots are filled during
   construction and [VUnit] here is a placeholder that construction
   replaces. *)
let rec default_value (ty : Frontend.Ast.type_expr) : value =
  match ty with
  | Frontend.Ast.TBool | Frontend.Ast.TChar | Frontend.Ast.TInt
  | Frontend.Ast.TLong ->
      VInt 0
  | Frontend.Ast.TFloat | Frontend.Ast.TDouble -> VFloat 0.0
  | Frontend.Ast.TPtr _ | Frontend.Ast.TFun _ | Frontend.Ast.TMemPtrTy _ ->
      VNull
  | Frontend.Ast.TRef _ -> VNull
  | Frontend.Ast.TNamed _ -> VUnit (* replaced by construction *)
  | Frontend.Ast.TArr (elem, n) ->
      VArr { arr_id = -1; cells = guest_array n (fun _ -> default_value elem) }
  | Frontend.Ast.TVoid -> VUnit

(* Coerce a value being stored into a slot of static type [ty]: truncates
   floats into ints and widens ints into floats, mirroring C++ implicit
   conversions on assignment and argument passing. *)
let coerce (ty : Frontend.Ast.type_expr) (v : value) : value =
  match (ty, v) with
  | (Frontend.Ast.TInt | Frontend.Ast.TLong), VFloat f -> vint (int_of_float f)
  | Frontend.Ast.TChar, VInt n -> vint (n land 255)
  | Frontend.Ast.TChar, VFloat f -> vint (int_of_float f land 255)
  | Frontend.Ast.TBool, VInt n -> if n <> 0 then vtrue else vfalse
  | Frontend.Ast.TBool, VFloat f -> if f <> 0.0 then vtrue else vfalse
  | (Frontend.Ast.TFloat | Frontend.Ast.TDouble), VInt n -> VFloat (float_of_int n)
  | Frontend.Ast.TPtr _, VArr h -> VPtr (PArr (h, 0))  (* array decay *)
  | Frontend.Ast.TPtr _, VObj o -> VPtr (PObj o)
  | _ -> v

(* -- lvalue locations ----------------------------------------------------------

   Shared by both execution engines (the tree-walker and the bytecode
   VM): an lvalue location is a slot of some backing array (frame,
   object, globals, statics, or a program array), or a raw cell reached
   through a legacy [PCell] pointer. *)

type location =
  | LRef of value ref
  | LSlot of harray * int

let read_loc = function
  | LRef r -> !r
  | LSlot (h, i) -> h.cells.(i)

let write_loc loc v =
  match loc with
  | LRef r -> r := v
  | LSlot (h, i) -> h.cells.(i) <- v

(* Pointers made from locations always carry [arr_id = -1], exactly as
   the scope-chain interpreter's [ptr_of_loc] did: a pointer *into* a
   heap array is not the allocation itself, so [free] through it never
   journals a free. *)
let ptr_of_loc = function
  | LRef r -> VPtr (PCell r)
  | LSlot (h, i) ->
      VPtr (PArr ((if h.arr_id = -1 then h else { arr_id = -1; cells = h.cells }), i))

(* Shared empty bank, so frames and objects without unboxed slots cost
   nothing extra. *)
let no_ints : int array = [||]

(* A call frame: flat slot-addressed locals (one bank per representation;
   the tree walker's frames have no int bank) plus the receiver. *)
type frame = {
  locals : harray;
  ilocals : int array;
  this : obj option;
}

let mk_frame ~ints nslots this =
  {
    locals = { arr_id = -1; cells = Array.make nslots VUnit };
    ilocals = (if ints = 0 then no_ints else Array.make ints 0);
    this;
  }

(* Raised by the [abort()] builtin; intercepted at the interpreter entry
   point, where it becomes exit status 134. It never leaves the engines. *)
exception Abort_called

(* Whether a run ended in [abort()]: also when a destructor called it
   while an error unwound its scope, which wraps it in
   [Fun.Finally_raised]. *)
let rec is_abort = function
  | Abort_called -> true
  | Fun.Finally_raised e -> is_abort e
  | _ -> false

(* -- operator semantics ----------------------------------------------------------

   One copy of the arithmetic/comparison/unary semantics, shared by both
   engines so error strings and edge cases cannot drift. *)

let unary op v =
  match (op, v) with
  | Frontend.Ast.Neg, VInt n -> vint (-n)
  | Frontend.Ast.Neg, VFloat f -> VFloat (-.f)
  | Frontend.Ast.UPlus, v -> v
  | Frontend.Ast.Not, v -> if truthy v then vfalse else vtrue
  | Frontend.Ast.BitNot, VInt n -> vint (lnot n)
  | _ -> runtime_error "invalid unary operand"

(* The boolean result of a relational operator ([<] [>] [<=] [>=]). *)
let compare_test op va vb =
  let cmp =
    match (va, vb) with
    | VInt x, VInt y -> compare x y
    | VFloat x, VFloat y -> compare x y
    | VInt x, VFloat y -> compare (float_of_int x) y
    | VFloat x, VInt y -> compare x (float_of_int y)
    | VPtr (PArr (h1, i)), VPtr (PArr (h2, j)) when h1.cells == h2.cells ->
        compare i j
    | _ -> runtime_error "invalid comparison operands"
  in
  match op with
  | Frontend.Ast.Lt -> cmp < 0
  | Frontend.Ast.Gt -> cmp > 0
  | Frontend.Ast.Le -> cmp <= 0
  | Frontend.Ast.Ge -> cmp >= 0
  | _ -> assert false

let compare_values op va vb = if compare_test op va vb then vtrue else vfalse

let arith op va vb =
  match (va, vb) with
  | VPtr (PArr (h, i)), VInt n -> (
      match op with
      | Frontend.Ast.Add -> VPtr (PArr (h, i + n))
      | Frontend.Ast.Sub -> VPtr (PArr (h, i - n))
      | _ -> runtime_error "invalid pointer arithmetic")
  | VInt n, VPtr (PArr (h, i)) when op = Frontend.Ast.Add ->
      VPtr (PArr (h, i + n))
  | VPtr (PArr (h1, i)), VPtr (PArr (h2, j))
    when op = Frontend.Ast.Sub && h1.cells == h2.cells ->
      vint (i - j)
  | VFloat _, _ | _, VFloat _ -> (
      let x = as_float va and y = as_float vb in
      match op with
      | Frontend.Ast.Add -> VFloat (x +. y)
      | Frontend.Ast.Sub -> VFloat (x -. y)
      | Frontend.Ast.Mul -> VFloat (x *. y)
      | Frontend.Ast.Div ->
          if y = 0.0 then runtime_error "floating division by zero"
          else VFloat (x /. y)
      | _ -> runtime_error "invalid floating operands")
  | _ -> (
      let x = as_int va and y = as_int vb in
      match op with
      | Frontend.Ast.Add -> vint (x + y)
      | Frontend.Ast.Sub -> vint (x - y)
      | Frontend.Ast.Mul -> vint (x * y)
      | Frontend.Ast.Div ->
          if y = 0 then runtime_error "division by zero" else vint (x / y)
      | Frontend.Ast.Mod ->
          if y = 0 then runtime_error "modulo by zero" else vint (x mod y)
      | Frontend.Ast.BAnd -> vint (x land y)
      | Frontend.Ast.BOr -> vint (x lor y)
      | Frontend.Ast.BXor -> vint (x lxor y)
      | Frontend.Ast.Shl -> vint (x lsl y)
      | Frontend.Ast.Shr -> vint (x asr y)
      | _ -> assert false)

let compound_op op old rv ty =
  let binop =
    match op with
    | Frontend.Ast.AddAssign -> Frontend.Ast.Add
    | Frontend.Ast.SubAssign -> Frontend.Ast.Sub
    | Frontend.Ast.MulAssign -> Frontend.Ast.Mul
    | Frontend.Ast.DivAssign -> Frontend.Ast.Div
    | Frontend.Ast.ModAssign -> Frontend.Ast.Mod
    | Frontend.Ast.AndAssign -> Frontend.Ast.BAnd
    | Frontend.Ast.OrAssign -> Frontend.Ast.BOr
    | Frontend.Ast.XorAssign -> Frontend.Ast.BXor
    | Frontend.Ast.ShlAssign -> Frontend.Ast.Shl
    | Frontend.Ast.ShrAssign -> Frontend.Ast.Shr
    | Frontend.Ast.Assign -> assert false
  in
  coerce ty (arith binop old rv)

let pp_value ppf = function
  | VUnit -> Fmt.string ppf "void"
  | VInt n -> Fmt.int ppf n
  | VFloat f -> Fmt.float ppf f
  | VStr s -> Fmt.pf ppf "%S" s
  | VNull -> Fmt.string ppf "NULL"
  | VPtr (PObj o) -> Fmt.pf ppf "<%s#%d>" o.obj_class o.obj_id
  | VPtr (PCell _) -> Fmt.string ppf "<ptr>"
  | VPtr (PArr (_, i)) -> Fmt.pf ppf "<arr+%d>" i
  | VObj o -> Fmt.pf ppf "<obj %s#%d>" o.obj_class o.obj_id
  | VArr a -> Fmt.pf ppf "<array[%d]>" (Array.length a.cells)
  | VMemPtr m -> Fmt.pf ppf "<&%s>" (Member.to_string m)
  | VFunPtr f -> Fmt.pf ppf "<&%s>" (Typed_ast.Func_id.to_string f)
