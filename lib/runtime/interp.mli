(** Slot-addressed interpreter for typed MiniC++ programs, instrumented
    for the paper's dynamic measurements.

    [run] first lowers the typed AST through {!Resolve}: locals become
    indices into flat frame arrays, object fields become slots keyed by
    the paper's [(defining class, name)] member identity, virtual calls
    go through precomputed per-name dispatch tables, and
    globals/statics/functions are interned to integer ids. The lowering
    is purely an addressing change — observable behaviour, step counts
    and error messages are identical to the tree-walking evaluator it
    replaced (pinned by [test/test_resolve.ml]'s golden differential).

    Implements the full C++ object lifecycle: construction order
    (virtual bases first at the most-derived level, then direct bases in
    declaration order, then member subobjects, then the body),
    reverse-order destruction, virtual dispatch on the dynamic class,
    reference parameters, pointer arithmetic, [new]/[delete]/[free], and
    stack objects destroyed at scope exit. Every complete-object
    creation and destruction is journalled in a {!Profile.t}. *)

open Sema

(** Result of executing a program's [main]. *)
type outcome = {
  return_value : int;
      (** main's return value; [134] after [abort()], wherever the guest
          called it: in [main], in a global initializer, or in a
          destructor while an error unwound *)
  output : string;  (** everything the [print_*] builtins produced *)
  snapshot : Profile.snapshot;  (** the object-space measurements *)
  steps : int;  (** interpreter steps consumed *)
}

(** Execution engine. [Bytecode] (the default) lowers the resolved IR
    once through {!Bytecode.compile} and runs the flat stack-machine VM,
    with the int slots the compiler's bank analysis ([Resolve.banks])
    unboxes. [Tree] walks the bank-free IR exactly as {!Resolve.program}
    returns it, every slot boxed, and never consults that analysis: it
    is the independent reference the VM is checked against. Both
    produce identical observable outcomes — output, return value,
    steps, allocations, snapshot, errors — pinned by
    [test/test_bytecode.ml]. *)
type engine = Tree | Bytecode

(** A program lowered for both engines: resolved through {!Resolve} and
    compiled through {!Bytecode.compile}. No run changes it, so one
    lowering can serve any number of runs, concurrently too. *)
type lowered

(** Resolve and compile a program. A plain function: nothing is cached
    here. A caller that runs one program many times keeps the result
    itself (the serve daemon keeps it in its front cache,
    [Server.Cache]) and passes it to {!run}. *)
val lower : Typed_ast.program -> lowered

val default_step_limit : int
val default_call_depth_limit : int
val default_heap_object_limit : int

(** Run a program. [dead] only affects the measurement columns of the
    snapshot (dead-member space, reduced high-water mark) — execution is
    identical regardless.

    The three limits guard against runaway programs: steps executed,
    interpreter call depth, and objects created. Each violation — and any
    native [Stack_overflow]/[Out_of_memory] escaping the evaluator — is
    reported as {!Value.Limit_exceeded} (the CLI maps it to exit code 3),
    never as an uncaught native exception. The limits in force are echoed
    in the outcome's profile {!Profile.snapshot.limits}. A guest array
    longer than [Sys.max_array_length] is a {!Value.Limit_exceeded} too,
    in both engines. A wall-clock
    deadline armed with [Value.arm_deadline] (the serve daemon's
    per-request budget) is checked at the same tick points and reported
    the same way.

    [lowered] must be [lower] of this same program; when it is not
    given, [run] lowers the program itself (the tree engine then only
    resolves it).

    [abort()] never escapes: the run ends with return value 134 and the
    output so far.

    @raise Value.Runtime_error on dynamic errors (null dereference,
    division by zero, out-of-bounds access…).
    @raise Value.Limit_exceeded when a resource limit is hit. *)
val run :
  ?engine:engine ->
  ?dead:Member.Set.t ->
  ?step_limit:int ->
  ?call_depth_limit:int ->
  ?heap_object_limit:int ->
  ?lowered:lowered ->
  Typed_ast.program ->
  outcome

(** Like {!run} with the bytecode engine, but with the hot-site
    profiler attached: returns the outcome plus a {!Vm_profile.report}
    of per-opcode dispatch counts, per-function instruction/call counts
    and back-branch loop sites for the run. Profiling only affects the
    report — semantics, tick points and the outcome are identical to an
    unprofiled run. The program is lowered once per call. *)
val run_profiled :
  ?dead:Member.Set.t ->
  ?step_limit:int ->
  ?call_depth_limit:int ->
  ?heap_object_limit:int ->
  Typed_ast.program ->
  outcome * Vm_profile.report
