(** Bytecode engine: linear lowering of the resolved IR plus the flat
    stack-machine VM that executes it.

    {!compile} flattens every function body of a {!Resolve.rprogram}
    into one instruction array — explicit operand stack, absolute jump
    targets (with compare-and-branch fusion for loop conditions),
    direct-indexed local/global/static/field access, and calls through
    the interned function ids and per-name dispatch tables the resolve
    pass built. Arguments are passed in place on the caller's operand
    stack, eliminating the tree engine's per-call argument array.

    Observable semantics match the tree engine exactly: tick points,
    [fresh_obj_id] sequencing, construction/destruction order,
    evaluation order, error strings and scope-exit destruction
    ([Fun.Finally_raised] on destructor failure during unwinding). The
    parity is pinned by [test/test_bytecode.ml]'s golden differential
    over every benchmark. *)

open Sema

(** A compiled program: the resolved program plus per-function
    instruction arrays, per-class destruction plans and global
    initializer bodies. Immutable once built — safe to share across
    domains and to cache alongside the resolved IR. *)
type cprogram

(** Compile a resolved program. Pure lowering, no execution. Records the
    [bytecode.instructions_compiled] / [bytecode.bodies_compiled]
    telemetry counters under a ["bytecode"] span. *)
val compile : Resolve.rprogram -> cprogram

(** One execution's mutable state: profile journal, globals/statics,
    output buffer, resource-guard counters and the per-depth pools of
    operand stacks and frames. Not reusable across runs. *)
type vm

(** Preallocate hot-site profiler state sized for [cprogram]'s bodies
    and function table; pass it to {!make_vm} to enable profiling, then
    aggregate with {!profile_report} after {!execute}. *)
val make_profiler : cprogram -> Vm_profile.t

(** [dead] only affects the snapshot's measurement columns, exactly as
    in [Interp.run]. The limits mirror [Interp.run]'s guards; violations
    raise {!Value.Limit_exceeded} with the tree engine's messages.

    [profiler] enables the hot-site profiler for this run: every
    dispatch bumps the profiler's per-body-per-pc counter ([ILoopScan]
    counts one per loop iteration, so fused loops stay visible) and
    every function-protocol call bumps its per-function counter. When
    absent, the only residue is one predictable branch per dispatch. *)
val make_vm :
  ?dead:Member.Set.t ->
  ?profiler:Vm_profile.t ->
  step_limit:int ->
  call_depth_limit:int ->
  heap_object_limit:int ->
  cprogram ->
  vm

(** Run globals then [main]; returns [main]'s value ([VInt 134] after
    [abort()]).

    @raise Value.Runtime_error on dynamic errors.
    @raise Value.Limit_exceeded when a resource limit is hit. *)
val execute : vm -> Value.value

val output : vm -> string
val steps : vm -> int
val allocations : vm -> int
val max_call_depth : vm -> int

val profile : vm -> Profile.t

(** Aggregate a filled profiler into a {!Vm_profile.report}: per-opcode
    dispatch counts, per-function instruction and call counts, and
    back-branch (loop) sites, each sorted descending. [steps] is the
    finished VM's step counter, carried in the report for
    cross-checking. *)
val profile_report : cprogram -> Vm_profile.t -> steps:int -> Vm_profile.report
