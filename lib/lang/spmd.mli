(** Execute Skil programs on the simulated distributed machine.

    Every processor runs the same program (SPMD), and the skeleton
    builtins of section 3 execute as collectives on the machine — this is
    the full pipeline of the paper: Skil source in, parallel behaviour and
    simulated runtimes out. *)

type outcome = { value : Value.t; printed : string }

type engine = [ `Ast | `Compiled | `Native ]
(** [`Ast] walks the typed tree with the reference interpreter;
    [`Compiled] (the default) first translates every function body into
    OCaml closures ({!Compile}).  The two engines produce bit-identical
    printed output, return values, simulated makespans, Stats and traces;
    the compiled one is just faster in wall-clock terms.

    [`Native] reuses the compiled engine's closures (and unboxed
    partitions) but executes the ranks with real parallelism on OCaml
    domains ({!Machine.run_native}): no simulated clock, wall-clock [time],
    message counts in [stats], empty trace.  Values and printed output
    match the simulator for every program: every receive names its source,
    so host timing cannot change which message a rank takes.  Incompatible
    with [faults]/[reliable]/[trace]/[sim_domains > 1] — {!run_prepared}
    raises [Invalid_argument]. *)

type optimize = [ `None | `Fuse ]
(** [`None] (the default) leaves the instantiated program untouched —
    output, makespans, Stats and traces stay byte-identical to a build
    without the optimizer.  [`Fuse] runs {!Optimize.program} after
    instantiation: value-identical results (same printed output, same
    return value) with strictly fewer charged element-ops and a smaller
    makespan wherever a rewrite fires.  Requires [instantiate = true];
    {!prepare_source} raises [Invalid_argument] otherwise. *)

type prepared
(** A program carried through the whole translation pipeline — typecheck,
    instantiation, optimization ([`Fuse]), closure compilation — but not
    yet bound to a topology or machine options.  Compilation is
    topology-independent, so one handle serves any number of runs: the
    service layer's compiled-program cache stores these ("compile once,
    run many").  Immutable after construction and safe to share across
    domains. *)

val prepare_source :
  ?instantiate:bool ->
  ?engine:engine ->
  ?optimize:optimize ->
  string ->
  entry:string ->
  prepared
(** Parse and translate a program for [engine] (default [`Compiled]) down
    to a reusable handle.  When [instantiate] is true (default), the
    program is translated by instantiation, exactly as the Skil compiler
    would, and the first-order result is what runs.  Raises the usual
    frontend exceptions ({!Lexer.Error} / {!Parser.Error} with
    [file:line:col]-ready positions, {!Typecheck.Type_error},
    {!Instantiate.Unsupported}, [Invalid_argument]) — all translation-time
    failures happen here, so a cached handle can only fail at run time. *)

val run_prepared :
  ?cost:Cost_model.t ->
  ?trace:bool ->
  ?faults:Fault.plan ->
  ?reliable:bool ->
  ?collectives:Coll_alg.mode ->
  ?sim_domains:int ->
  ?native_domains:int ->
  ?cancel:(unit -> bool) ->
  topology:Topology.t ->
  prepared ->
  args:Value.t list ->
  outcome Machine.result
(** Execute a prepared handle on [topology].  [run_source] is exactly
    [run_prepared (prepare_source ...)], so a cache-hit run is
    byte-identical to a fresh compile-and-run by construction (pinned by a
    QCheck property in [test/test_service.ml]).  [trace] records
    structured events for {!Profile} (default false).  [printed] collects
    each processor's print_* output.

    [faults] / [reliable] are handed straight to {!Machine.run}: a
    deterministic fault plan injected under the skeleton runtime, and the
    reliable transport that lets every program return its fault-free
    values under message loss.  Without them, behaviour is bit-identical
    to a build without fault injection.

    [collectives] (default [Legacy]) picks the collective-algorithm mode
    (see {!Machine.run}): [Legacy] keeps the seed's binomial trees and is
    byte-identical to historical output; [Auto] selects per call from the
    cost model; [Force _] pins one algorithm.

    [sim_domains] (default 1) shards the simulated machine across OCaml
    domains — results are bit-identical for every value (see
    {!Machine.run}); only host wall-clock time changes.

    [native_domains] applies only to the [`Native] engine: the
    rank-blocking group count handed to {!Machine.run_native}.  Options of
    the other kind are rejected, never ignored: [native_domains] on
    [`Ast]/[`Compiled], and [faults], [reliable], [trace] or
    [sim_domains > 1] on [`Native], raise [Invalid_argument]; so does
    [sim_domains < 1] on every engine.  [cancel] is the cooperative
    cancellation hook of {!Machine.run} / {!Machine.run_native}; when it
    fires the run raises {!Machine.Cancelled}. *)

val run_source :
  ?cost:Cost_model.t ->
  ?trace:bool ->
  ?faults:Fault.plan ->
  ?reliable:bool ->
  ?collectives:Coll_alg.mode ->
  ?sim_domains:int ->
  ?native_domains:int ->
  ?cancel:(unit -> bool) ->
  ?instantiate:bool ->
  ?engine:engine ->
  ?optimize:optimize ->
  topology:Topology.t ->
  string ->
  entry:string ->
  args:Value.t list ->
  outcome Machine.result
(** {!prepare_source} then {!run_prepared}.  Frontend failures surface as
    {!Lexer.Error} / {!Parser.Error} / {!Typecheck.Type_error} /
    {!Instantiate.Unsupported}, each carrying the [line]/[col] of the
    offending token — {!Errclass.of_exn} (lib/service) renders them as
    [file:line:col: kind: message], the exact diagnostics `skilc` prints,
    so service error replies carry positions verbatim. *)

val render : ?summary:engine * Cost_model.t -> outcome Machine.result -> string
(** What [skilc run-par] prints for a run: a [[proc i] <printed>] line for
    each rank that printed anything, in rank order — on its own, the
    payload of a skild OK reply — then, with [summary] (the run's engine
    and cost model), the time line (simulated under the cost profile, or
    native wall-clock) and the {!Stats} summary line. *)
