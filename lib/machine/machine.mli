(** Deterministic simulator of a distributed-memory message-passing machine
    (the Parsytec MC / Parix substrate of the paper).

    {!run} executes one SPMD program: the same function on every processor,
    each as a cooperative fiber with its own simulated clock.  Point-to-point
    messages are matched by (source, tag) in FIFO order, so a run is fully
    deterministic.  Clocks advance through explicit {!charge} / {!compute}
    calls and through the communication cost model; they never depend on
    host wall-clock time.

    {!run_native} is the same machine without its clock: the same
    processors, transport, counters and collective state, with nothing
    charged, so a run takes host time only.  Every operation below works
    on both; only those that read or advance a clock behave differently,
    as each one says. *)

type ctx

type 'r result = {
  values : 'r array;
  time : float;
  stats : Stats.t;
  trace : Trace.t;
}
(** [values.(i)] is processor [i]'s return value; [time] is the makespan
    (max finishing clock); [trace] is empty unless requested. *)

exception Stalled of (int * string) list
(** The machine made no progress: every live fiber is blocked.  Carries, for
    each blocked processor, a description of the receive it is parked on —
    source, tag and its clock at block time.  Raised both for genuine
    program deadlocks and for receivers starved by dropped messages under a
    fault plan without [~reliable].  Both engines raise this one
    constructor: it is {!Groups.Stalled}, raised by the group driver they
    share. *)

val stall_diagnostic : (int * string) list -> string
(** Render a {!Stalled} payload as a multi-line human-readable report. *)

exception Cancelled
(** The run's [cancel] callback returned true at a cooperative poll point
    (every simulated-clock advance, every group step of either engine,
    and every native receive that parks).  Both engines raise this one
    constructor (it is {!Groups.Cancelled}), so one handler covers any
    backend — the service layer's deadline watchdog relies on this. *)

val run :
  ?cost:Cost_model.t ->
  ?trace:bool ->
  ?faults:Fault.plan ->
  ?reliable:bool ->
  ?collectives:Coll_alg.mode ->
  ?sim_domains:int ->
  ?cancel:(unit -> bool) ->
  topology:Topology.t ->
  (ctx -> 'r) ->
  'r result
(** Run an SPMD program on every processor of [topology].  [trace] (default
    false) records per-processor activity intervals (see {!Trace}).

    [sim_domains] (default 1) shards the simulated processors into up to
    that many contiguous-rank logical processes, driven by {!Groups} — the
    group driver of {!run_native}'s blocks too — on the calling domain plus
    workers borrowed from {!Pool}'s crew; [sim_domains = 1] is one shard on
    the calling domain.  Each processor has one {!Mailbox}: a message
    within a shard is added to it directly, one to another shard is a
    delivery {!Groups.post}ed there.  Every receive names its source and
    each (source, tag) stream is FIFO, so the processors form a Kahn
    network: each receive takes the same message under any interleaving of
    the shards, and a processor's clock is computed from simulated arrival
    times, never from host time.  Results — values, clocks, makespan,
    stats, traces — are therefore bit-identical for every [sim_domains].
    The logical shard count is always honoured; only the number of backing
    worker domains is clamped to the host (see {!Pool.ensure_workers}), so
    determinism tests at [sim_domains > 1] are meaningful even on a
    single-core host.

    [faults] installs a deterministic {!Fault.plan}: messages may be
    dropped, duplicated, corruption-flagged or delayed, processors may
    transiently stall, and scheduled fail-stop crashes make
    checkpoint-protected regions ({!protect}) lose and re-execute their
    work.  Every decision is a pure function of the plan's seed and the
    message key, so a run is exactly replayable.  With [faults] absent and
    [reliable] false the simulation is bit-identical (values, clocks, stats,
    traces) to builds without fault injection — the fault machinery is a
    dead branch behind cached booleans.

    [reliable] (default false) turns on the [Reliable] transport: sequence
    numbers, receiver-side dedup of duplicated copies, and ack/timeout/retry
    with capped exponential backoff, all charged in simulated time.
    Retransmission is resolved at send time from the plan's pure decisions,
    so delivery — and hence program values — always matches the fault-free
    run; only timing degrades.

    [cancel] (default: never) installs a cooperative cancellation
    callback, polled at every clock advance ({!compute}/{!charge}, the
    communication overheads and the Skil engines' {!type-meter} all
    poll).  When it returns true the run raises {!Cancelled}.  It may be
    invoked from any domain under [sim_domains > 1], so it must be
    thread-safe — an [Atomic.t] read, typically.  With [cancel] absent,
    behaviour (values, clocks, stats, traces) is byte-identical to builds
    without the hook.

    @raise Stalled if the program deadlocks or starves (see above).
    @raise Cancelled when [cancel] fires.
    Exceptions raised by the program propagate (the first one wins), and
    only once every shard has stopped running.

    [collectives] (default {!Coll_alg.Legacy}) picks the collective-algorithm
    mode for the run: [Legacy] keeps the seed's binomial-tree code paths
    (bit-identical output); [Auto] selects per call from the cost model;
    [Force a] pins algorithm [a] wherever it applies. *)

val run_native :
  ?cost:Cost_model.t ->
  ?collectives:Coll_alg.mode ->
  ?domains:int ->
  ?cancel:(unit -> bool) ->
  topology:Topology.t ->
  (ctx -> 'r) ->
  'r result
(** Run the SPMD program on the native engine: {!run}'s machine without
    its clock.  The ranks are blocked into up to [domains] contiguous
    groups (default: one rank per group) that run with real parallelism
    on {!Pool}'s worker domains, over the simulator's transport in
    shared memory.  Nothing is charged: every clock, compute time and
    overhead time stays at zero, a send never waits for delivery, and a
    receive that parks adds the wall time it waited to
    [Stats.comm_wait].  The result's [time] is the wall-clock seconds the
    ranks ran, [stats] carries the usual message/skeleton counters
    (makespan = wall), and the trace is empty.  Receives are
    deterministic (a Kahn network), so values match the simulator's,
    which remains the oracle for makespans.  [cost] only seeds the collective-selection predictor
    (non-Legacy [collectives]); it never affects execution speed.
    [cancel] is polled cooperatively (group steps, parked receives, and
    every {!charge}-family call and send) and raises {!Cancelled}; it may
    be called from any domain, so it must be thread-safe.
    @raise Invalid_argument if [domains] is below 1.
    @raise Stalled on deadlock. *)

(** {1 Processor context} *)

val self : ctx -> int
val nprocs : ctx -> int
val topology : ctx -> Topology.t

val clock : ctx -> float
(** The processor's simulated clock; under {!run_native}, which has none,
    the wall-clock seconds since the run started. *)

val coll_mode : ctx -> Coll_alg.mode
(** The run's collective-algorithm mode (see [run]'s [collectives]); only
    {!Collectives} branches on it. *)

val coll_net : ctx -> Coll_alg.net
(** The topology/cost summary the selection layer predicts from.  Only
    built for non-Legacy runs; raises [Invalid_argument] under Legacy. *)

val record_collective : ctx -> name:string -> bytes:int -> unit
(** Count one collective call ([name] is the ["kind[algorithm]"] label) in
    this processor's {!Stats.proc}. *)

val compute : ctx -> float -> unit
(** Charge raw seconds of sequential work (no profile factor applied).
    This and every other charge below only polls the cancel hook under
    {!run_native}. *)

val charge : ctx -> Cost_model.op_class -> ops:int -> base:float -> unit
(** Charge [ops * base * factor] seconds, where the factor comes from the
    run's language profile and the operation class. *)

(** {1 The scalar meter} *)

type times = { mutable clock : float; mutable busy : float }
(** A processor's simulated clock and its charged compute time, which a
    run publishes as [Stats.compute_time] (both stay 0 under
    {!run_native}). *)

(** How a Skil engine charges [ops] expression nodes at each statement:
    plain data, read on every flush, with no call on the common path.

    - [Clock]: a simulated run without tracing or a fault plan.  Poll the
      cancel hook when [cancel_on], then add
      [float_of_int ops *. Calibration.scalar_node_op *. factor] to
      [tm.clock], then to [tm.busy]: the operands, order and effects of
      [charge ctx Scalar ~ops ~base:Calibration.scalar_node_op].
    - [Poll]: a {!run_native} run, which has no clock, with a cancel
      hook; {!Groups.check_cancel}, nothing else.
    - [Charge]: a traced run or one with a fault plan, which records span
      op counts and trace records and applies stalls; call
      [charge ctx Scalar ~ops ~base:Calibration.scalar_node_op].
    - [Idle]: a {!run_native} run without a cancel hook, or no machine
      (sequential evaluation); charge nothing. *)
type meter =
  | Clock of {
      tm : times;
      factor : float;
      cancel_on : bool;
      groups : Groups.t;
    }
  | Poll of Groups.t
  | Charge of ctx
  | Idle

val meter : ctx -> meter
(** The rank's scalar meter. *)

val charge_skeleton_call : ctx -> unit
(** Count one skeleton call in this processor's {!Stats.proc} and charge
    the profile's fixed per-invocation overhead. *)

val charge_copy : ctx -> bytes:int -> unit
(** Charge a contiguous local memory copy of [bytes] bytes. *)

(** {1 Crash protection} *)

val checkpoint_default : ctx -> bool
(** Whether the installed fault plan asks skeletons to checkpoint their
    partitions ([false] when no plan is installed) — the default for
    [Skeletons.create]'s checkpoint policy. *)

val protect :
  ctx ->
  bytes:int ->
  snapshot:(unit -> 'snap) ->
  restore:('snap -> unit) ->
  (unit -> 'a) ->
  'a
(** [protect ctx ~bytes ~snapshot ~restore f] runs the local,
    communication-free region [f] under fail-stop crash protection.  If the
    fault plan schedules a crash on this processor and the region's end
    clock reaches the crash time, the region's work is lost: [restore] puts
    back the snapshot taken on entry, the plan's reboot penalty and the two
    [bytes]-sized copies (checkpoint + restore) are charged, and [f] is
    re-executed.  With no crash pending the region runs at zero cost —
    fault-free runs never snapshot.  [f] must be idempotent given [restore]
    (true for the skeleton layer's partition loops, whose only effects are
    writes to the snapshotted partitions). *)

(** {1 Trace spans} *)

val with_span : ctx -> cat:Trace.cat -> string -> (unit -> 'a) -> 'a
(** [with_span ctx ~cat name f] runs [f ()] bracketed as a {!Trace.span}
    (which skeleton or collective the processor is executing).  Zero
    simulated cost; just [f ()] unless the run was started with
    [~trace:true].  Spans nest (a collective inside a skeleton);
    element-ops charged through {!charge} are attributed to the innermost
    open span. *)

(** {1 Point-to-point communication}

    Payloads travel through an untyped internal representation, exactly like
    MPI buffers: the receiver must expect the type the matching sender put
    in.  The skeleton library guarantees this by always pairing sends and
    receives from the same SPMD call site with the same element type.  [tag]
    disambiguates concurrent exchanges; [bytes] is the simulated wire size
    used for cost accounting. *)

val send : ctx -> ?rendezvous:bool -> dest:int -> tag:int -> bytes:int -> 'a -> unit
(** Asynchronous under async profiles: only local overhead is charged and
    the message arrives at [clock + overhead + latency + hops * per_hop +
    bytes * per_byte].  Under [sync_comm] profiles — or when [rendezvous]
    is set, as on the transputer's synchronous links used by the virtual
    tree topologies — the sender's clock also advances to the arrival time
    (no overlap); under {!run_native} a send never waits.  Self-sends are
    allowed.  A message to a rank whose program has already returned is
    left unread. *)

val recv : ctx -> src:int -> tag:int -> 'a
(** Blocks (in simulation order) until a message from [src] with [tag] is
    available; the local clock advances to at least its arrival time. *)

val sendrecv :
  ctx -> dest:int -> src:int -> tag:int -> bytes:int -> 'a -> 'a
(** [send] to [dest] then [recv] from [src] with the same [tag]. *)

(** {1 Collective helpers} *)

val collective : ?root:bool -> ctx -> (unit -> 'a) -> 'a
(** Evaluate [f] once per {e collective call site} and hand the same value to
    every processor (used to share handles of freshly created distributed
    structures; costs nothing in simulated time).  All processors must reach
    collective call sites in the same order — the usual SPMD discipline.
    The first processor to arrive evaluates [f]; with [~root:true] processor
    0 does, the others waiting for it, so an [f] that charges work charges
    it to processor 0 on every engine and at every [sim_domains]
    ({!Groups.collective}). *)

val tags : ctx -> int -> int
(** [tags ctx n] reserves [n] consecutive fresh tag values shared by all
    processors (a collective call). *)
