(** Native execution backend: Skil ranks on real OCaml 5 domains.

    The counterpart of the {!Machine} simulator: ranks are blocked into
    contiguous groups, each group's fibers run on real domains borrowed
    from {!Pool}'s crew, and messages travel through per-link bounded SPSC
    ring buffers in shared memory — no simulated clock, no cost charging.
    Exact receives stay deterministic (each (src, tag) stream is FIFO, a
    Kahn network); {!Machine.recv_any} picks the smallest (wall-clock
    arrival, source rank, link sequence) candidate and is therefore
    timing-dependent, as on a real machine.

    Programs use this module only through {!Machine}'s dispatching context
    ({!Machine.run_native}); the direct API here exists for the dispatch
    layer and for tests. *)

type t
type ctx

type 'r nresult = {
  nvalues : 'r array;  (** per-rank return values *)
  wall : float;  (** wall-clock seconds for the whole run *)
  nstats : Stats.t;  (** message/skeleton counters; makespan = wall *)
}

exception Stalled of (int * string) list
(** No rank can make progress: every live fiber is parked on a receive (or
    on ring space) that no future action can satisfy.  Same payload shape
    as {!Machine.Stalled}. *)

exception Cancelled
(** The run's [cancel] callback returned true at a poll point.  Polled
    cooperatively: at every block drive, at every communication park/retry,
    and at the language engines' per-statement flush (via {!poll_cancel}
    from {!Machine}'s dispatch arms). *)

val run :
  ?cost:Cost_model.t ->
  ?collectives:Coll_alg.mode ->
  ?chan_cap:int ->
  ?domains:int ->
  ?cancel:(unit -> bool) ->
  topology:Topology.t ->
  (ctx -> 'r) ->
  'r nresult
(** Run the SPMD program with real parallelism.  [domains] (default: one
    rank per group) is the number of contiguous-rank groups; the actual
    worker-domain count is clamped by {!Pool.ensure_workers} (the logical
    grouping is always honoured, extra groups queue).  [chan_cap]
    (default 256, rounded up to a power of two) bounds each link's ring;
    senders park fiber-style when a ring is full.  [cost] only seeds the
    collective-selection predictor for non-Legacy [collectives] modes and
    the {!profile} accessor — it never affects execution speed.

    [cancel] (default: never) is polled cooperatively from every driving
    domain and woken fiber; when it returns true the run winds down and
    raises {!Cancelled}.  It may be called from any domain concurrently, so
    it must be thread-safe (an [Atomic.t] read, typically).

    @raise Stalled on deadlock.  @raise Cancelled when [cancel] fires.
    Exceptions raised by the program propagate (first failure wins, as in
    the simulator), once every block has stopped running. *)

(** {1 Context accessors — the native arms of {!Machine}'s dispatch} *)

val self : ctx -> int
val nprocs : ctx -> int
val topology : ctx -> Topology.t
val cost : ctx -> Cost_model.t
val profile : ctx -> Cost_model.profile

val clock : ctx -> float
(** Wall-clock seconds since the run started. *)

val coll_mode : ctx -> Coll_alg.mode
val coll_legacy : ctx -> bool
val coll_net : ctx -> Coll_alg.net
val record_collective : ctx -> name:string -> bytes:int -> unit
val charge_skeleton_call : ctx -> unit

val poll_cancel : ctx -> unit
(** Raise {!Cancelled} if the run's [cancel] callback fires; a single dead
    branch when no callback was installed.  {!Machine}'s per-statement
    charge arms call this so compute-bound Skil programs stay cancellable
    on the native engine. *)

val send :
  ctx -> ?rendezvous:bool -> dest:int -> tag:int -> bytes:int -> 'a -> unit
(** [rendezvous] is accepted for API compatibility and ignored: it only
    shapes simulated time.  Sends to a rank whose program body already
    returned are dropped (the simulator leaves them queued unread). *)

val recv : ctx -> src:int -> tag:int -> 'a
val recv_any : ctx -> tag:int -> int * 'a
val sendrecv : ctx -> dest:int -> src:int -> tag:int -> bytes:int -> 'a -> 'a
val collective : ctx -> (unit -> 'a) -> 'a
val tags : ctx -> int -> int
