(** Rank groups: the run-wide state and the scheduling protocol shared by
    both engines.

    Skil programs are SPMD, and both the simulator ({!Machine.run}, at any
    [sim_domains]) and the native engine ({!Machine.run_native}) run them
    as one fiber per rank.  Ranks sit in contiguous groups, each with its own
    {!Scheduler}; one domain at a time drives a group, message delivery
    {!wake}s the destination group, and when every group is idle at once
    the engine's [quiesce] callback runs: the simulator's only reports a
    stall, and the native engine's first re-queues senders parked on the
    full ring of a rank that has returned.  This module owns that
    protocol; an engine supplies only a [step] and a [quiesce] callback to
    {!run}, and the driver never knows which engine called it.

    A group's status word is idle, ready (queued for a domain), running,
    running with a wake-up pending (re-step before releasing), or done.
    The calling domain always drives; when there is more than one group,
    {!Pool} crew workers claim ready groups through a registered work
    source, so no domain is ever spawned here.

    A [t] is also everything about a run that does not depend on the
    engine: the topology, the cost model, the collective mode and its
    {!Coll_alg.net}, the cancel hook, every rank's {!Stats.proc}, and one
    collective deposit table ({!collective}, {!tags}): the first rank to
    reach a collective call site computes its value, the others pick it
    up. *)

type t

exception Stalled of (int * string) list
(** No rank can make progress; one (rank, description of its wait) per
    blocked rank.  Raised by either engine's [quiesce]. *)

exception Cancelled
(** The run's cancel callback returned true at a poll point. *)

val create :
  topology:Topology.t ->
  cost:Cost_model.t ->
  collectives:Coll_alg.mode ->
  cancel:(unit -> bool) option ->
  ngroups:int ->
  t
(** Block the topology's ranks [0 .. nranks - 1] into [ngroups] contiguous
    groups: sizes are [nranks / ngroups], the first [nranks mod ngroups]
    groups one rank larger.  Every group starts ready.  When [ngroups > 1]
    the {!Pool} crew is grown towards [ngroups - 1] workers (clamped to the
    host).  The {!Coll_alg.net} is built from [cost]'s communication
    coefficients unless [collectives] is [Legacy].
    @raise Invalid_argument unless [1 <= ngroups <= nranks]. *)

(** {1 Run-wide state} *)

val nranks : t -> int
val topology : t -> Topology.t
val cost : t -> Cost_model.t
val coll_mode : t -> Coll_alg.mode

val coll_legacy : t -> bool
(** [coll_mode t = Legacy], cached. *)

val coll_net : t -> Coll_alg.net
(** @raise Invalid_argument under [Legacy], where none is built. *)

val stats : t -> Stats.t
(** Every rank's counters, [Stats.proc (stats t) rank]; the engine sets
    the makespan when the run ends. *)

val check_cancel : t -> unit
(** Raise {!Cancelled} if the run's cancel callback fires; a single dead
    branch when none was given.  Callable from any domain, so the callback
    must be thread-safe (an [Atomic.t] read, typically). *)

val cancellable : t -> bool
(** Whether the run was given a cancel callback. *)

(** {1 Scheduling} *)

val count : t -> int
(** Number of groups. *)

val group_of : t -> int -> int
(** The group holding a rank. *)

val span : t -> int -> int * int
(** [(first, size)]: the rank range of a group. *)

val sched : t -> int -> Scheduler.t
(** The group's fiber scheduler; spawn each rank's fiber on its group's
    scheduler, in rank order, before {!run}. *)

val wake : t -> int -> unit
(** The group has deliverable work: queue it if idle, or flag a re-step if
    it is running (which includes a step waking its own group).  Ready and
    done groups are left alone.  Callable from any domain. *)

val run : t -> step:(int -> bool) -> quiesce:(unit -> unit) -> unit
(** Drive every group to completion on the calling domain plus any crew
    workers.

    [step g] runs on whichever domain claimed group [g], never on two at
    once: it delivers pending messages and runs the group's fibers until
    they all finish or park, returning [true] once they have all finished.
    A step that returns [false] releases the group — unless a {!wake}
    arrived meanwhile, in which case it is stepped again.

    [quiesce ()] is called on the calling domain when no group is running
    or ready and at least one is unfinished; nothing else runs during the
    call.  It must {!wake} at least one group or raise (typically
    {!Stalled}).

    The first exception raised by a step or by [quiesce] stops further
    claims and is re-raised, with its backtrace, once every group has
    stopped running. *)

(** {1 Collective call sites} *)

val collective : ?root:bool -> t -> rank:int -> (unit -> 'a) -> 'a
(** [collective t ~rank f], called by [rank]'s fiber at its next collective
    call site: the first rank to reach a call site evaluates [f] and
    deposits the result; the other ranks take it, and the last one removes
    the entry.  All ranks must reach call sites in the same order (the SPMD
    discipline).  [f] must be rank-independent and communication-free (the
    collective contract): it runs under the table's lock.

    With [~root:true] rank 0 evaluates [f], whichever rank arrives first:
    a rank that reaches the site before rank 0 has evaluated it parks its
    fiber until rank 0 has, so what [f] charges to the evaluating rank is
    independent of host timing and of the number of groups.  Rank 0 must
    not wait, before the site, on anything the other ranks do after it. *)

val tags : t -> rank:int -> int -> int
(** [tags t ~rank n] reserves [n] consecutive fresh tag values at [rank]'s
    next collective call site: every rank gets the same first tag. *)
