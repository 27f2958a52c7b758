(** Rank groups: the scheduling protocol shared by both engines.

    Skil programs are SPMD, and both the simulator ({!Machine.run}, at any
    [sim_domains]) and the native engine ({!Native.run}) run them as one
    fiber per rank.  Ranks sit in contiguous groups, each with its own
    {!Scheduler}; one domain at a time drives a group, message delivery
    {!wake}s the destination group, and when every group is idle at once
    the engine's [quiesce] callback either unblocks someone or reports a
    stall.  This module owns that protocol; an engine supplies only a
    [step] and a [quiesce] callback to {!run}, and the driver never knows
    which engine called it.

    A group's status word is idle, ready (queued for a domain), running,
    running with a wake-up pending (re-step before releasing), or done.
    The calling domain always drives; when there is more than one group,
    {!Pool} crew workers claim ready groups through a registered work
    source, so no domain is ever spawned here.

    The run's ranks also share one collective deposit table ({!collective},
    {!tags}): the first rank to reach a collective call site computes its
    value, the others pick it up. *)

type t

val create : nranks:int -> ngroups:int -> t
(** Block ranks [0 .. nranks - 1] into [ngroups] contiguous groups: sizes
    are [nranks / ngroups], the first [nranks mod ngroups] groups one rank
    larger.  Every group starts ready.  When [ngroups > 1] the {!Pool} crew
    is grown towards [ngroups - 1] workers (clamped to the host).
    @raise Invalid_argument unless [1 <= ngroups <= nranks]. *)

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
    call.  It must {!wake} at least one group or raise (typically the
    engine's [Stalled]).

    The first exception raised by a step or by [quiesce] stops further
    claims and is re-raised, with its backtrace, once every group has
    stopped running. *)

(** {1 Collective call sites} *)

val collective : t -> rank:int -> (unit -> 'a) -> 'a
(** [collective t ~rank f], called by [rank]'s fiber at its next collective
    call site: the first rank to reach a call site evaluates [f] and
    deposits the result; the other ranks take it, and the last one removes
    the entry.  All ranks must reach call sites in the same order (the SPMD
    discipline).  [f] must be rank-independent and communication-free (the
    collective contract): it runs under the table's lock. *)

val tags : t -> rank:int -> int -> int
(** [tags t ~rank n] reserves [n] consecutive fresh tag values at [rank]'s
    next collective call site: every rank gets the same first tag. *)
