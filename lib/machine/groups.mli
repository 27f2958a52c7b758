(** Rank groups: the scheduling protocol, the cross-group message delivery
    and the collective call sites shared by both engines.

    Skil programs are SPMD, and both the simulator ({!Machine.run}, at any
    [sim_domains]) and the native engine ({!Machine.run_native}) run them
    as one fiber per rank, each with one {!Mailbox}.  Ranks sit in
    contiguous groups, each with its own {!Scheduler}; one domain at a time
    drives a group.  A message to a rank of the sender's own group goes
    straight into the receiver's mailbox; one to another group is a
    delivery {!post}ed to that group, which its driver runs before its
    next step.  When every group is idle at once and some rank has not
    finished, {!run} raises {!Stalled}.  {!Machine} drives both engines
    through this one protocol: it spawns the ranks' fibers and describes
    a blocked rank, and the driver never knows which engine runs.

    A group's status word is idle, ready (queued for a domain), running,
    running with a wake-up pending (re-step before releasing), or done.
    The calling domain always drives; when there is more than one group,
    {!Pool} crew workers claim ready groups through a registered work
    source, so no domain is ever spawned here.

    A [t] also holds the cancel hook and the one collective deposit table
    ({!collective}, {!tags}): the first rank to reach a collective call
    site computes its value, the others pick it up.  The run's topology,
    cost profile, collective mode and counters belong to {!Machine}. *)

type t

exception Stalled of (int * string) list
(** No rank can make progress; one (rank, description of its wait) per
    blocked rank.  Raised by {!run} for either engine. *)

exception Cancelled
(** The run's cancel callback returned true at a poll point. *)

val create : nranks:int -> cancel:(unit -> bool) option -> ngroups:int -> t
(** Block the ranks [0 .. nranks - 1] into [ngroups] contiguous groups:
    sizes are [nranks / ngroups], the first [nranks mod ngroups] groups one
    rank larger.  Every group starts ready.  When [ngroups > 1] the {!Pool}
    crew is grown towards [ngroups - 1] workers (clamped to the host).
    @raise Invalid_argument unless [1 <= ngroups <= nranks]. *)

(** {1 Cancellation} *)

val check_cancel : t -> unit
(** Raise {!Cancelled} if the run's cancel callback fires; a single dead
    branch when none was given.  Callable from any domain, so the callback
    must be thread-safe (an [Atomic.t] read, typically). *)

val cancellable : t -> bool
(** Whether the run was given a cancel callback. *)

(** {1 Scheduling} *)

val group_of : t -> int -> int
(** The group holding a rank. *)

val mailbox : t -> int -> 'm Mailbox.t
(** A fresh mailbox for the rank, bound to the fiber {!spawn} gives it. *)

val spawn : t -> int -> (unit -> unit) -> unit
(** Spawn the rank's fiber on its group's scheduler.  Call it for every
    rank, in rank order, before {!run}.
    @raise Invalid_argument when ranks are spawned out of order. *)

val post : t -> int -> (unit -> unit) -> unit
(** [post t g f] hands group [g] a delivery from any domain: [f] runs on
    the domain driving [g], before its next step, after every delivery
    posted to [g] before it; [g] is woken.  A delivery to a group whose
    ranks have all finished never runs.  What [f] reads is published to
    the domain that runs it. *)

val run : t -> describe:(int -> string) -> unit
(** Drive every group to completion on the calling domain plus any crew
    workers.

    A step of group [g] runs on whichever domain claimed [g], never on two
    at once: it runs the deliveries posted to [g], polls the cancel hook,
    then runs the group's fibers until they all finish or park.  A step
    that leaves a fiber not finished releases the group — unless a {!post}
    arrived meanwhile, in which case it is stepped again.

    When no group is running or ready and a fiber has not finished, nothing
    can ever wake it: {!run} raises {!Stalled}, with [(rank, describe
    rank)] for every rank whose fiber has not finished, in rank order.

    The first exception raised by a step stops further claims and is
    re-raised, with its backtrace, once every group has stopped running. *)

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
    fiber until rank 0 has ({!post}ing the wake-up to the rank's group),
    so what [f] charges to the evaluating rank is independent of host
    timing and of the number of groups.  Rank 0 must
    not wait, before the site, on anything the other ranks do after it. *)

val tags : t -> rank:int -> int -> int
(** [tags t ~rank n] reserves [n] consecutive fresh tag values at [rank]'s
    next collective call site: every rank gets the same first tag. *)
