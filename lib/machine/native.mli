(** Native execution backend: Skil ranks on real OCaml 5 domains.

    The counterpart of the {!Machine} simulator: ranks are blocked into
    contiguous groups, each group's fibers run on real domains borrowed
    from {!Pool}'s crew, and messages travel through the simulator's
    transport in shared memory — no simulated clock, no cost charging.
    Each rank has one {!Mailbox}; a send within the sender's group adds to
    it directly, waking a parked receiver at once, and a send to another
    group is a delivery {!Groups.post}ed there.  Every receive names its
    source and each (src, tag) stream is FIFO, so the ranks form a Kahn
    network: values and printed output are the simulator's whatever the
    host timing.

    This module holds only what differs from the simulator: the message
    type (a bare payload) and the wall clock.  The run-wide state —
    topology, collective mode, counters, cancel hook, collective deposits,
    scheduling and the [Stalled]/[Cancelled] exceptions — is the
    {!Groups.t} both engines share.  Programs use this engine through
    {!Machine.run_native}. *)

type ctx

val run : Groups.t -> (int -> ctx -> unit) -> float
(** [run groups f] runs [f rank ctx] as every rank's program, one block per
    group of [groups], and returns the wall-clock seconds the run took.
    The cancel hook is polled at every block step and after every receive
    that parks.  Message and wait counters go to [Groups.stats groups].
    @raise Groups.Stalled on deadlock.
    @raise Groups.Cancelled when the cancel hook fires.
    Exceptions raised by [f] propagate (first failure wins, as in the
    simulator), once every block has stopped running. *)

val clock : ctx -> float
(** Wall-clock seconds since the run started. *)

val send :
  ctx -> ?rendezvous:bool -> dest:int -> tag:int -> bytes:int -> 'a -> unit
(** [rendezvous] is accepted for API compatibility and ignored: it only
    shapes simulated time.  A message to a rank whose program body already
    returned is left unread, as on the simulator. *)

val recv : ctx -> src:int -> tag:int -> 'a
