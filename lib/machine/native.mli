(** Native execution backend: Skil ranks on real OCaml 5 domains.

    The counterpart of the {!Machine} simulator: ranks are blocked into
    contiguous groups, each group's fibers run on real domains borrowed
    from {!Pool}'s crew, and messages travel through per-link bounded SPSC
    ring buffers in shared memory — no simulated clock, no cost charging.
    Every receive names its source and each (src, tag) stream is FIFO, so
    the ranks form a Kahn network: values and printed output are the
    simulator's whatever the host timing.

    This module holds only what differs from the simulator: the rings, the
    per-rank mailboxes and the wall clock.  The run-wide state — topology,
    collective mode, counters, cancel hook, collective deposits and the
    [Stalled]/[Cancelled] exceptions — is the {!Groups.t} both engines
    share.  Programs use this engine through {!Machine.run_native}. *)

type ctx

val run : Groups.t -> chan_cap:int -> (int -> ctx -> unit) -> float
(** [run groups ~chan_cap f] runs [f rank ctx] as every rank's program, one
    block per group of [groups], and returns the wall-clock seconds the run
    took.  [chan_cap] ([>= 1], rounded up to a power of two) bounds each
    link's ring; senders park fiber-style when a ring is full.  The cancel
    hook is polled at every block step and every communication park.
    Message and wait counters go to [Groups.stats groups].
    @raise Groups.Stalled on deadlock.
    @raise Groups.Cancelled when the cancel hook fires.
    Exceptions raised by [f] propagate (first failure wins, as in the
    simulator), once every block has stopped running. *)

val clock : ctx -> float
(** Wall-clock seconds since the run started. *)

val send :
  ctx -> ?rendezvous:bool -> dest:int -> tag:int -> bytes:int -> 'a -> unit
(** [rendezvous] is accepted for API compatibility and ignored: it only
    shapes simulated time.  Sends to a rank whose program body already
    returned are dropped (the simulator leaves them queued unread). *)

val recv : ctx -> src:int -> tag:int -> 'a
