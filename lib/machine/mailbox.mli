(** A rank's incoming messages: the one transport of both engines.

    Every receive names its source and tag, and each (source, tag) stream
    is FIFO, so a mailbox is one small tag-bucketed queue per source rank
    that has sent to it, plus the one stream the rank's fiber is parked
    on, if any.
    {!Machine} gives each rank of either engine ({!Machine.run},
    {!Machine.run_native}) one mailbox through {!Groups.mailbox}; a
    message from the same rank group is {!add}ed directly, one from
    another group through {!Groups.post}.  Only the domain driving the
    rank's group touches its mailbox, so nothing here is synchronised.
    Both engines queue the same message record; the type is a parameter
    because {!Machine}, which defines it, depends on this module. *)

type 'm t

val create : Scheduler.t -> fiber:int -> nranks:int -> 'm t
(** An empty mailbox for the fiber [fiber] of the scheduler, for source
    ranks [0 .. nranks - 1].  A source's queues are made at its first
    message, so a mailbox starts at one word per source. *)

val add : 'm t -> src:int -> tag:int -> 'm -> unit
(** Queue a message on stream (src, tag), and wake the fiber if it is
    parked on that stream. *)

val take : 'm t -> src:int -> tag:int -> 'm option
(** The oldest message on stream (src, tag), removed; [None] when there is
    none. *)

val park : 'm t -> src:int -> tag:int -> unit
(** Suspend the calling fiber, which must be the mailbox's, until a
    message is {!add}ed on stream (src, tag); {!take} then returns it. *)

val waiting : 'm t -> (int * int) option
(** The (src, tag) stream the fiber is parked on, for stall reports. *)
