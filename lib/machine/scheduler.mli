(** Cooperative fiber scheduler built on OCaml 5 effect handlers.

    Each rank runs as one fiber.  Fibers run uninterrupted until they
    perform {!block}, which suspends them until another fiber (or the
    group driver) calls {!wake}.  Execution is deterministic: fibers are
    resumed in FIFO order of becoming runnable.  {!Groups} owns one
    scheduler per rank group and decides when each is run. *)

type t

val create : unit -> t

val spawn : t -> (unit -> unit) -> int
(** Register a fiber; it becomes runnable immediately.  Returns its id
    (consecutive from 0). *)

val block : t -> unit
(** Suspend the calling fiber.  Only valid from inside a fiber. *)

val wake : t -> int -> unit
(** Make a blocked fiber runnable.  No-op if the fiber is not blocked (it
    will observe whatever condition it checks before blocking again). *)

val run_until_idle : t -> unit
(** Run fibers until the runnable queue is empty, then return — blocked
    fibers are left suspended, not reported as a deadlock (a group goes
    idle while waiting on other groups' messages and is re-run after a
    wake; {!Groups.run} detects global stalls).  Exceptions escaping a
    fiber propagate.  Suspended continuations may be resumed from a
    different domain than the one that captured them (one group, one
    domain at a time). *)

val all_finished : t -> bool
(** All spawned fibers have run to completion. *)

val finished : t -> int -> bool
(** The fiber has run to completion; {!Groups.run} lists every rank whose
    fiber has not when it reports a stall. *)
