(** Multicore work pool: the single owner of worker domains.

    Every experiment in the reproduction pipeline is a set of *independent*
    deterministic simulations ({!Machine.run} shares no mutable state between
    calls), so they can be farmed out to OCaml 5 domains freely: the results
    are bit-identical to a sequential run, only the wall clock changes.

    The pool is a plain [Domain] + [Mutex]/[Condition] crew serving pollable
    {e work sources} — no external dependencies.  Worker domains persist and
    only grow, so the spawn cost is paid once per process.  Besides the
    {!map}/{!run} batches of the harness, the group driver {!Groups.run}
    registers a source whose items are ready rank groups, for both engines
    when a run has more than one group: the shards of a PDES-sharded
    {!Machine.run} and the blocks of a native run
    ({!Machine.run_native}).  Ranks are blocked into [g] contiguous groups
    by one rule — group sizes are [base = n / g] with the first [n mod g]
    groups one rank larger, so rank [i] always lives next to its
    neighbours — and each ready group is one short-lived work item.  Groups
    borrow crew workers instead of spawning domains of their own, and the
    crew never exceeds [recommended_domain_count () - 1] workers, so
    [--jobs] × [--sim-domains] oversubscription is structurally impossible
    (the product is clamped to the crew, and excess work just queues).  The logical group count is always honoured and the
    calling domain always drives, so runs complete even on a single-core
    host. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the whole machine. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element of [xs] on up to [jobs]
    domains (the calling domain participates, so [jobs = 1] runs plain
    sequential code on the current domain and spawns nothing).  Results are
    returned in submission order regardless of completion order.

    If one or more applications raise, the exception of the *lowest-indexed*
    failing element is re-raised (with its backtrace) after the whole batch
    has drained — the same exception a sequential [List.map] would surface
    first, so behaviour is independent of [jobs]. *)

val run : ?jobs:int -> (unit -> 'a) list -> 'a list
(** [run ~jobs thunks] = [map ~jobs (fun f -> f ()) thunks]. *)

val shutdown : unit -> unit
(** Join the worker domains (idempotent).  Subsequent calls to {!map} or
    {!ensure_workers} respawn them on demand; mainly for tests and clean
    process exit. *)

(** {1 Work sources} — how rank groups (and [map] batches) borrow workers *)

type source

val register_source : poll:(unit -> (unit -> unit) option) -> source
(** Add a work source.  [poll] is called from worker domains (and from
    domains waiting inside {!map}) without any pool lock held; it must be
    thread-safe and return [Some thunk] to hand out one unit of work, [None]
    when it currently has nothing.  Sources are polled newest-first. *)

val unregister_source : source -> unit

val kick : unit -> unit
(** Wake sleeping workers so they re-poll the sources; call after a source
    that previously returned [None] gains work. *)

val ensure_workers : int -> int
(** Grow the crew to at least [n] worker domains, clamped to
    [recommended_domain_count () - 1].  Returns the crew size actually
    available — 0 means the calling domain is alone and must drive its
    source itself. *)

val worker_count : unit -> int
(** Current crew size. *)

val drive : stop:(unit -> bool) -> unit
(** Serve the registered sources from the calling thread until [stop]
    returns true: poll newest-first, run claimed thunks, park on the crew's
    condition variable when idle.  The single-core fallback for long-lived
    services — when {!ensure_workers} returns 0, a plain thread calling
    [drive] plays the crew's part (concurrently under the runtime lock, not
    in parallel, which is all a one-core host can offer anyway).  After
    making [stop] return true, call {!kick} so a parked driver re-checks
    it. *)
