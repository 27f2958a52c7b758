(** Deterministic, seeded fault injection for the simulated machine
    (the [skil_faults] layer).

    A {!plan} describes how the network and the processors misbehave:
    per-message drop / duplication / corruption-flagging probabilities,
    per-link latency spikes, transient processor stalls and fail-stop
    crashes at scheduled {e simulated} times.  Every probabilistic decision
    is drawn from a splittable counter-based PRNG keyed by
    [(seed, src, dst, tag, seq, attempt)], so a run under a given
    [(plan, seed)] is exactly replayable — there is no hidden generator
    state, and two machines consulting the plan in different orders still
    draw identical values for the same message.

    With no plan installed the machine's behaviour (and its wall-clock hot
    path) is bit-identical to a fault-free build; see {!Machine.run}. *)

type link_faults = {
  drop : float;  (** probability a message copy is lost in transit *)
  dup : float;  (** probability a delivered message is duplicated *)
  corrupt : float;
      (** probability a copy arrives corruption-flagged (the payload is
          preserved — the simulator only flags the message; the [Reliable]
          transport treats a flagged copy as lost and retransmits) *)
  delay : float;  (** probability of a latency spike on the link *)
  delay_factor : float;
      (** multiplier applied to the per-message latency when spiked *)
}

type stall = { stall_at : float; stall_for : float }
(** The processor freezes for [stall_for] simulated seconds at the first
    clock-advancing action at or after [stall_at]. *)

type plan = {
  seed : int;
  link : link_faults;
  stalls : (int * stall) list;  (** (processor, stall), any order *)
  crashes : (int * float) list;
      (** fail-stop crashes: (processor, simulated time).  A crash takes
          effect at the end of the first checkpoint-protected region that
          finishes at or after the scheduled time: the region's work is
          discarded, the partition snapshot restored, the reboot penalty
          charged and the region re-executed ({!Machine.protect}).  Crashes
          scheduled on processors that never enter a protected region are
          ignored. *)
  reboot : float;  (** seconds to reboot + restore after a crash *)
  checkpoint : bool;
      (** default checkpoint policy handed to {!Skeletons.create} when the
          caller does not pass one; {!parse} defaults it to [true] exactly
          when the plan schedules crashes *)
}

type decision = {
  d_drop : bool;
  d_dup : bool;
  d_corrupt : bool;
  d_delay_factor : float;  (** 1.0 when the link does not spike *)
}

val no_link_faults : link_faults
val clean : decision

val none : seed:int -> plan
(** A plan that injects nothing (useful as a base for [{ ... with ... }]). *)

val decision :
  plan -> src:int -> dst:int -> tag:int -> seq:int -> attempt:int -> decision
(** The fate of transmission attempt [attempt] of message [seq] on the
    [(src, dst)] link.  Pure: same key, same answer. *)

val uniform : seed:int -> key:int array -> float
(** The underlying splittable draw in [0, 1) — exposed for tests. *)

val parse : string -> (plan, string) result
(** Parse a [--faults] spec: comma-separated [key=value] fields.

    {v
    drop=0.1          probability of message loss
    dup=0.05          probability of duplication
    corrupt=0.02      probability of corruption-flagging
    delay=0.1x8       latency spike: probability 0.1, factor 8
    stall=2@0.01+0.005   processor 2 stalls at t=0.01 for 5 ms (repeatable)
    crash=1@0.02      processor 1 fail-stops at t=0.02 (repeatable)
    reboot=0.004      crash reboot penalty in seconds
    ckpt=on|off       override the default checkpoint policy
    seed=N            key the PRNG with N (default 1)
    v} *)

val describe : plan -> string
(** One-line human-readable summary of the plan. *)
