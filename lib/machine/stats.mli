(** Per-processor and aggregate counters collected during a simulated run. *)

type proc = {
  mutable compute_time : float;  (** seconds of charged sequential work *)
  mutable comm_wait : float;  (** idle time spent waiting for messages *)
  mutable overhead_time : float;  (** send/recv/skeleton software overheads *)
  mutable msgs_sent : int;
  mutable bytes_sent : int;
  mutable hop_bytes : int;  (** sum over messages of [bytes * hops] *)
  mutable skeleton_calls : int;
  mutable msgs_dropped : int;
      (** messages lost by the injected network (charged to the sender) *)
  mutable msgs_retried : int;
      (** retransmission attempts made by the [Reliable] transport *)
  mutable acks_sent : int;
      (** acknowledgements charged at the receiver under [Reliable] *)
  mutable recoveries : int;
      (** checkpoint-restore re-executions after fail-stop crashes *)
  mutable stall_time : float;
      (** seconds lost to injected transient processor stalls *)
  mutable coll_calls : int;
      (** collective operations issued through the algorithm-selecting
          (non-Legacy) code paths *)
  mutable coll_bytes : int;  (** their payload bytes (pre-wire sizes) *)
  mutable coll_algs : (string * int) list;
      (** call count per ["kind[algorithm]"] label *)
}
(** The five fault counters are all zero in fault-free runs, and
    {!pp_summary} omits them when zero — fault-free output is byte-identical
    to builds that predate fault injection. *)

type t = {
  procs : proc array;
  mutable makespan : float;  (** max finishing clock over processors *)
}

val create : int -> t
val proc : t -> int -> proc
val total_msgs : t -> int
val total_bytes : t -> int
val total_dropped : t -> int
val total_retried : t -> int
val total_acks : t -> int
val total_recoveries : t -> int
val total_stall : t -> float
val total_coll_calls : t -> int
val total_coll_bytes : t -> int

val coll_alg_totals : t -> (string * int) list
(** Aggregate call count per ["kind[algorithm]"] label, sorted. *)

val count_collective : proc -> name:string -> bytes:int -> unit
val pp_summary : Format.formatter -> t -> unit
