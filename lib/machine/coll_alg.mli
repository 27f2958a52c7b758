(** Cost-model-driven selection of collective algorithms.

    A pure predictor maps (topology, p, bytes) to an estimated completion
    time per candidate algorithm, using the same latency / per-hop /
    per-byte coefficients the simulator charges; {!select} is the argmin.
    Because it is deterministic in inputs every processor shares, all ranks
    of an SPMD run pick the same algorithm without communicating. *)

type algorithm =
  | Tree  (** binomial tree — the seed's pattern *)
  | Pipeline  (** segmented ring-pipelined broadcast *)
  | Vandegeijn  (** scatter + ring allgather broadcast *)
  | Recdouble  (** recursive doubling (Bruck for allgather) *)
  | Ring  (** chunked ring pipeline *)
  | Dissemination  (** dissemination barrier *)
  | Linear  (** the seed's linear scan *)

type kind =
  | Bcast
  | Allreduce
  | Allgather
  | Barrier
  | Scan

type mode =
  | Legacy
      (** the seed's binomial-tree code paths, bit-identical output — the
          default everywhere, selected as ["tree"] on the CLI *)
  | Auto  (** pick per call from the cost model *)
  | Force of algorithm  (** force where applicable, else fall back to Auto *)

val alg_name : algorithm -> string
val kind_name : kind -> string

val mode_of_string : string -> (mode, string) result
val mode_to_string : mode -> string
(** The inverse of {!mode_of_string} on every name in {!mode_names}. *)

val mode_names : string list

type net = {
  p : int;
  alpha : float;  (** send_overhead + recv_overhead + msg_latency *)
  ovh2 : float;  (** send_overhead + recv_overhead *)
  recv_ovh : float;
  per_hop : float;
  per_byte : float;
  hop_next : float;  (** mean hops rank -> rank+1 (ring-edge average) *)
  hop_pow2 : int array;  (** max hops rank -> rank + 2^k, k < ceil(log2 p) *)
}

val net_of :
  Topology.t ->
  latency:float ->
  per_hop:float ->
  per_byte:float ->
  send_ovh:float ->
  recv_ovh:float ->
  net

val pipeline_plan : net -> bytes:int -> int * int
(** [(segments, segment_bytes)] for the pipelined broadcast; shared by the
    predictor and the implementation. *)

val select : net -> kind -> bytes:int -> algorithm

val force : net -> kind -> bytes:int -> algorithm -> algorithm
(** The forced algorithm when it is a candidate for [kind], else
    [select]'s choice. *)
