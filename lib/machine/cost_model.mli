(** Timing model of the simulated machine.

    Sequential work is charged as [ops * base_cost * factor], where the
    factor depends on the {e language profile} and on how the work is
    expressed ({!op_class}).  Communication costs follow a LogP-style model
    parameterized by {!machine_params}.  The language profiles encode the
    paper's three systems (Skil, hand-written Parix-C in its old and new
    incarnations, and the data-parallel functional language DPFL); see
    DESIGN.md section 6 for the rationale behind each factor. *)

type op_class =
  | Kernel
      (** tight instantiated loops, e.g. the inner loop of
          [array_gen_mult] after Skil's translation by instantiation *)
  | Mapped
      (** per-element work performed through a skeleton's functional
          argument (map/fold bodies) *)
  | Scalar  (** plain sequential statements outside any skeleton *)

type profile = {
  profile_name : string;
  kernel_factor : float;
  mapped_factor : float;
  scalar_factor : float;
  skeleton_call : float;  (** seconds of overhead per skeleton invocation *)
  comm_factor : float;
      (** multiplier on all per-message costs (latency, per-hop, per-byte,
          software overheads): closure-based runtimes also pay for packing
          boxed data into messages *)
  sync_comm : bool;
      (** if true, a sender's clock advances to the delivery time of every
          message (no communication/computation overlap) *)
  embedding_optimized : bool;
      (** whether Parix virtual topologies are used (false for the paper's
          "older version" of the C shortest-paths program) *)
}

type machine_params = {
  msg_latency : float;  (** fixed software + first-link cost per message *)
  per_hop : float;  (** additional cost per mesh link traversed *)
  per_byte : float;  (** transfer cost per payload byte *)
  send_overhead : float;  (** sender-side software overhead per message *)
  recv_overhead : float;  (** receiver-side software overhead per message *)
}

type t = { params : machine_params; profile : profile }

val transputer : machine_params
(** Parameters approximating the Parsytec MC's T800 links under Parix. *)

val skil : profile

val parix_c : profile
(** The "equally optimized" hand-written C. *)

val parix_c_old : profile
(** The older C shortest-paths version of Table 1: synchronous unoverlapped
    communication, no virtual topologies, less optimized kernels. *)

val dpfl : profile
(** Model of DPFL, the data-parallel functional language the paper compares
    against (Kuchen/Plasmeijer/Stoltze, PARLE '94).

    DPFL provided the same distributed-array skeletons, so its communication
    structure is identical to Skil's; what differed is the sequential
    execution model — closure-based evaluation with boxed values instead of
    Skil's translation by instantiation.  The paper measures the resulting
    factor at ~6.5x on compute-bound configurations.  We therefore model
    DPFL as {e the same skeleton programs} run under this profile, whose
    per-element factors carry the closure/boxing overhead; this reproduces
    both the plateau near 6.5 and its erosion when communication (identical
    on both sides) dominates. *)

val default : t
(** [transputer] parameters with the [skil] profile. *)

val make : ?params:machine_params -> profile -> t

val factor : profile -> op_class -> float
