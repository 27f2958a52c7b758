type op_class = Kernel | Mapped | Scalar

type profile = {
  profile_name : string;
  kernel_factor : float;
  mapped_factor : float;
  scalar_factor : float;
  skeleton_call : float;
  comm_factor : float;
  sync_comm : bool;
  embedding_optimized : bool;
}

type machine_params = {
  msg_latency : float;
  per_hop : float;
  per_byte : float;
  send_overhead : float;
  recv_overhead : float;
}

type t = { params : machine_params; profile : profile }

(* Effective cost of one Parix virtual-link message on 20 Mbit/s T800
   links: several hundred microseconds of software setup, and well under
   raw link bandwidth once protocol and store-and-forward overheads are
   paid. *)
let transputer =
  {
    msg_latency = 1.1e-3;
    per_hop = 30e-6;
    per_byte = 2.5e-6;
    send_overhead = 40e-6;
    recv_overhead = 40e-6;
  }

(* Compiled by instantiation: kernels are within ~20% of C (section 5.1);
   map/fold bodies still go through one more call level and index plumbing,
   which is where the factor ~2.5 of Table 2 at large n comes from. *)
let skil =
  {
    profile_name = "Skil";
    kernel_factor = 1.2;
    mapped_factor = 2.5;
    scalar_factor = 1.1;
    skeleton_call = 0.20e-3;
    comm_factor = 1.0;
    sync_comm = false;
    embedding_optimized = true;
  }

let parix_c =
  {
    profile_name = "Parix-C";
    kernel_factor = 1.0;
    mapped_factor = 1.0;
    scalar_factor = 1.0;
    skeleton_call = 0.0;
    comm_factor = 1.0;
    sync_comm = false;
    embedding_optimized = true;
  }

(* The "older version" of section 5.1: synchronous communication, no virtual
   topologies, and a less optimized code base (the compute-proportional part
   of its disadvantage in Table 1 scales as 1/p, hence the kernel factor). *)
let parix_c_old =
  {
    parix_c with
    profile_name = "Parix-C (old)";
    kernel_factor = 1.30;
    comm_factor = 1.4; (* per-message staging copies, no DMA overlap *)
    sync_comm = true;
    embedding_optimized = false;
  }

(* Closure-based graph reduction with boxed values: the paper measures a
   factor around 6.5 relative to Skil on compute-bound configurations. *)
let dpfl =
  {
    profile_name = "DPFL";
    kernel_factor = 7.8;
    mapped_factor = 16.3;
    scalar_factor = 7.0;
    skeleton_call = 0.50e-3;
    comm_factor = 2.4; (* boxed data is packed/unpacked around every send *)
    sync_comm = false;
    embedding_optimized = true;
  }

let make ?(params = transputer) profile = { params; profile }
let default = make skil

let factor p = function
  | Kernel -> p.kernel_factor
  | Mapped -> p.mapped_factor
  | Scalar -> p.scalar_factor
