(** Runners that regenerate every table and figure of the paper's evaluation
    (section 5).  All times are simulated seconds on the modeled Parsytec MC;
    [quick] shrinks problem sizes for tests and smoke runs.

    Every cell of every table is an independent deterministic simulation, so
    the runners dispatch cells through {!Pool}: [jobs] (default 1) caps the
    number of domains used.  Whatever [jobs] is, results are bit-identical —
    only wall-clock time changes. *)

(** {1 Table 1 — shortest paths} *)

type sp_row = {
  sqrtp : int;  (** network is sqrtp x sqrtp *)
  sp_n : int;  (** node count after rounding up to a multiple of sqrtp *)
  sp_skil : float;
  sp_dpfl : float option;  (** measured only at sqrtp in {2,4,6,8} *)
  sp_parix_old : float option;
}

val table1 : ?quick:bool -> ?jobs:int -> unit -> sp_row list

val paper_table1 : (int * float option * float * float option) list
(** [(sqrtp, dpfl, skil, old_c)] as published. *)

(** {1 Table 2 / Figure 1 — Gaussian elimination} *)

type gauss_cell = {
  g_n : int;
  g_skil : float;
  g_dpfl : float option;
  g_parix : float;
}

type gauss_row = { grid : int * int; cells : gauss_cell list }

val table2 : ?quick:bool -> ?jobs:int -> unit -> gauss_row list

val traced_gauss_cell :
  ?quick:bool -> unit -> int * (int * int) * unit Machine.result
(** [(n, grid, result)] of one representative Table-2 Gauss cell re-run with
    structured tracing enabled — the cell behind the [--trace-out] /
    [--profile] flags of [bench/main.exe].  Tracing never
    changes simulated clocks, so [result.time] matches the untraced table
    cell exactly. *)

val paper_table2 : ((int * int) * (int * float * float option * float) list) list
(** [(grid, [(n, skil, dpfl_over_skil, skil_over_c)])] as published. *)

val figure1 : gauss_row list -> Series.t list * Series.t list
(** Left plot (speedups Skil vs DPFL) and right plot (slow-downs Skil vs C),
    one series per matrix size, x = processor count — derived from the
    Table 2 runs exactly as in the paper. *)

(** {1 Section 5 prose claims} *)

type claim51_row = { m_n : int; m_skil : float; m_parix : float }

val claim51 : ?quick:bool -> ?jobs:int -> unit -> claim51_row list
(** Equally-optimized comparison: classical matrix multiplication, Skil's
    [array_gen_mult] vs hand-written Cannon in C ("around 20% slower"). *)

type claim52_row = {
  c2_grid : int * int;
  c2_n : int;
  c2_partial : float;
  c2_full : float;
}

val claim52 : ?quick:bool -> ?jobs:int -> unit -> claim52_row list
(** Complete Gauss (pivot search + exchange) vs the Table 2 variant
    ("about twice as long"). *)

(** {1 Strong scaling (ours)} *)

type scaling_row = {
  sc_procs : int;
  sc_time : float;
  sc_speedup : float;  (** vs the single-processor run *)
  sc_efficiency : float;
}

val scaling : ?quick:bool -> ?jobs:int -> unit -> scaling_row list
(** Fixed-size shortest paths across growing square tori — the classic
    strong-scaling view the paper's tables imply but never plot. *)

(** {1 Fault injection & degradation (ours)} *)

type degradation_row = {
  dg_app : string;  (** "gauss 2x2" / "shpaths 2x2" *)
  dg_drop : float;  (** injected per-copy message-loss probability *)
  dg_time : float;  (** simulated makespan under the reliable transport *)
  dg_overhead : float;  (** [dg_time / fault-free time - 1] *)
  dg_dropped : int;  (** message copies lost by the injected network *)
  dg_retried : int;  (** retransmissions charged by the reliable transport *)
}

val degradation : ?quick:bool -> ?jobs:int -> unit -> degradation_row list
(** Graceful degradation under message loss: the corpus workloads (Gauss on
    a mesh, shortest paths on a torus) run under the {!Machine.run}
    [Reliable] transport at drop rates 0 / 0.05 / 0.1 / 0.2.  The 0-rate
    cell is the plain fault-free run (no plan installed), so the overhead
    column reads straight off it.  Values returned by every cell are the
    fault-free values — only the simulated clock degrades. *)

(** {1 Ablations of the design choices} *)

type ablation = {
  ab_name : string;
  ab_baseline : string;
  ab_time_baseline : float;
  ab_variant : string;
  ab_time_variant : float;
}

val ablations : ?quick:bool -> ?jobs:int -> unit -> ablation list

(** {1 Collective algorithm crossovers (ours)} *)

type coll_cell = {
  cc_kind : string;  (** "bcast" / "allreduce" / "allgather" / "scan" / "barrier" *)
  cc_topo : string;  (** "mesh4x4" / "mesh8x8" / "torus4x4" *)
  cc_p : int;
  cc_bytes : int;
  cc_algs : (string * float) list;  (** makespan under each forced algorithm *)
  cc_auto : float;  (** makespan under [Auto] selection *)
  cc_chosen : string;  (** the algorithm [Auto] picked *)
}

type coll_app_row = {
  ca_app : string;
  ca_legacy : float;  (** makespan under the seed's binomial trees *)
  ca_auto : float;  (** makespan under [Auto] selection *)
}

val collectives_crossover :
  ?jobs:int -> unit -> coll_cell list * coll_app_row list
(** Map the collective-algorithm cost surfaces: one collective per run,
    each (kind, topology, bytes) grid point simulated once per candidate
    algorithm plus once under [Auto] — the data behind the selection
    layer's crossovers (e.g. tree -> pipelined broadcast as payloads grow).
    The second list compares two full applications end-to-end, legacy
    trees vs [Auto].  Cells are deterministic simulated makespans and do
    not shrink under any quick/quota setting. *)

(** {1 Shared helpers} *)

val time_of :
  ?collectives:Coll_alg.mode ->
  Cost_model.profile ->
  Topology.t ->
  (Machine.ctx -> 'a) ->
  float
(** Makespan of one SPMD run under a language profile.  [collectives]
    (default [Legacy]) is handed to {!Machine.run}. *)
