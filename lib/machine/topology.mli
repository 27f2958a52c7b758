(** Hardware and virtual topologies of the simulated Parsytec-style machine.

    The hardware is a [width x height] 2-D mesh of processors with XY
    routing.  Processors are identified by ranks [0 .. nprocs-1].  A virtual
    (software) topology in the sense of Parix maps ranks onto mesh positions;
    with [optimized_embedding] the mapping folds a torus into the mesh so
    that every virtual neighbour is at most 2 hops away, mirroring Parix's
    optimized virtual topologies.  Without it (the paper's "old C" style)
    ranks are laid out row-major and wrap-around edges route across the whole
    mesh. *)

type virtual_kind =
  | Default  (** identity mapping onto the mesh *)
  | Torus2d  (** 2-D torus over the processor grid *)

type t

val max_procs : int
(** The most processors a topology may have: 1024. *)

val create :
  ?embedding_optimized:bool -> width:int -> height:int -> virtual_kind -> t
(** [create ~width ~height kind] builds a topology over a [width x height]
    mesh.  [embedding_optimized] defaults to [true].  Every constructor
    below goes through it.
    @raise Invalid_argument if [width <= 0] or [height <= 0], or if the
    grid has more than {!max_procs} processors. *)

val mesh : width:int -> height:int -> t
(** Mesh with the [Default] virtual topology. *)

val torus2d : ?embedding_optimized:bool -> width:int -> height:int -> unit -> t
(** 2-D torus over a [width x height] processor grid. *)

val nprocs : t -> int
val width : t -> int
val height : t -> int

val grid_coords : t -> int -> int * int
(** [grid_coords t rank] is the [(column, row)] position of [rank] in the
    logical processor grid (row-major numbering). *)

val rank_of_grid : t -> int * int -> int
(** Inverse of {!grid_coords}; coordinates taken modulo the grid. *)

val mesh_position : t -> int -> int * int
(** Physical mesh position of a rank under the embedding. *)

val hops : t -> int -> int -> int
(** [hops t a b] is the number of mesh links a message from [a] to [b]
    traverses under XY routing of the embedded positions.  [hops t a a = 0]. *)

val torus_neighbor : t -> int -> [ `North | `South | `East | `West ] -> int
(** Neighbour in the logical processor grid with wrap-around.  North/South
    move along rows (second coordinate), East/West along columns. *)

val square_side : t -> int option
(** [Some s] iff the processor grid is square with side [s] (needed by
    Gentleman's algorithm). *)

val digest : t -> int
(** Checksum of the precomputed position/hop-distance tables.  A topology
    value is immutable after {!create}, so it (and the {!Coll_alg.net}
    predictor tables derived from it) is shared read-only across the
    domains of a sharded [Machine.run]; the machine asserts the digest is
    unchanged after the run to pin the no-mutation-after-publication
    contract. *)
