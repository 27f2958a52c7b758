(** Multi-dimensional indices, sizes and partition bounds — the [Index],
    [Size] and [Bounds] types of the paper ("classical arrays with dim
    elements"). *)

type t = int array
(** A point in a [dim]-dimensional index space. *)

type size = int array
(** Extents per dimension. *)

type bounds = { lower : t; upper : t }
(** A rectangular region: [lower] inclusive, [upper] exclusive. *)

val volume : size -> int

val extent : bounds -> size
(** Per-dimension sizes of a bounds rectangle. *)

val contains : bounds -> t -> bool

val row_major : size -> t -> int
(** Row-major offset of an index inside a box of the given size. *)

val local_offset : bounds -> t -> int
(** Row-major offset of a global index within [bounds].
    @raise Invalid_argument if the index lies outside. *)

val iter : bounds -> (t -> unit) -> unit
(** Apply to every index of the region in row-major order.  The index array
    passed to the callback is reused between calls; copy it if kept. *)

val pp : Format.formatter -> t -> unit
val pp_bounds : Format.formatter -> bounds -> unit
