(** The paper's [pardata array<$t>]: a distributed array whose implementation
    is hidden behind partitions placed one per processor.

    This module is the pure data layer — partitions, layout arithmetic and
    ownership checks — with no notion of simulated time.  All operations that
    move data or cost time live in {!Skeletons}, mirroring the paper's rule
    that "non-local element accessing is ... possible, however only in a
    coordinated way by means of skeletons". *)

exception Local_access_violation of { rank : int; index : int array }
(** Raised when a processor touches an element outside its own partition
    (the paper specifies these accessors work on local elements only). *)

exception Use_after_destroy

type distr = Default | Ring | Torus2d
(** The [distr] argument of [array_create] — which virtual topology the
    array is mapped onto. *)

type 'a part = { region : Distribution.region; mutable data : 'a array }

type 'a t = private {
  id : int;
  dim : int;
  gsize : Index.size;
  distr : distr;
  dist : Distribution.t;
  parts : 'a part array;
  elem_bytes : int;
  mutable destroyed : bool;
  mutable checkpoint : bool;
      (** skeletons snapshot partitions of this array before their local
          phases so a fail-stop crash can restore and re-execute
          ({!Skeletons.create}'s checkpoint policy; default [false]) *)
}

val make :
  gsize:Index.size ->
  dist:Distribution.t ->
  distr:distr ->
  elem_bytes:int ->
  (Index.t -> 'a) ->
  'a t
(** Allocate all partitions and initialize every element from its global
    index.  Pure host-level allocation; {!Skeletons.create} wraps it in a
    collective and charges simulated time.

    The index array passed to the initializer is a scratch buffer reused
    between calls: copy it if you retain it beyond the call. *)

val set_checkpoint : 'a t -> bool -> unit
(** Set the checkpoint policy flag (the record is private, so the field
    cannot be mutated directly by clients). *)

val dim : 'a t -> int
val gsize : 'a t -> Index.size
val nprocs : 'a t -> int
val elem_bytes : 'a t -> int
val check_alive : 'a t -> unit
val mark_destroyed : 'a t -> unit

val part : 'a t -> rank:int -> 'a part
val local_count : 'a t -> rank:int -> int
val owner : 'a t -> Index.t -> int

val bounds : 'a t -> rank:int -> Index.bounds
(** Partition bounds ([array_part_bounds]).
    @raise Invalid_argument for cyclic layouts, whose partitions are not
    rectangles. *)

val get : 'a t -> rank:int -> Index.t -> 'a
(** Local read ([array_get_elem]).
    @raise Local_access_violation if [rank] does not own the index. *)

val get1 : 'a t -> rank:int -> int -> 'a
(** [get1 a ~rank i] is [get a ~rank [|i|]], without the index array. *)

val get2 : 'a t -> rank:int -> int -> int -> 'a
(** [get2 a ~rank i j] is [get a ~rank [|i; j|]], without the index array. *)

val set : 'a t -> rank:int -> Index.t -> 'a -> unit
(** Local write ([array_put_elem]).
    @raise Local_access_violation if [rank] does not own the index. *)

(** {1 Host-level helpers (tests, I/O, debugging — no locality check)} *)

val peek : 'a t -> Index.t -> 'a
val poke : 'a t -> Index.t -> 'a -> unit

val to_flat : 'a t -> 'a array
(** Row-major copy of the whole global array. *)

val flat_of_snapshots : 'a t -> 'a array array -> 'a array
(** [to_flat], but reading partition [r]'s elements from [snapshots.(r)]
    (same local storage order) instead of the live partition — for callers
    holding data captured at an earlier, known-consistent point. *)

val row : 'a t -> int -> 'a array
(** One global row of a 2-D array. *)
