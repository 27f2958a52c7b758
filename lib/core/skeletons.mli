(** The paper's data-parallel skeletons on distributed arrays (section 3).

    Every function here is a {e collective}: all processors of the machine
    must call it at the same program point with the same arguments (SPMD
    discipline).  [ctx] is the calling processor's machine context.

    Cost accounting: per-element work executed through a functional argument
    is charged at the [Mapped] rate of the run's language profile, tight
    inner loops ([gen_mult]) at the [Kernel] rate, and every skeleton call
    pays the profile's fixed invocation overhead.  The [?cost] parameters
    give the C-level seconds of one element visit (see {!Calibration} in
    [skil_machine]); skeleton implementations add their own communication. *)

type ctx = Machine.ctx

(** {1 Creation and destruction} *)

val create :
  ctx ->
  ?elem_bytes:int ->
  ?scheme:Distribution.scheme ->
  ?cost:float ->
  ?checkpoint:bool ->
  gsize:Index.size ->
  distr:Darray.distr ->
  (Index.t -> 'a) ->
  'a Darray.t
(** [array_create].  The block sizes and lower bounds are derived from the
    machine topology and [distr], corresponding to the paper's "default"
    values (0 block sizes, -1 lower bounds): [Torus2d] distributes blocks
    over the processor grid, [Default] and [Ring] distribute rows.
    [?scheme] selects the future-work cyclic layouts (Default/Ring only).
    Processor 0 applies the initialisation function to every element, and
    is charged for what it charges; every processor pays the [Mapped]
    charge for its own partition.

    [?checkpoint] (default: {!Machine.checkpoint_default}, i.e. the fault
    plan's policy, [false] without one) makes the mutating skeletons
    ([map]/[map_into], [gen_mult]) snapshot this array's partitions before
    their local phases — and [fold] re-execute its pure local reduction —
    so a scheduled fail-stop crash restores the snapshot, charges the
    reboot penalty, and re-executes the lost work instead of corrupting
    the run ({!Machine.protect}). *)

val destroy : ctx -> 'a Darray.t -> unit
(** [array_destroy].  Collective; the array is unusable afterwards. *)

(** {1 Element access (local only)} *)

val part_bounds : ctx -> 'a Darray.t -> Index.bounds
(** [array_part_bounds] for the calling processor's partition. *)

val get_elem : ctx -> 'a Darray.t -> Index.t -> 'a
(** [array_get_elem].
    @raise Darray.Local_access_violation on non-local indices. *)

val put_elem : ctx -> 'a Darray.t -> Index.t -> 'a -> unit
(** [array_put_elem].
    @raise Darray.Local_access_violation on non-local indices. *)

(** {1 Skeletons} *)

val map :
  ctx -> ?cost:float -> ('a -> Index.t -> 'a) -> 'a Darray.t -> 'a Darray.t -> unit
(** [array_map map_f from to].  [from] and [to] may be the same array, in
    which case the replacement is done in situ (paper semantics).  The two
    arrays must have the same layout.  The index passed to [map_f] is
    transient; copy it if kept.

    Purity contract: the runtime applies [map_f] to each local element
    exactly once, in partition-iteration order, but nothing here checks
    that [map_f] is observation-free.  A [map_f] that mutates captured
    state, performs I/O, or reads [from]/[to] through [get_elem] is legal
    at this layer — each processor sees a deterministic order — but it
    pins the call: {!Optimize} may compose, reorder or eliminate adjacent
    maps only when its effect analysis proves every argument function
    pure, so impure or array-reading kernels must (and do) disable
    fusion. *)

val map_into :
  ctx -> ?cost:float -> ('a -> Index.t -> 'b) -> 'a Darray.t -> 'b Darray.t -> unit
(** [map] between arrays of different element types (necessarily distinct
    arrays).  The purity contract of {!map} applies: the kernel runs once
    per local element, and only provably pure kernels are fusable. *)

val fold :
  ctx ->
  ?cost:float ->
  ?acc_bytes:int ->
  ?acc_bytes_of:('b -> int) ->
  conv:('a -> Index.t -> 'b) ->
  ('b -> 'b -> 'b) ->
  'a Darray.t ->
  'b
(** [array_fold conv_f fold_f a]: convert every element, fold each partition
    locally, combine partition results along a virtual tree topology and
    broadcast the outcome back, so every processor returns the result.
    [fold_f] should be associative and commutative; the order of combination
    is unspecified otherwise.

    [acc_bytes] is the wire size of one ['b], charged for every reduction
    message.  The default is the array's element size ([Darray.elem_bytes]),
    which is only right when [conv_f] preserves the element's wire size —
    when it does not (e.g. folding a float array into a (value, row, col)
    pivot record), pass [acc_bytes] explicitly or the collective is
    mis-charged.  [acc_bytes_of] measures the processor's local partial
    result instead, for callers that only know the accumulator's size at
    run time (the Skil interpreter's dynamically typed values); it takes
    precedence over [acc_bytes] whenever the local partition is non-empty.
    @raise Invalid_argument on empty arrays. *)

val copy : ctx -> 'a Darray.t -> 'a Darray.t -> unit
(** [array_copy from to]: partition-wise contiguous copy (cheap — no
    per-element function calls).  Layouts must match. *)

val copy_with : ctx -> ('a -> 'b) -> 'a Darray.t -> 'b Darray.t -> unit
(** [copy_with ctx conv from to]: {!copy} between arrays whose host
    representations differ, converting each element with [conv].  Charges
    exactly what {!copy} charges — the representation is invisible to the
    simulated machine. *)

val broadcast_part : ctx -> ?copy:('a -> 'a) -> 'a Darray.t -> Index.t -> unit
(** [array_broadcast_part a ix]: the partition containing [ix] overwrites
    every other partition (tree broadcast).  All partitions must have the
    same shape.  Elements travel by reference; [copy] (default: none)
    copies each one into the root's snapshot and again where it lands, so
    no two partitions share a mutable element. *)

val permute_rows :
  ctx -> ?copy:('a -> 'a) -> 'a Darray.t -> (int -> int) -> 'a Darray.t -> unit
(** [array_permute_rows from perm_f to] for 2-D arrays: row [r] of [from]
    becomes row [perm_f r] of [to].  [from] and [to] must be distinct with
    identical layouts.  [copy] (default: none) copies each element into
    the row segment it travels in, which only its target reads.
    @raise Invalid_argument (the paper's run-time error) if [perm_f] is not
    a bijection on the row numbers. *)

type 'a kernel = 'a array -> 'a array -> 'a array -> int -> unit
(** A block kernel for [gen_mult]: [k ablock bblock cblock bs] accumulates
    the product of two row-major [bs] x [bs] blocks into [cblock], exactly
    as the closure loop does for its [add]/[mul] pair. *)

val gen_mult :
  ctx ->
  ?cost:float ->
  ?kernel:'a kernel ->
  add:('a -> 'a -> 'a) ->
  mul:('a -> 'a -> 'a) ->
  'a Darray.t ->
  'a Darray.t ->
  'a Darray.t ->
  unit
(** [array_gen_mult a b ~add ~mul c]: Gentleman's distributed matrix
    multiplication generalized over [add]/[mul]; partial products are
    accumulated into the existing contents of [c] (the paper's shortest-paths
    program relies on this by pre-initializing [c] with the neutral
    element).  Communication/computation overlap: partition rotations are
    posted before each local block multiplication.  A [kernel], when
    given, replaces the closure loop over [add]/[mul] in every block
    multiplication and must compute the same values.

    Requirements (checked): [a], [b], [c] pairwise distinct, square n x n
    arrays block-distributed over a square processor grid whose side divides
    n. *)

(** {1 Convenience} *)

val to_flat : ctx -> 'a Darray.t -> 'a array
(** Gather the whole array on every processor (all-gather; charged).  Every
    processor gets its own private copy — mutating one rank's result never
    affects another's.  Mostly for result output in examples. *)
