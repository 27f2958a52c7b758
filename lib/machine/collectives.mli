(** Collective operations built from point-to-point messages.

    Two code paths, dispatched on the machine's {!Coll_alg.mode}:

    - [Legacy] (the default): the seed's binomial-tree implementations, as
      in the paper's [array_fold] ("performed along the edges of a virtual
      tree topology ... broadcasted from the root along the tree edges to
      all other processors").  Runs are byte-identical to the historical
      binary.

    - [Auto] / [Force _]: a library of algorithms (pipelined broadcast,
      van de Geijn scatter+allgather, recursive doubling, chunked rings,
      Bruck allgather, dissemination barrier, binomial scan), one picked per call by {!Coll_alg.select} from the machine's
      topology, processor count and payload size.  Simulated time is
      charged by running the chosen message pattern with honest byte
      counts; values are combined out-of-band with one canonical
      bracketing, so every algorithm returns bit-identical values.

    This module is the only code that branches on the mode: the skeletons
    and the baselines call it and run whatever the mode picks.

    Every collective must be called by all processors of the machine with
    the same [tag] and compatible arguments.  [bytes] is the simulated wire
    size of one payload. *)

val bcast : Machine.ctx -> tag:int -> root:int -> bytes:int -> 'a -> 'a
(** Broadcast of [root]'s value; every processor returns it.  The value
    argument of non-root processors is ignored. *)

val allreduce :
  Machine.ctx -> tag:int -> bytes:int -> ('a -> 'a -> 'a) -> 'a -> 'a
(** Combine every processor's value; every processor returns the result.
    [f] should be associative and commutative (the paper makes the same
    demand of [array_fold]'s folding function). *)

val barrier : Machine.ctx -> tag:int -> unit
(** All processors synchronize. *)

val scan :
  Machine.ctx -> tag:int -> bytes:int -> ('a -> 'a -> 'a) -> 'a -> 'a
(** Inclusive prefix combine in rank order: processor [i] returns
    [f (... (f v0 v1) ...) vi] (bracketed as a left fold). *)

val allgather :
  ?total:int -> Machine.ctx -> tag:int -> bytes:int -> 'a -> 'a array
(** Every processor contributes one value of wire size [bytes] and returns
    a fresh array with [arr.(i)] from processor [i].  Under [Legacy] the
    values are gathered to processor 0, which broadcasts [total] bytes
    (default [nprocs * bytes]): the wire size of what the caller assembles
    from them. *)

val ring_shift :
  Machine.ctx -> tag:int -> bytes:int -> dest:int -> src:int -> 'a -> 'a
(** Simultaneous shift: send the value to [dest], return the one received
    from [src]; a shift from and to the calling processor returns the value
    and sends nothing.  Under [Legacy] a plain {!Machine.sendrecv}; the
    selecting modes count and trace it as the collective
    [ring_shift[pairwise]].  Used for Gentleman's partition rotations. *)
