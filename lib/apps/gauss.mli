(** Gaussian elimination on the extended matrix [A|b] (paper section 4.2).

    Two variants, as in the paper's evaluation:
    - [No_pivot_search]: the "first version ... without the search and the
      exchange of the pivot row" benchmarked in Table 2;
    - [Partial]: the complete program with [array_fold] pivot search and
      [array_permute_rows] row exchange (about twice as slow, Section 5.2). *)

type pivoting = No_pivot_search | Partial

exception Singular
(** The paper's ["Matrix is singular"] run-time error. *)

type elemrec = { value : float; row : int; col : int }
(** The paper's [elemrec] struct used by the pivot-search fold. *)

val run :
  ?pivoting:pivoting ->
  Machine.ctx ->
  n:int ->
  matrix:(Index.t -> float) ->
  float Darray.t
(** Solve the [n x (n+1)] system whose entries come from [matrix] (column
    [n] is the right-hand side).  The result array's column [n] holds the
    solution vector x.  Row-block distribution over all processors; requires
    [n >= nprocs]. *)

val solve : ?pivoting:pivoting -> Machine.ctx -> n:int ->
  matrix:(Index.t -> float) -> float array
(** {!run} and extract the solution vector (gathered on every processor). *)

val reference_solve : n:int -> matrix:(Index.t -> float) -> float array
(** Sequential Gaussian elimination with partial pivoting (host-level, for
    tests).  @raise Singular on singular systems. *)

val residual : n:int -> matrix:(Index.t -> float) -> float array -> float
(** Max-norm of [A x - b]; a direct quality measure for tests. *)
