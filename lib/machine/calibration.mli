(** Base per-element operation costs (seconds, C-compiled tight loop on a
    20 MHz T800).  These are the only absolute-scale constants of the
    reproduction; they are global per kernel family and are never tuned per
    experiment cell.  EXPERIMENTS.md records how the resulting absolute times
    compare with the paper's. *)

val minplus_op : float
(** One [c = min (c, a + b)] step with 2-D index arithmetic, unsigned ints
    (shortest paths / [array_gen_mult] inner loop). *)

val float_madd_op : float
(** One [c = c + a * b] step, 32-bit floats (classical matrix
    multiplication). *)

val gauss_elem_op : float
(** One visit of the Gaussian-elimination [eliminate] body: the branch on the
    index plus, where applicable, [v - a_ik * piv_j]. *)

val fold_conv_op : float
(** One conversion + comparison step of [array_fold] (e.g. building an
    [elemrec] and taking a maximum). *)

val copy_per_byte : float
(** Contiguous memory copy, per byte ([array_copy], partition staging). *)

val elem_bytes : int
(** Size of a scalar array element (32-bit ints and floats in 1996). *)

val scalar_node_op : float
(** Cost of evaluating one expression node of sequential Skil code in the
    language interpreter (charged at the profile's [Scalar] rate; roughly a
    couple of T800 instructions). *)
