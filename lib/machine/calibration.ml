(* Derivations (see DESIGN.md sections 5-6):
   - minplus_op: Table 1, sqrt p = 2 is compute-dominated; 234.29 s for
     ceil(log2 200) * 200^3 / 4 = 1.6e7 per-processor steps at Skil's kernel
     factor 1.2 gives ~12.2 us per C-level step.
   - gauss_elem_op: Table 2, p = 4x4, n = 640 is compute-dominated; 453.86 s
     for 640 * 40 * 641 = 1.64e7 per-processor map visits at Skil's mapped
     factor 2.5 gives ~11 us per C-level visit.
   Both are plausible for a 20 MHz T800 running compiler-generated code with
   2-D index arithmetic in the inner loop. *)

let minplus_op = 12.2e-6
let float_madd_op = 12.2e-6
let gauss_elem_op = 10.2e-6
let fold_conv_op = 10.0e-6
let copy_per_byte = 0.10e-6
let elem_bytes = 4
let scalar_node_op = 2.0e-6
