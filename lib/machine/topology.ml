type virtual_kind = Default | Torus2d

type t = {
  width : int;
  height : int;
  position : (int * int) array; (* rank -> physical mesh position *)
  dist : int array; (* rank pair -> hops, row-major n x n (read-only) *)
}

(* Fold a line of [n] logical positions into [n] physical slots such that
   logical neighbours (including the wrap-around n-1 -> 0) end up at most two
   slots apart: 0, 2, 4, ..., back down ..., 5, 3, 1. *)
let folded_line n =
  let slot = Array.make n 0 in
  let half = (n + 1) / 2 in
  for i = 0 to n - 1 do
    if i < half then slot.(i) <- 2 * i else slot.(i) <- (2 * (n - 1 - i)) + 1
  done;
  slot

let positions ~width ~height ~kind ~optimized =
  let n = width * height in
  let row_major i = (i mod width, i / width) in
  match (kind, optimized) with
  | Default, _ | _, false -> Array.init n row_major
  | Torus2d, true ->
      (* Classic folded torus: fold each dimension independently, making
         every torus neighbour (wrap-around included) at most 2 hops away. *)
      let fold_x = folded_line width and fold_y = folded_line height in
      Array.init n (fun i -> (fold_x.(i mod width), fold_y.(i / width)))

(* Pairwise Manhattan distances, precomputed eagerly so [hops] — called on
   every simulated message — is one array read.  Built once at creation and
   never mutated, so a topology value can be shared freely across domains. *)
let distance_table position =
  let n = Array.length position in
  let dist = Array.make (n * n) 0 in
  for a = 0 to n - 1 do
    let xa, ya = position.(a) in
    for b = 0 to n - 1 do
      let xb, yb = position.(b) in
      dist.((a * n) + b) <- abs (xa - xb) + abs (ya - yb)
    done
  done;
  dist

(* The hop table and each rank's mailbox grow with the square of the
   processor count, so a grid over [max_procs] would take gigabytes before
   its program starts.  The bound is checked by division: [width * height]
   may overflow. *)
let max_procs = 1024

let create ?(embedding_optimized = true) ~width ~height kind =
  if width <= 0 || height <= 0 then
    invalid_arg "Topology.create: non-positive grid dimension";
  if width > max_procs / height then
    invalid_arg
      (Printf.sprintf "Topology.create: a %dx%d grid has more than %d processors"
         width height max_procs);
  let position =
    positions ~width ~height ~kind ~optimized:embedding_optimized
  in
  {
    width;
    height;
    position;
    dist = distance_table position;
  }

let mesh ~width ~height = create ~width ~height Default

let torus2d ?(embedding_optimized = true) ~width ~height () =
  create ~embedding_optimized ~width ~height Torus2d

let nprocs t = t.width * t.height
let width t = t.width
let height t = t.height

let check_rank t r =
  if r < 0 || r >= nprocs t then invalid_arg "Topology: rank out of range"

let grid_coords t rank =
  check_rank t rank;
  (rank mod t.width, rank / t.width)

let rank_of_grid t (x, y) =
  let modp a m = ((a mod m) + m) mod m in
  let x = modp x t.width and y = modp y t.height in
  (y * t.width) + x

let mesh_position t rank =
  check_rank t rank;
  t.position.(rank)

let hops t a b =
  check_rank t a;
  check_rank t b;
  t.dist.((a * nprocs t) + b)

let torus_neighbor t rank dir =
  let x, y = grid_coords t rank in
  let c =
    match dir with
    | `North -> (x, y - 1)
    | `South -> (x, y + 1)
    | `East -> (x + 1, y)
    | `West -> (x - 1, y)
  in
  rank_of_grid t c

let square_side t = if t.width = t.height then Some t.width else None

(* Order-sensitive checksum of the precomputed read-only tables.  A sharded
   [Machine.run] publishes one topology value to every domain and asserts
   the digest is unchanged when the run completes — the tables are memo
   caches on the per-message hot path, so an accidental mutation would
   silently corrupt hop costs instead of crashing.  Plain int arithmetic, no truncation (unlike
   [Hashtbl.hash], which stops after a few nodes). *)
let digest t =
  let h = ref (0x9e3779b9 land max_int) in
  let mix v = h := ((!h * 31) + v) land max_int in
  mix t.width;
  mix t.height;
  Array.iter
    (fun (x, y) ->
      mix x;
      mix y)
    t.position;
  Array.iter mix t.dist;
  !h
