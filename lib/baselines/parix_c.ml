let elem_bytes = Calibration.elem_bytes

let square_grid ctx =
  match Topology.square_side (Machine.topology ctx) with
  | Some q -> q
  | None -> invalid_arg "Parix_c: needs a square processor grid"

let grid_pos ctx =
  let x, y = Topology.grid_coords (Machine.topology ctx) (Machine.self ctx) in
  (y, x) (* block row, block column *)

let rank_at ctx ~row ~col =
  Topology.rank_of_grid (Machine.topology ctx) (col, row)

(* Cannon's rotations over plain local blocks; the working set rotates by
   reference so the caller's block contents are never mutated (only [cblock]
   accumulates).  Returns unit; [cblock] holds the result block. *)
let cannon ctx ~q ~bs ~cost ~add ~mul ablock bblock cblock =
  let bi, bj = grid_pos ctx in
  let at r c = rank_at ctx ~row:(((r mod q) + q) mod q) ~col:(((c mod q) + q) mod q) in
  let block_bytes = bs * bs * elem_bytes in
  let tag_a = Machine.tags ctx 2 in
  let tag_b = tag_a + 1 in
  let exchange tag ~dest ~src block =
    Collectives.ring_shift ctx ~tag ~bytes:block_bytes ~dest ~src block
  in
  let a = ref ablock and b = ref bblock in
  a := exchange tag_a ~dest:(at bi (bj - bi)) ~src:(at bi (bj + bi)) !a;
  b := exchange tag_b ~dest:(at (bi - bj) bj) ~src:(at (bi + bj) bj) !b;
  let multiply () =
    let ad = !a and bd = !b in
    for i = 0 to bs - 1 do
      for k = 0 to bs - 1 do
        let aik = ad.((i * bs) + k) in
        for j = 0 to bs - 1 do
          let off = (i * bs) + j in
          cblock.(off) <- add cblock.(off) (mul aik bd.((k * bs) + j))
        done
      done
    done;
    Machine.charge ctx Cost_model.Kernel ~ops:(bs * bs * bs) ~base:cost
  in
  for step = 1 to q do
    if step < q then begin
      Machine.send ctx ~dest:(at bi (bj - 1)) ~tag:tag_a ~bytes:block_bytes !a;
      Machine.send ctx ~dest:(at (bi - 1) bj) ~tag:tag_b ~bytes:block_bytes !b;
      multiply ();
      a := Machine.recv ctx ~src:(at bi (bj + 1)) ~tag:tag_a;
      b := Machine.recv ctx ~src:(at (bi + 1) bj) ~tag:tag_b
    end
    else multiply ()
  done;
  if q > 1 then begin
    ignore
      (exchange tag_a ~dest:(at bi (bi + bj - 1)) ~src:(at bi (bj - bi + 1)) !a);
    ignore
      (exchange tag_b ~dest:(at (bi + bj - 1) bj) ~src:(at (bi - bj + 1) bj) !b)
  end

let init_block ctx ~n ~q ~cost f =
  let bs = n / q in
  let bi, bj = grid_pos ctx in
  let block =
    Array.init (bs * bs) (fun off ->
        f [| (bi * bs) + (off / bs); (bj * bs) + (off mod bs) |])
  in
  Machine.charge ctx Cost_model.Kernel ~ops:(bs * bs) ~base:cost;
  block

let assemble_blocks ctx ~n ~bs seed blocks =
  let out = Array.make (n * n) seed in
  Array.iteri
    (fun rank bl ->
      let x, y = Topology.grid_coords (Machine.topology ctx) rank in
      let bi = y and bj = x in
      for i = 0 to bs - 1 do
        for j = 0 to bs - 1 do
          out.((((bi * bs) + i) * n) + (bj * bs) + j) <- bl.((i * bs) + j)
        done
      done)
    blocks;
  out

(* one all-gather of the q*q blocks; every rank assembles locally *)
let gather_blocks ctx ~n ~q block =
  let bs = n / q in
  let tag = Machine.tags ctx 1 in
  assemble_blocks ctx ~n ~bs block.(0)
    (Collectives.allgather ctx ~tag ~bytes:(bs * bs * elem_bytes)
       ~total:(n * n * elem_bytes) block)

let shortest_paths ctx ~n ~weight =
  let q = square_grid ctx in
  if n mod q <> 0 then
    invalid_arg "Parix_c.shortest_paths: grid side must divide n";
  let bs = n / q in
  let inf = Shortest_paths.infinity_weight in
  let a = ref (init_block ctx ~n ~q ~cost:Calibration.fold_conv_op weight) in
  let c = Array.make (bs * bs) inf in
  let saturating_add x y =
    let s = x + y in
    if s > inf then inf else s
  in
  let rounds =
    let rec go k pow = if pow >= n then k else go (k + 1) (2 * pow) in
    go 0 1
  in
  for _ = 1 to rounds do
    let b = Array.copy !a in
    Machine.charge_copy ctx ~bytes:(bs * bs * elem_bytes);
    cannon ctx ~q ~bs ~cost:Calibration.minplus_op ~add:min
      ~mul:saturating_add !a b c;
    a := Array.copy c;
    Machine.charge_copy ctx ~bytes:(bs * bs * elem_bytes)
  done;
  !a

let shortest_paths_global ctx ~n ~weight =
  let q = square_grid ctx in
  gather_blocks ctx ~n ~q (shortest_paths ctx ~n ~weight)

let matmul ctx ~n ~a ~b =
  let q = square_grid ctx in
  if n mod q <> 0 then invalid_arg "Parix_c.matmul: grid side must divide n";
  let bs = n / q in
  let ab = init_block ctx ~n ~q ~cost:Calibration.fold_conv_op a in
  let bb = init_block ctx ~n ~q ~cost:Calibration.fold_conv_op b in
  let cb = Array.make (bs * bs) 0.0 in
  cannon ctx ~q ~bs ~cost:Calibration.float_madd_op ~add:( +. ) ~mul:( *. )
    ab bb cb;
  cb

let matmul_global ctx ~n ~a ~b =
  let q = square_grid ctx in
  gather_blocks ctx ~n ~q (matmul ctx ~n ~a ~b)

(* Row-block Gauss-Jordan.  The pivot row is normalized by its owner and
   travels along a binomial tree; every processor then updates its whole
   rows — branch-free full-row sweeps, which is both how the flat C loop
   reads and arithmetically equivalent (columns left of the pivot multiply
   by zeros of the normalized pivot row). *)
let gauss ?(pivoting = false) ctx ~n ~matrix =
  let p = Machine.nprocs ctx in
  let me = Machine.self ctx in
  if n < p then invalid_arg "Parix_c.gauss: needs n >= number of processors";
  let m = n + 1 in
  let r0 = me * n / p and r1 = (me + 1) * n / p in
  let nloc = r1 - r0 in
  let owner_of gi = ((p * (gi + 1)) - 1) / n in
  let a =
    Array.init (nloc * m) (fun off -> matrix [| r0 + (off / m); off mod m |])
  in
  Machine.charge ctx Cost_model.Kernel ~ops:(nloc * m)
    ~base:Calibration.fold_conv_op;
  let tag = Machine.tags ctx 3 in
  let tag_swap = tag + 1 and tag_piv = tag + 2 in
  let row_bytes = m * elem_bytes in
  for k = 0 to n - 1 do
    if pivoting then begin
      (* distributed max |a_ik|, i >= k *)
      let best = ref (0.0, -1) in
      for i = 0 to nloc - 1 do
        let gi = r0 + i in
        if gi >= k then begin
          let v = Float.abs a.((i * m) + k) in
          if v > fst !best then best := (v, gi)
        end
      done;
      Machine.charge ctx Cost_model.Kernel ~ops:nloc
        ~base:Calibration.fold_conv_op;
      let bv, br =
        Collectives.allreduce ctx ~tag ~bytes:8
          (fun x y -> if fst y > fst x then y else x)
          !best
      in
      if bv = 0.0 then raise Gauss.Singular;
      if br <> k then begin
        (* exchange rows k and br *)
        let ok = owner_of k and ob = owner_of br in
        let local_row gi = gi - r0 in
        if ok = ob then begin
          if me = ok then begin
            let lk = local_row k * m and lb = local_row br * m in
            for j = 0 to m - 1 do
              let t = a.(lk + j) in
              a.(lk + j) <- a.(lb + j);
              a.(lb + j) <- t
            done;
            Machine.charge_copy ctx ~bytes:(2 * row_bytes)
          end
        end
        else if me = ok || me = ob then begin
          let mine = if me = ok then local_row k else local_row br in
          let peer = if me = ok then ob else ok in
          let out = Array.sub a (mine * m) m in
          let incoming : float array =
            Machine.sendrecv ctx ~dest:peer ~src:peer ~tag:tag_swap
              ~bytes:row_bytes out
          in
          Array.blit incoming 0 a (mine * m) m
        end
      end
    end;
    let ko = owner_of k in
    let pivrow =
      if me = ko then begin
        let lk = (k - r0) * m in
        let pivot = a.(lk + k) in
        let row = Array.init m (fun j -> a.(lk + j) /. pivot) in
        Machine.charge ctx Cost_model.Kernel ~ops:m
          ~base:Calibration.gauss_elem_op;
        row
      end
      else [||]
    in
    let pivrow =
      Collectives.bcast ctx ~tag:tag_piv ~root:ko ~bytes:row_bytes pivrow
    in
    for i = 0 to nloc - 1 do
      if r0 + i <> k then begin
        let base = i * m in
        let factor = a.(base + k) in
        for j = 0 to m - 1 do
          a.(base + j) <- a.(base + j) -. (factor *. pivrow.(j))
        done
      end
    done;
    Machine.charge ctx Cost_model.Kernel ~ops:(nloc * m)
      ~base:Calibration.gauss_elem_op
  done;
  let local_x = Array.init nloc (fun i -> a.((i * m) + n) /. a.((i * m) + r0 + i)) in
  Machine.charge ctx Cost_model.Kernel ~ops:nloc
    ~base:Calibration.gauss_elem_op;
  (* assemble the solution vector everywhere *)
  let x = Array.make n 0.0 in
  Array.iter
    (fun (start, xs) -> Array.blit xs 0 x start (Array.length xs))
    (Collectives.allgather ctx ~tag ~bytes:(nloc * elem_bytes)
       ~total:(n * elem_bytes) (r0, local_x));
  x
