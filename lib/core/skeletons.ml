type ctx = Machine.ctx

(* charged per element when [?cost] is omitted: a generic arithmetic
   element visit *)
let default_elem_cost = 10.0e-6

let skeleton ctx = Machine.charge_skeleton_call ctx
let rank ctx = Machine.self ctx

(* Trace span around a skeleton body (zero simulated cost; no-op unless the
   run was started with [~trace:true]).  Element-ops charged inside are
   attributed to the span, and nested collectives appear as child spans. *)
let with_span ctx name f = Machine.with_span ctx ~cat:Trace.Skeleton name f

(* Run a local, communication-free phase that mutates [pd] under fail-stop
   crash protection when the array's checkpoint policy asks for it: the
   partition is snapshotted on entry and restored (and the phase re-executed)
   if the fault plan crashes this processor inside the phase.  Costs nothing
   — not even the snapshot — unless a crash is actually pending
   ({!Machine.protect}). *)
let protect_part ctx (arr : 'a Darray.t) (pd : 'a Darray.part) f =
  if arr.Darray.checkpoint then
    Machine.protect ctx
      ~bytes:(Array.length pd.Darray.data * Darray.elem_bytes arr)
      ~snapshot:(fun () -> Array.copy pd.Darray.data)
      ~restore:(fun s -> Array.blit s 0 pd.Darray.data 0 (Array.length s))
      f
  else f ()

(* Same protection for a pure (read-only) local phase: nothing to snapshot,
   a crash just re-executes the phase after the reboot penalty. *)
let protect_pure ctx (arr : 'a Darray.t) f =
  if arr.Darray.checkpoint then
    Machine.protect ctx ~bytes:0
      ~snapshot:(fun () -> ())
      ~restore:(fun () -> ())
      f
  else f ()

(* ------------------------------------------------------------------ *)
(* Creation / destruction                                              *)

let pgrid_for ctx ~gsize ~(distr : Darray.distr) =
  let topo = Machine.topology ctx in
  let p = Machine.nprocs ctx in
  match (distr, Array.length gsize) with
  | Torus2d, 2 -> [| Topology.height topo; Topology.width topo |]
  | Torus2d, _ ->
      invalid_arg "Skeletons.create: Torus2d distribution needs a 2-D array"
  | (Default | Ring), 1 -> [| p |]
  | (Default | Ring), 2 -> [| p; 1 |]
  | (Default | Ring), _ ->
      invalid_arg "Skeletons.create: only 1-D and 2-D arrays are supported"

let create ctx ?(elem_bytes = Calibration.elem_bytes)
    ?(scheme = Distribution.Block) ?(cost = default_elem_cost) ?checkpoint
    ~gsize ~distr init =
  with_span ctx "array_create" @@ fun () ->
  skeleton ctx;
  let checkpoint =
    match checkpoint with
    | Some c -> c
    | None -> Machine.checkpoint_default ctx
  in
  (match (scheme, distr) with
   | (Distribution.Cyclic | Distribution.Block_cyclic _), Darray.Torus2d ->
       invalid_arg "Skeletons.create: cyclic schemes use row distribution"
   | _ -> ());
  (* rank 0 runs [init] over every partition, whichever rank arrives
     first, so the rank charged for it never depends on host timing *)
  let a =
    Machine.collective ~root:true ctx (fun () ->
        let pgrid = pgrid_for ctx ~gsize ~distr in
        let dist = Distribution.create ~gsize ~pgrid scheme in
        let a = Darray.make ~gsize ~dist ~distr ~elem_bytes init in
        Darray.set_checkpoint a checkpoint;
        a)
  in
  Machine.charge ctx Cost_model.Mapped
    ~ops:(Darray.local_count a ~rank:(rank ctx))
    ~base:cost;
  a

let destroy ctx a =
  with_span ctx "array_destroy" @@ fun () ->
  (* Deallocation takes effect when the slowest processor reaches it: faster
     processors must not invalidate partitions their peers are still using.
     This processor's share of the countdown is consumed *before* the
     skeleton-call overhead is charged: should anything later in this fiber
     raise, the peers can still drive the counter to zero and reclaim the
     array instead of leaking it forever. *)
  let remaining =
    (* Atomic, not a plain ref: under [sim_domains > 1] the countdown is hit
       from several domains (collective values are shared across shards) *)
    Machine.collective ctx (fun () -> Atomic.make (Machine.nprocs ctx))
  in
  if Atomic.fetch_and_add remaining (-1) = 1 then Darray.mark_destroyed a;
  skeleton ctx

(* ------------------------------------------------------------------ *)
(* Local access                                                        *)

let part_bounds ctx a = Darray.bounds a ~rank:(rank ctx)
let get_elem ctx a ix = Darray.get a ~rank:(rank ctx) ix
let put_elem ctx a ix v = Darray.set a ~rank:(rank ctx) ix v

(* ------------------------------------------------------------------ *)
(* map                                                                 *)

let check_same_layout name a b =
  Darray.check_alive a;
  Darray.check_alive b;
  if not (Distribution.same_layout a.Darray.dist b.Darray.dist) then
    invalid_arg (name ^ ": arrays have different layouts")

let map_general ctx ~cost f (src : 'a Darray.t) (dst : 'b Darray.t) =
  with_span ctx "array_map" @@ fun () ->
  skeleton ctx;
  let me = rank ctx in
  let ps = Darray.part src ~rank:me and pd = Darray.part dst ~rank:me in
  protect_part ctx dst pd @@ fun () ->
  let pos = ref 0 in
  Distribution.region_iter ps.Darray.region (fun ix ->
      pd.Darray.data.(!pos) <- f ps.Darray.data.(!pos) ix;
      incr pos);
  Machine.charge ctx Cost_model.Mapped ~ops:!pos ~base:cost

let map ctx ?(cost = default_elem_cost) f src dst =
  check_same_layout "array_map" src dst;
  map_general ctx ~cost f src dst

let map_into ctx ?(cost = default_elem_cost) f src dst =
  check_same_layout "array_map" src dst;
  if src.Darray.id = dst.Darray.id then
    invalid_arg "array_map: in-situ map cannot change the element type";
  map_general ctx ~cost f src dst

(* ------------------------------------------------------------------ *)
(* fold                                                                *)

let fold ctx ?(cost = default_elem_cost) ?acc_bytes ?acc_bytes_of ~conv f
    (a : 'a Darray.t) =
  Darray.check_alive a;
  with_span ctx "array_fold" @@ fun () ->
  skeleton ctx;
  let me = rank ctx in
  let p = Darray.part a ~rank:me in
  (* the partial result, in a cell made at the first element rather than
     an option per element *)
  let acc = ref None in
  (* local reduction phase: pure reads, so crash protection needs no
     snapshot — a crashed rank just recomputes its partial result *)
  protect_pure ctx a (fun () ->
      acc := None;
      let pos = ref 0 in
      Distribution.region_iter p.Darray.region (fun ix ->
          let v = conv p.Darray.data.(!pos) ix in
          incr pos;
          match !acc with
          | Some w -> w := f !w v
          | None -> acc := Some (ref v));
      Machine.charge ctx Cost_model.Mapped ~ops:!pos ~base:cost);
  let acc = Option.map ( ! ) !acc in
  (* Wire size of the partial result sent up the reduction tree.  When
     [conv] changes the accumulator type (Gauss's pivot search folds floats
     into elemrec structs), the element size of [a] is wrong — pass
     [acc_bytes], or [acc_bytes_of] when the size is only known at run time
     (the interpreter's dynamically typed values). *)
  let bytes =
    match (acc_bytes_of, acc) with
    | Some measure, Some v -> measure v
    | Some _, None | None, _ -> (
        match acc_bytes with Some b -> b | None -> Darray.elem_bytes a)
  in
  let tag = Machine.tags ctx 1 in
  let merge x y =
    match (x, y) with
    | Some x, Some y -> Some (f x y)
    | (Some _ as s), None | None, (Some _ as s) -> s
    | None, None -> None
  in
  match Collectives.allreduce ctx ~tag ~bytes merge acc with
  | Some v -> v
  | None -> invalid_arg "array_fold: empty array"

(* ------------------------------------------------------------------ *)
(* copy                                                                *)

let copy ctx (src : 'a Darray.t) (dst : 'a Darray.t) =
  check_same_layout "array_copy" src dst;
  with_span ctx "array_copy" @@ fun () ->
  skeleton ctx;
  let me = rank ctx in
  let ps = Darray.part src ~rank:me and pd = Darray.part dst ~rank:me in
  let n = Array.length ps.Darray.data in
  Array.blit ps.Darray.data 0 pd.Darray.data 0 n;
  Machine.charge_copy ctx ~bytes:(n * Darray.elem_bytes src)

(* Same skeleton as [copy] (same span, same charge) for arrays whose host
   representations differ: [conv] converts each element.  Needed when a
   payload-specialised array (unboxed int/float parts) is copied to or from
   a generic boxed one — the simulated machine sees the exact same copy
   either way. *)
let copy_with ctx conv (src : 'a Darray.t) (dst : 'b Darray.t) =
  check_same_layout "array_copy" src dst;
  with_span ctx "array_copy" @@ fun () ->
  skeleton ctx;
  let me = rank ctx in
  let ps = Darray.part src ~rank:me and pd = Darray.part dst ~rank:me in
  let n = Array.length ps.Darray.data in
  for i = 0 to n - 1 do
    pd.Darray.data.(i) <- conv ps.Darray.data.(i)
  done;
  Machine.charge_copy ctx ~bytes:(n * Darray.elem_bytes src)

(* ------------------------------------------------------------------ *)
(* broadcast_part                                                      *)

let broadcast_part ctx ?copy (a : 'a Darray.t) ix =
  Darray.check_alive a;
  (* an index outside the array would pick a wrong or nonexistent root, so
     every rank rejects it before any communication *)
  let size = Darray.gsize a in
  let whole = { Index.lower = Array.map (fun _ -> 0) size; upper = size } in
  if not (Index.contains whole ix) then
    invalid_arg
      (Format.asprintf
         "array_broadcast_part: index %a is outside the array (size %a)"
         Index.pp ix Index.pp size);
  with_span ctx "array_broadcast_part" @@ fun () ->
  skeleton ctx;
  let me = rank ctx in
  let root = Darray.owner a ix in
  let p = Darray.part a ~rank:me in
  let count = Array.length p.Darray.data in
  let root_count = Darray.local_count a ~rank:root in
  if count <> root_count then
    invalid_arg "array_broadcast_part: partitions have different shapes";
  let tag = Machine.tags ctx 1 in
  let bytes = count * Darray.elem_bytes a in
  (* The root broadcasts a snapshot: messages travel by reference in the
     simulator, and the root may overwrite its partition before a slow
     receiver has consumed the message. *)
  let outgoing =
    if me <> root then [||]
    else
      match copy with
      | None -> Array.copy p.Darray.data
      | Some c -> Array.map c p.Darray.data
  in
  let received = Collectives.bcast ctx ~tag ~root ~bytes outgoing in
  if me <> root then begin
    (match copy with
     | None -> Array.blit received 0 p.Darray.data 0 count
     | Some c ->
         for i = 0 to count - 1 do
           p.Darray.data.(i) <- c received.(i)
         done);
    Machine.charge_copy ctx ~bytes
  end

(* ------------------------------------------------------------------ *)
(* permute_rows                                                        *)

let permutation_inverse n perm =
  let inv = Array.make n (-1) in
  for r = 0 to n - 1 do
    let d = perm r in
    if d < 0 || d >= n || inv.(d) >= 0 then
      invalid_arg
        "array_permute_rows: permutation function is not a bijection";
    inv.(d) <- r
  done;
  inv

(* Rows of a partition in local-storage order, with the column range of the
   partition (identical for source and target since layouts match). *)
let partition_rows (p : 'a Darray.part) =
  match p.Darray.region with
  | Distribution.Rect b ->
      ( Array.init (b.Index.upper.(0) - b.Index.lower.(0)) (fun i ->
            b.Index.lower.(0) + i),
        b.Index.lower.(1),
        b.Index.upper.(1) - b.Index.lower.(1) )
  | Distribution.Rows { rows; ncols } -> (rows, 0, ncols)

let permute_rows ctx ?copy (src : 'a Darray.t) perm (dst : 'a Darray.t) =
  check_same_layout "array_permute_rows" src dst;
  if Darray.dim src <> 2 then
    invalid_arg "array_permute_rows: 2-D arrays only";
  if src.Darray.id = dst.Darray.id then
    invalid_arg "array_permute_rows: source and target must be distinct";
  with_span ctx "array_permute_rows" @@ fun () ->
  skeleton ctx;
  let n = (Darray.gsize src).(0) in
  let inv = permutation_inverse n perm in
  Machine.charge ctx Cost_model.Scalar ~ops:n ~base:0.2e-6;
  let me = rank ctx in
  let ps = Darray.part src ~rank:me and pd = Darray.part dst ~rank:me in
  let my_rows, col_lo, width = partition_rows ps in
  let tag = Machine.tags ctx 1 in
  let row_bytes = width * Darray.elem_bytes src in
  (* Outgoing rows, in ascending source-row order. *)
  let pending_local = ref [] in
  Array.iteri
    (fun lpos r ->
      let d = perm r in
      let owner = Darray.owner dst [| d; col_lo |] in
      let segment =
        match copy with
        | None -> Array.sub ps.Darray.data (lpos * width) width
        | Some c ->
            Array.init width (fun k -> c ps.Darray.data.((lpos * width) + k))
      in
      if owner = me then pending_local := (d, segment) :: !pending_local
      else Machine.send ctx ~dest:owner ~tag ~bytes:row_bytes segment)
    my_rows;
  (* Local moves (buffered so an overlapping in-place pattern still reads
     pre-permutation data, matching a message-based implementation). *)
  List.iter
    (fun (d, segment) ->
      let off = Distribution.region_offset pd.Darray.region [| d; col_lo |] in
      Array.blit segment 0 pd.Darray.data off width;
      Machine.charge_copy ctx ~bytes:row_bytes)
    !pending_local;
  (* Incoming rows: sorted by (source owner, source row) so the receive
     order matches each sender's FIFO send order. *)
  let dst_rows, _, _ = partition_rows pd in
  let incoming =
    Array.to_list dst_rows
    |> List.filter_map (fun d ->
           let s = inv.(d) in
           let owner = Darray.owner src [| s; col_lo |] in
           if owner = me then None else Some (owner, s, d))
    |> List.sort compare
  in
  List.iter
    (fun (owner, _s, d) ->
      let segment : 'a array = Machine.recv ctx ~src:owner ~tag in
      let off = Distribution.region_offset pd.Darray.region [| d; col_lo |] in
      Array.blit segment 0 pd.Darray.data off width;
      (* landing a received row in the partition is the same memory copy the
         local-move branch already pays — charge it symmetrically *)
      Machine.charge_copy ctx ~bytes:row_bytes)
    incoming

(* ------------------------------------------------------------------ *)
(* gen_mult — Gentleman's algorithm on the torus                       *)

type 'a kernel = 'a array -> 'a array -> 'a array -> int -> unit

let gen_mult ctx ?(cost = default_elem_cost) ?kernel ~add ~mul
    (a : 'a Darray.t) (b : 'a Darray.t) (c : 'a Darray.t) =
  check_same_layout "array_gen_mult" a b;
  check_same_layout "array_gen_mult" a c;
  if a.Darray.id = b.Darray.id || a.Darray.id = c.Darray.id
     || b.Darray.id = c.Darray.id
  then invalid_arg "array_gen_mult: the three arrays must be distinct";
  let gs = Darray.gsize a in
  if Darray.dim a <> 2 || gs.(0) <> gs.(1) then
    invalid_arg "array_gen_mult: square matrices only";
  let dist = a.Darray.dist in
  let pg = Distribution.pgrid dist in
  if Array.length pg <> 2 || pg.(0) <> pg.(1) then
    invalid_arg
      "array_gen_mult: needs a square processor grid (Torus2d distribution)";
  let q = pg.(0) in
  let n = gs.(0) in
  if n mod q <> 0 then
    invalid_arg "array_gen_mult: grid side must divide the matrix size";
  with_span ctx "array_gen_mult" @@ fun () ->
  skeleton ctx;
  let bs = n / q in
  let me = rank ctx in
  let coords = Distribution.block_coords dist ~rank:me in
  let bi = coords.(0) and bj = coords.(1) in
  let at_rc r c = Distribution.rank_of_block dist [| r mod q; c mod q |] in
  let block_bytes = bs * bs * Darray.elem_bytes a in
  let tag_a = Machine.tags ctx 2 in
  let tag_b = tag_a + 1 in
  let exchange tag ~dest ~src block =
    Collectives.ring_shift ctx ~tag ~bytes:block_bytes ~dest ~src block
  in
  (* Work on rotating snapshots: messages travel by reference, and a fast
     processor may mutate its partitions (e.g. through a following
     array_copy) while slower peers still read the rotating blocks.  The
     partitions of a and b are never mutated here, so their contents survive
     the call unchanged. *)
  let ablock = ref (Array.copy (Darray.part a ~rank:me).Darray.data) in
  let bblock = ref (Array.copy (Darray.part b ~rank:me).Darray.data) in
  let cdata = (Darray.part c ~rank:me).Darray.data in
  (* Initial skew: row i of A rotates west by i, column j of B north by j. *)
  ablock :=
    exchange tag_a ~dest:(at_rc bi (bj - bi + q)) ~src:(at_rc bi (bj + bi))
      !ablock;
  bblock :=
    exchange tag_b ~dest:(at_rc (bi - bj + q) bj) ~src:(at_rc (bi + bj) bj)
      !bblock;
  let cpart = Darray.part c ~rank:me in
  let multiply () =
    (* each block multiplication is one crash-protected region: the rotating
       a/b blocks are fixed within it, and only [cdata] is mutated *)
    protect_part ctx c cpart @@ fun () ->
    let ad = !ablock and bd = !bblock in
    (match kernel with
     | Some k -> k ad bd cdata bs
     | None ->
         for i = 0 to bs - 1 do
           for k = 0 to bs - 1 do
             let aik = ad.((i * bs) + k) in
             for j = 0 to bs - 1 do
               let off = (i * bs) + j in
               cdata.(off) <- add cdata.(off) (mul aik bd.((k * bs) + j))
             done
           done
         done);
    Machine.charge ctx Cost_model.Kernel ~ops:(bs * bs * bs) ~base:cost
  in
  for step = 1 to q do
    if step < q then begin
      (* Post the rotations before computing: with asynchronous links the
         transfer overlaps the local multiplication (the "new" C style);
         under a sync_comm profile the sender blocks, which is exactly the
         old style's behaviour. *)
      Machine.send ctx ~dest:(at_rc bi (bj - 1 + q)) ~tag:tag_a
        ~bytes:block_bytes !ablock;
      Machine.send ctx ~dest:(at_rc (bi - 1 + q) bj) ~tag:tag_b
        ~bytes:block_bytes !bblock;
      multiply ();
      ablock := Machine.recv ctx ~src:(at_rc bi (bj + 1)) ~tag:tag_a;
      bblock := Machine.recv ctx ~src:(at_rc (bi + 1) bj) ~tag:tag_b
    end
    else multiply ()
  done;
  (* Un-skew so every partition physically returns home, as the in-place
     transputer implementation must (timing realism; values are already
     correct since a and b were never mutated). *)
  if q > 1 then begin
    ignore
      (exchange tag_a
         ~dest:(at_rc bi (bi + bj + q - 1))
         ~src:(at_rc bi (bj - bi + 1 + q))
         !ablock);
    ignore
      (exchange tag_b
         ~dest:(at_rc (bi + bj + q - 1) bj)
         ~src:(at_rc (bi - bj + 1 + q) bj)
         !bblock)
  end

(* ------------------------------------------------------------------ *)
(* gather                                                              *)

let to_flat ctx (a : 'a Darray.t) =
  Darray.check_alive a;
  with_span ctx "array_to_flat" @@ fun () ->
  skeleton ctx;
  let p = Darray.part a ~rank:(rank ctx) in
  let tag = Machine.tags ctx 1 in
  let elem = Darray.elem_bytes a in
  let total_bytes = Index.volume (Darray.gsize a) * elem in
  (* Every rank deposits a snapshot of its partition (a fast rank may
     mutate its partition once it leaves the collective) and assembles a
     private global image: messages travel by reference, so one shared
     result would let a caller mutating its "local" copy mutate all the
     others.  Landing the image in caller-owned memory is the copy
     [broadcast_part] charges, paid on every rank. *)
  let parts =
    Collectives.allgather ctx ~tag
      ~bytes:(Array.length p.Darray.data * elem)
      ~total:total_bytes (Array.copy p.Darray.data)
  in
  let flat = Darray.flat_of_snapshots a parts in
  Machine.charge_copy ctx ~bytes:total_bytes;
  flat
