exception Local_access_violation of { rank : int; index : int array }
exception Use_after_destroy

type distr = Default | Ring | Torus2d
type 'a part = { region : Distribution.region; mutable data : 'a array }

type 'a t = {
  id : int;
  dim : int;
  gsize : Index.size;
  distr : distr;
  dist : Distribution.t;
  parts : 'a part array;
  elem_bytes : int;
  mutable destroyed : bool;
  mutable checkpoint : bool;
}

(* Atomic so arrays can be created from several domains at once (the
   multicore experiment harness runs independent simulations in parallel);
   ids only need to be distinct, not consecutive. *)
let next_id = Atomic.make 0

let make ~gsize ~dist ~distr ~elem_bytes init =
  if Distribution.gsize dist <> gsize then
    invalid_arg "Darray.make: distribution does not match global size";
  let nprocs = Distribution.nprocs dist in
  let parts =
    Array.init nprocs (fun rank ->
        let region = Distribution.region dist ~rank in
        let count = Distribution.region_count region in
        (* single pass in region order so data.(offset) matches
           region_offset; [init] receives the iteration's scratch index,
           avoiding one int array allocation per element *)
        let data = ref [||] in
        let pos = ref 0 in
        Distribution.region_iter region (fun ix ->
            let v = init ix in
            if !pos = 0 then data := Array.make count v;
            !data.(!pos) <- v;
            incr pos);
        { region; data = !data })
  in
  {
    id = Atomic.fetch_and_add next_id 1;
    dim = Array.length gsize;
    gsize;
    distr;
    dist;
    parts;
    elem_bytes;
    destroyed = false;
    checkpoint = false;
  }

let set_checkpoint a flag = a.checkpoint <- flag
let dim a = a.dim
let gsize a = a.gsize
let nprocs a = Array.length a.parts
let elem_bytes a = a.elem_bytes
let check_alive a = if a.destroyed then raise Use_after_destroy
let mark_destroyed a = a.destroyed <- true

let part a ~rank =
  check_alive a;
  a.parts.(rank)

let local_count a ~rank = Distribution.local_count a.dist ~rank
let owner a ix = Distribution.owner a.dist ix

let bounds a ~rank =
  check_alive a;
  match a.parts.(rank).region with
  | Distribution.Rect b -> b
  | Distribution.Rows _ ->
      invalid_arg "Darray.bounds: cyclic partitions are not rectangular"

let get a ~rank ix =
  check_alive a;
  let p = a.parts.(rank) in
  let off = Distribution.region_locate p.region ix in
  if off < 0 then raise (Local_access_violation { rank; index = Array.copy ix });
  p.data.(off)

let set a ~rank ix v =
  check_alive a;
  let p = a.parts.(rank) in
  let off = Distribution.region_locate p.region ix in
  if off < 0 then raise (Local_access_violation { rank; index = Array.copy ix });
  p.data.(off) <- v

(* [get] on the literal indices {i} and {i, j}: the same checks and the
   same violation, without building the index first.  A 2-D rectangle is
   located inline; cyclic rows go through [region_locate]. *)
let violation rank index = raise (Local_access_violation { rank; index })

let get1 a ~rank i =
  check_alive a;
  let p = a.parts.(rank) in
  match p.region with
  | Distribution.Rect { lower = [| l |]; upper = [| u |] } when i >= l && i < u
    ->
      p.data.(i - l)
  | _ -> violation rank [| i |]

let get2 a ~rank i j =
  check_alive a;
  let p = a.parts.(rank) in
  let off =
    match p.region with
    | Distribution.Rect { lower = [| l0; l1 |]; upper = [| u0; u1 |] } ->
        if i >= l0 && i < u0 && j >= l1 && j < u1 then
          ((i - l0) * (u1 - l1)) + (j - l1)
        else -1
    | Distribution.Rect _ -> -1
    | Distribution.Rows _ as r -> Distribution.region_locate r [| i; j |]
  in
  if off < 0 then violation rank [| i; j |];
  p.data.(off)

let peek a ix =
  check_alive a;
  let rank = owner a ix in
  let p = a.parts.(rank) in
  p.data.(Distribution.region_offset p.region ix)

let poke a ix v =
  check_alive a;
  let rank = owner a ix in
  let p = a.parts.(rank) in
  p.data.(Distribution.region_offset p.region ix) <- v

(* Copy one rectangular partition into the row-major global image: local
   storage is row-major over the rectangle, so it decomposes into runs of
   [extent(last dim)] contiguous elements, one blit per run, with an
   odometer over the leading dimensions supplying each run's global base
   offset.  No per-element ownership lookup. *)
let blit_rect_part gsize (p : 'a part) (b : Index.bounds) out =
  let dim = Array.length b.Index.lower in
  if Array.length p.data > 0 then
    if dim = 0 then out.(0) <- p.data.(0)
    else begin
      let strides = Array.make dim 1 in
      for d = dim - 2 downto 0 do
        strides.(d) <- strides.(d + 1) * gsize.(d + 1)
      done;
      let run = b.Index.upper.(dim - 1) - b.Index.lower.(dim - 1) in
      let ix = Array.copy b.Index.lower in
      let src = ref 0 in
      let more = ref true in
      while !more do
        let base = ref 0 in
        for d = 0 to dim - 1 do
          base := !base + (ix.(d) * strides.(d))
        done;
        Array.blit p.data !src out !base run;
        src := !src + run;
        (* advance the odometer over the leading dimensions *)
        let d = ref (dim - 2) in
        let carry = ref true in
        while !carry && !d >= 0 do
          ix.(!d) <- ix.(!d) + 1;
          if ix.(!d) < b.Index.upper.(!d) then carry := false
          else begin
            ix.(!d) <- b.Index.lower.(!d);
            decr d
          end
        done;
        if !carry then more := false
      done
    end

let seed_elem parts =
  let seed = ref None in
  Array.iter
    (fun p ->
      match !seed with
      | None -> if Array.length p.data > 0 then seed := Some p.data.(0)
      | Some _ -> ())
    parts;
  match !seed with
  | Some v -> v
  | None -> invalid_arg "Darray: no resident element to seed a copy from"

(* Assemble the row-major global image from caller-supplied per-partition
   data snapshots ([snapshots.(r)] standing in for partition [r]'s live
   storage).  The allgather-based [Skeletons.to_flat] rebuilds from data
   deposited at collective time, which a rank finishing the collective
   early cannot mutate — unlike the live partitions [to_flat] reads. *)
let flat_of_snapshots a snapshots =
  check_alive a;
  let n = Index.volume a.gsize in
  if n = 0 then [||]
  else begin
    let out = Array.make n (seed_elem a.parts) in
    Array.iteri
      (fun r p ->
        let p = { p with data = snapshots.(r) } in
        match p.region with
        | Distribution.Rect b -> blit_rect_part a.gsize p b out
        | Distribution.Rows { rows; ncols } ->
            Array.iteri
              (fun i row ->
                Array.blit p.data (i * ncols) out (row * ncols) ncols)
              rows)
      a.parts;
    out
  end

let to_flat a = flat_of_snapshots a (Array.map (fun p -> p.data) a.parts)

let row a r =
  check_alive a;
  if a.dim <> 2 then invalid_arg "Darray.row: 2-D arrays only";
  if r < 0 || r >= a.gsize.(0) then invalid_arg "Darray.row: row out of range";
  let ncols = a.gsize.(1) in
  if ncols = 0 then [||]
  else begin
    (* every partition that intersects the row contributes one contiguous
       run of columns; together they tile it *)
    let out = Array.make ncols (seed_elem a.parts) in
    Array.iter
      (fun p ->
        match p.region with
        | Distribution.Rect b ->
            let width = b.Index.upper.(1) - b.Index.lower.(1) in
            if
              width > 0 && r >= b.Index.lower.(0) && r < b.Index.upper.(0)
            then
              Array.blit p.data
                ((r - b.Index.lower.(0)) * width)
                out b.Index.lower.(1) width
        | Distribution.Rows { rows; ncols = nc } -> (
            match Distribution.find_row rows r with
            | Some i -> Array.blit p.data (i * nc) out 0 nc
            | None -> ()))
      a.parts;
    out
  end
