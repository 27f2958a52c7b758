(* Collective operations in two flavours, dispatched on the machine's
   [Coll_alg.mode]:

   - Legacy: the seed's binomial-tree and linear patterns carrying the
     real values — [--collectives tree] runs are byte-identical to the
     historical binary (values, clocks, Stats, traces).

   - Algorithm-selecting (Auto / Force): a library of message patterns
     (pipelined broadcast, van de Geijn scatter+allgather, recursive
     doubling, chunked rings, Bruck allgather, dissemination barrier,
     binomial scan), one picked per call by
     [Coll_alg.select] from (topology, p, bytes).

   The selecting flavour splits the timing plane from the value plane:
   the chosen message pattern runs with dummy payloads but honest byte
   counts — that is where simulated time is charged — while values travel
   out-of-band through one [Machine.collective] deposit cell per call, and
   every rank combines the deposits with the same canonical bracketing
   (the seed's binomial order for reductions, a left fold for scans).
   Consequences: every algorithm returns bit-identical values (floating
   point included), and a pattern may only complete on a rank once that
   rank causally depends on every deposit it reads — true for all patterns
   below by construction.  All message matching is FIFO per (source, tag);
   since SPMD programs issue collectives in the same order everywhere,
   reusing a tag across successive collectives remains safe. *)

let vrank_of ctx root rank =
  let p = Machine.nprocs ctx in
  ((rank - root) mod p + p) mod p

let rank_of ctx root vrank = (vrank + root) mod Machine.nprocs ctx

(* Trace span around a collective body: zero simulated cost, records which
   collective this processor's sends/recvs/waits belong to. *)
let spanned ctx name f = Machine.with_span ctx ~cat:Trace.Collective name f

(* ------------------------------------------------------------------ *)
(* The seed's binomial and linear patterns, generic in the payload       *)

(* Legacy mode runs these with real values inside its "reduce", "bcast",
   "scan" and "gather" spans — the seed's code paths, byte-identical; the
   selecting modes run the same bodies at unit payload as timing-plane
   patterns ([unit_op] for the combine), so both modes send the same
   messages with the same rendezvous discipline. *)

let tree_reduce ctx ~tag ~root ~bytes f v =
  let p = Machine.nprocs ctx in
  let me = vrank_of ctx root (Machine.self ctx) in
  let acc = ref v in
  let offset = ref 1 in
  let participating = ref true in
  while !participating && !offset < p do
    let span = 2 * !offset in
    if me mod span = !offset then begin
      (* tree edges are rendezvous links: the child is busy until the
         parent has the partial result *)
      Machine.send ctx ~rendezvous:true
        ~dest:(rank_of ctx root (me - !offset))
        ~tag ~bytes !acc;
      participating := false
    end
    else if me mod span = 0 && me + !offset < p then begin
      let w = Machine.recv ctx ~src:(rank_of ctx root (me + !offset)) ~tag in
      acc := f !acc w
    end;
    offset := 2 * !offset
  done;
  !acc

let tree_bcast ctx ~tag ~root ~bytes v =
  let p = Machine.nprocs ctx in
  let me = vrank_of ctx root (Machine.self ctx) in
  let highest = ref 1 in
  while !highest < p do
    highest := 2 * !highest
  done;
  let value = ref v in
  let offset = ref (!highest / 2) in
  while !offset >= 1 do
    let span = 2 * !offset in
    if me mod span = 0 && me + !offset < p then
      Machine.send ctx ~rendezvous:true
        ~dest:(rank_of ctx root (me + !offset))
        ~tag ~bytes !value
    else if me mod span = !offset then
      value := Machine.recv ctx ~src:(rank_of ctx root (me - !offset)) ~tag;
    offset := !offset / 2
  done;
  !value

let linear_scan ctx ~tag ~bytes f v =
  let p = Machine.nprocs ctx in
  let me = Machine.self ctx in
  let acc =
    if me = 0 then v
    else
      let prefix = Machine.recv ctx ~src:(me - 1) ~tag in
      f prefix v
  in
  if me < p - 1 then Machine.send ctx ~dest:(me + 1) ~tag ~bytes acc;
  acc

let linear_gather ctx ~tag ~root ~bytes v =
  let p = Machine.nprocs ctx in
  let me = Machine.self ctx in
  if me = root then begin
    let out = Array.make p v in
    for src = 0 to p - 1 do
      if src <> root then out.(src) <- Machine.recv ctx ~src ~tag
    done;
    Some out
  end
  else begin
    Machine.send ctx ~dest:root ~tag ~bytes v;
    None
  end

let unit_op () () = ()

let legacy_reduce ctx ~tag ~root ~bytes f v =
  spanned ctx "reduce" @@ fun () -> tree_reduce ctx ~tag ~root ~bytes f v

let legacy_bcast ctx ~tag ~root ~bytes v =
  spanned ctx "bcast" @@ fun () -> tree_bcast ctx ~tag ~root ~bytes v

let legacy_gather_to ctx ~tag ~root ~bytes v =
  spanned ctx "gather" @@ fun () -> linear_gather ctx ~tag ~root ~bytes v

let legacy_allreduce ctx ~tag ~bytes f v =
  let combined = legacy_reduce ctx ~tag ~root:0 ~bytes f v in
  legacy_bcast ctx ~tag ~root:0 ~bytes combined

let legacy_barrier ctx ~tag = legacy_allreduce ctx ~tag ~bytes:0 unit_op ()

(* ------------------------------------------------------------------ *)
(* Value plane: canonical combines over the per-call deposit cell       *)

type 'a cell = { sel_bytes : int; slots : 'a option array }

(* One shared cell per collective call site.  [sel_bytes] — the first
   arriver's byte count — is what selection runs on, so ranks whose local
   byte estimates differ (array_fold's measured accumulators) still pick
   the same algorithm. *)
let cell_for ctx ~bytes =
  Machine.collective ctx (fun () ->
      { sel_bytes = bytes; slots = Array.make (Machine.nprocs ctx) None })

let slot cell i =
  match cell.slots.(i) with
  | Some v -> v
  | None ->
      (* unreachable: every pattern below completes on a rank only after it
         causally depends on all the deposits that rank reads *)
      invalid_arg "Collectives: missing deposit (protocol error)"

(* The seed's binomial-tree reduction order over vrank-indexed deposits:
   at round [offset], vrank j (j mod 2*offset = 0) absorbs vrank j+offset
   with the receiver on the left — exactly [tree_reduce]'s [f !acc w].
   Same expression tree, hence bit-identical results (floats included). *)
let tree_combine f (vals : 'a array) =
  let p = Array.length vals in
  let acc = Array.copy vals in
  let offset = ref 1 in
  while !offset < p do
    let span = 2 * !offset in
    let i = ref 0 in
    while !i < p do
      if !i + !offset < p then acc.(!i) <- f acc.(!i) acc.(!i + !offset);
      i := !i + span
    done;
    offset := span
  done;
  acc.(0)

(* ------------------------------------------------------------------ *)
(* Timing plane: message patterns with dummy payloads, honest bytes     *)

let recv_unit ctx ~src ~tag = (Machine.recv ctx ~src ~tag : unit)

(* Segmented broadcast down the rank ring (vrank space, so it is rooted
   anywhere): the root streams segments to vrank 1, every interior rank
   forwards each segment as it lands.  Asynchronous sends let segment k+1
   overlap the downstream transit of segment k. *)
let pipeline_bcast_pattern ctx ~tag ~root ~bytes =
  let p = Machine.nprocs ctx in
  if p > 1 then begin
    let me = vrank_of ctx root (Machine.self ctx) in
    let nseg, seg = Coll_alg.pipeline_plan (Machine.coll_net ctx) ~bytes in
    let seg_bytes k =
      if k < nseg - 1 then seg else bytes - ((nseg - 1) * seg)
    in
    if me = 0 then
      for k = 0 to nseg - 1 do
        Machine.send ctx ~dest:(rank_of ctx root 1) ~tag ~bytes:(seg_bytes k)
          ()
      done
    else
      for k = 0 to nseg - 1 do
        recv_unit ctx ~src:(rank_of ctx root (me - 1)) ~tag;
        if me < p - 1 then
          Machine.send ctx
            ~dest:(rank_of ctx root (me + 1))
            ~tag ~bytes:(seg_bytes k) ()
      done
  end

(* van de Geijn broadcast: recursive-halving scatter (the root's first send
   hands half the payload across the largest vrank jump), then a ring
   allgather circulates the p chunks. *)
let vandegeijn_bcast_pattern ctx ~tag ~root ~bytes =
  let p = Machine.nprocs ctx in
  if p > 1 then begin
    let me = vrank_of ctx root (Machine.self ctx) in
    let chunk = max 1 ((bytes + p - 1) / p) in
    let rec scatter lo hi =
      (* invariant: me is in [lo, hi) and lo holds the range's data *)
      if hi - lo > 1 then begin
        let mid = lo + ((hi - lo + 1) / 2) in
        let right_bytes = chunk * (hi - mid) in
        if me = lo then
          Machine.send ctx ~dest:(rank_of ctx root mid) ~tag
            ~bytes:right_bytes ()
        else if me = mid then recv_unit ctx ~src:(rank_of ctx root lo) ~tag;
        if me < mid then scatter lo mid else scatter mid hi
      end
    in
    scatter 0 p;
    for _ = 1 to p - 1 do
      Machine.send ctx
        ~dest:(rank_of ctx root ((me + 1) mod p))
        ~tag ~bytes:chunk ();
      recv_unit ctx ~src:(rank_of ctx root ((me + p - 1) mod p)) ~tag
    done
  end

(* Chunked ring steps: each step pushes one chunk to the next rank and
   pulls one from the previous.  (p-1) steps make every rank causally
   dependent on every other; allreduce runs 2(p-1) (reduce-scatter then
   allgather). *)
let ring_steps_pattern ctx ~tag ~steps ~bytes =
  let p = Machine.nprocs ctx in
  if p > 1 then begin
    let me = Machine.self ctx in
    let nxt = (me + 1) mod p and prv = (me + p - 1) mod p in
    for _ = 1 to steps do
      Machine.send ctx ~dest:nxt ~tag ~bytes ();
      recv_unit ctx ~src:prv ~tag
    done
  end

(* Recursive-doubling allreduce.  Non-power-of-two p: the first 2r ranks
   (r = p - 2^floor(log2 p)) pair up — odds fold into evens before the
   core rounds and read the result back after them. *)
let recdouble_pattern ctx ~tag ~bytes =
  let p = Machine.nprocs ctx in
  if p > 1 then begin
    let me = Machine.self ctx in
    let pow = ref 1 in
    while 2 * !pow <= p do
      pow := 2 * !pow
    done;
    let r = p - !pow in
    if me < 2 * r && me mod 2 = 1 then begin
      Machine.send ctx ~dest:(me - 1) ~tag ~bytes ();
      recv_unit ctx ~src:(me - 1) ~tag
    end
    else begin
      if me < 2 * r then recv_unit ctx ~src:(me + 1) ~tag;
      let cr = if me < 2 * r then me / 2 else me - r in
      let unmap cr = if cr < r then 2 * cr else cr + r in
      let k = ref 1 in
      while !k < !pow do
        let peer = unmap (cr lxor !k) in
        Machine.send ctx ~dest:peer ~tag ~bytes ();
        recv_unit ctx ~src:peer ~tag;
        k := 2 * !k
      done;
      if me < 2 * r then Machine.send ctx ~dest:(me + 1) ~tag ~bytes ()
    end
  end

(* Bruck allgather: round k ships min(2^k, p - 2^k) items 2^k ranks away;
   ceil(log2 p) rounds reach everyone for any p. *)
let bruck_allgather_pattern ctx ~tag ~bytes =
  let p = Machine.nprocs ctx in
  let me = Machine.self ctx in
  let k = ref 1 in
  while !k < p do
    let blocks = min !k (p - !k) in
    Machine.send ctx
      ~dest:((me + p - !k) mod p)
      ~tag ~bytes:(blocks * bytes) ();
    recv_unit ctx ~src:((me + !k) mod p) ~tag;
    k := 2 * !k
  done

(* Dissemination barrier: round k signals me+2^k and waits on me-2^k;
   after ceil(log2 p) rounds every rank transitively depends on all. *)
let dissemination_pattern ctx ~tag =
  let p = Machine.nprocs ctx in
  let me = Machine.self ctx in
  let k = ref 1 in
  while !k < p do
    Machine.send ctx ~dest:((me + !k) mod p) ~tag ~bytes:0 ();
    recv_unit ctx ~src:((me + p - !k) mod p) ~tag;
    k := 2 * !k
  done

(* Binomial (Hillis-Steele) scan: round k forwards to me+2^k, waits on
   me-2^k — ceil(log2 p) rounds instead of the linear chain's p-1. *)
let binomial_scan_pattern ctx ~tag ~bytes =
  let p = Machine.nprocs ctx in
  let me = Machine.self ctx in
  let k = ref 1 in
  while !k < p do
    if me + !k < p then Machine.send ctx ~dest:(me + !k) ~tag ~bytes ();
    if me - !k >= 0 then recv_unit ctx ~src:(me - !k) ~tag;
    k := 2 * !k
  done

(* ------------------------------------------------------------------ *)
(* Algorithm-selecting front ends                                       *)

let choose ctx kind ~sel_bytes =
  let net = Machine.coll_net ctx in
  match Machine.coll_mode ctx with
  | Coll_alg.Auto -> Coll_alg.select net kind ~bytes:sel_bytes
  | Coll_alg.Force a -> Coll_alg.force net kind ~bytes:sel_bytes a
  | Coll_alg.Legacy -> invalid_arg "Collectives.choose: Legacy mode"

(* Label, stats, span: every selecting-mode collective runs inside a span
   named "kind[algorithm]" (visible in --profile and Chrome traces) and
   bumps the Stats collective counters. *)
let selected ctx kind alg ~bytes f =
  let name = Coll_alg.kind_name kind ^ "[" ^ Coll_alg.alg_name alg ^ "]" in
  Machine.record_collective ctx ~name ~bytes;
  spanned ctx name f

let sel_bcast ctx ~tag ~root ~bytes v =
  let me = Machine.self ctx in
  let cell = cell_for ctx ~bytes in
  if me = root then cell.slots.(0) <- Some v;
  let b = cell.sel_bytes in
  let alg = choose ctx Coll_alg.Bcast ~sel_bytes:b in
  selected ctx Coll_alg.Bcast alg ~bytes:b @@ fun () ->
  (match alg with
   | Coll_alg.Pipeline -> pipeline_bcast_pattern ctx ~tag ~root ~bytes:b
   | Coll_alg.Vandegeijn -> vandegeijn_bcast_pattern ctx ~tag ~root ~bytes:b
   | _ -> tree_bcast ctx ~tag ~root ~bytes:b ());
  slot cell 0

let deposits cell = Array.init (Array.length cell.slots) (slot cell)

let sel_allreduce ctx ~tag ~bytes f v =
  let me = Machine.self ctx in
  let p = Machine.nprocs ctx in
  let cell = cell_for ctx ~bytes in
  cell.slots.(me) <- Some v;
  let b = cell.sel_bytes in
  let alg = choose ctx Coll_alg.Allreduce ~sel_bytes:b in
  selected ctx Coll_alg.Allreduce alg ~bytes:b @@ fun () ->
  (match alg with
   | Coll_alg.Recdouble -> recdouble_pattern ctx ~tag ~bytes:b
   | Coll_alg.Ring ->
       ring_steps_pattern ctx ~tag ~steps:(2 * (p - 1))
         ~bytes:(max 1 ((b + p - 1) / p))
   | _ ->
       tree_reduce ctx ~tag ~root:0 ~bytes:b unit_op ();
       tree_bcast ctx ~tag ~root:0 ~bytes:b ());
  tree_combine f (deposits cell)

let sel_barrier ctx ~tag =
  let alg = choose ctx Coll_alg.Barrier ~sel_bytes:0 in
  selected ctx Coll_alg.Barrier alg ~bytes:0 @@ fun () ->
  match alg with
  | Coll_alg.Dissemination -> dissemination_pattern ctx ~tag
  | _ ->
      tree_reduce ctx ~tag ~root:0 ~bytes:0 unit_op ();
      tree_bcast ctx ~tag ~root:0 ~bytes:0 ()

let sel_scan ctx ~tag ~bytes f v =
  let me = Machine.self ctx in
  let cell = cell_for ctx ~bytes in
  cell.slots.(me) <- Some v;
  let b = cell.sel_bytes in
  let alg = choose ctx Coll_alg.Scan ~sel_bytes:b in
  selected ctx Coll_alg.Scan alg ~bytes:b @@ fun () ->
  (match alg with
   | Coll_alg.Linear -> linear_scan ctx ~tag ~bytes:b unit_op ()
   | _ -> binomial_scan_pattern ctx ~tag ~bytes:b);
  (* the legacy chain's left-fold bracketing: f (.. (f v0 v1) ..) vme *)
  let acc = ref (slot cell 0) in
  for i = 1 to me do
    acc := f !acc (slot cell i)
  done;
  !acc

let sel_allgather ctx ~tag ~bytes v =
  let me = Machine.self ctx in
  let p = Machine.nprocs ctx in
  let cell = cell_for ctx ~bytes in
  cell.slots.(me) <- Some v;
  let b = cell.sel_bytes in
  let alg = choose ctx Coll_alg.Allgather ~sel_bytes:b in
  selected ctx Coll_alg.Allgather alg ~bytes:b @@ fun () ->
  (match alg with
   | Coll_alg.Ring -> ring_steps_pattern ctx ~tag ~steps:(p - 1) ~bytes:b
   | _ -> bruck_allgather_pattern ctx ~tag ~bytes:b);
  Array.init p (slot cell)

(* ------------------------------------------------------------------ *)
(* Public API: the only code that branches on the collective mode        *)

let legacy ctx =
  match Machine.coll_mode ctx with
  | Coll_alg.Legacy -> true
  | Coll_alg.Auto | Coll_alg.Force _ -> false

let bcast ctx ~tag ~root ~bytes v =
  if legacy ctx then legacy_bcast ctx ~tag ~root ~bytes v
  else sel_bcast ctx ~tag ~root ~bytes v

let allreduce ctx ~tag ~bytes f v =
  if legacy ctx then legacy_allreduce ctx ~tag ~bytes f v
  else sel_allreduce ctx ~tag ~bytes f v

let barrier ctx ~tag =
  if legacy ctx then legacy_barrier ctx ~tag else sel_barrier ctx ~tag

let scan ctx ~tag ~bytes f v =
  if legacy ctx then
    spanned ctx "scan" @@ fun () -> linear_scan ctx ~tag ~bytes f v
  else sel_scan ctx ~tag ~bytes f v

(* Legacy: the seed's gather to rank 0, then its broadcast of [total]
   bytes, the wire size of what the caller assembles from the values.
   The broadcast travels by reference, so each rank copies it into a
   private array. *)
let allgather ?total ctx ~tag ~bytes v =
  if legacy ctx then begin
    let total = Option.value total ~default:(Machine.nprocs ctx * bytes) in
    let arr =
      match legacy_gather_to ctx ~tag ~root:0 ~bytes v with
      | Some a -> a
      | None -> [||]
    in
    Array.copy (legacy_bcast ctx ~tag ~root:0 ~bytes:total arr)
  end
  else sel_allgather ctx ~tag ~bytes v

let ring_shift ctx ~tag ~bytes ~dest ~src v =
  if dest = Machine.self ctx && src = Machine.self ctx then v
  else if legacy ctx then Machine.sendrecv ctx ~dest ~src ~tag ~bytes v
  else begin
    Machine.record_collective ctx ~name:"ring_shift[pairwise]" ~bytes;
    spanned ctx "ring_shift[pairwise]" @@ fun () ->
    Machine.sendrecv ctx ~dest ~src ~tag ~bytes v
  end
