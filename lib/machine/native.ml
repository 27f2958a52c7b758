(* Native execution backend: Skil ranks on real OCaml 5 domains.

   Where [Machine.run] *simulates* a distributed machine (per-processor
   clocks advanced by the cost model, fibers interleaved deterministically),
   this engine *is* one: ranks are grouped into contiguous blocks, each
   block's fibers run on whichever domain currently drives the block, and
   messages travel through shared memory at hardware speed.  There is no
   simulated clock and no cost charging on the hot path — a run reports
   wall-clock time plus the usual [Stats] message counters, and the
   simulator remains the makespan oracle.

   Transport.  Every (src, dst) pair owns a bounded single-producer/
   single-consumer ring buffer.  The producer publishes a slot with a plain
   write followed by an [Atomic.set] of the tail (release); the consumer
   acquires the tail before reading the slot, which is exactly the OCaml 5
   memory-model publication idiom — the payload's own memory is published
   by the same edge.  Only the destination block's driver (one domain at a
   time, enforced by the block status word) pops a ring, draining messages
   into per-(src, tag) FIFO buckets private to the receiving rank, so an
   exact [recv] is a Kahn-network read: deterministic whatever the domain
   interleaving.  [recv_any] is the one nondeterministic primitive: it
   takes the queued message with the smallest (wall-clock arrival, source
   rank, per-link sequence) key, mirroring the simulator's
   earliest-arrival-then-lowest-source rule but on real time.

   Scheduling.  Blocks are claimed and driven exactly like PDES shards
   ([Machine.run_sharded]): a status word (idle / ready / running /
   running+repost / done) makes wake-ups race-free, the calling domain
   always drives, and {!Pool} crew workers claim ready blocks through a
   registered work source — the native engine never spawns domains of its
   own.  A drive runs the block's fibers until they all park, delivers
   pending messages, wakes any fiber whose wait is now satisfiable, and
   releases the block.  When every block is idle at once the coordinator
   re-examines all parked waits under the queue lock; a wait no message can
   ever satisfy raises {!Stalled}, like the simulator's quiescence check.

   Full rings.  A sender finding its ring full parks (fiber-level, the
   domain keeps driving siblings) until the consumer pops; sends to a rank
   whose program body already returned are dropped, matching the
   sequential machine's messages-left-queued-unread semantics. *)

type msg = {
  tag : int;
  src : int;
  seq : int; (* per-(src, dst) link sequence, for the recv_any order *)
  arrival : float; (* wall-clock enqueue stamp *)
  payload : Obj.t;
}

(* SPSC bounded ring; [cap] is a power of two.  [head] is advanced only by
   the consumer, [tail] only by the producer. *)
type ring = {
  rcap : int;
  slots : msg option array;
  head : int Atomic.t;
  tail : int Atomic.t;
}

let ring_create cap =
  let rec pow2 k = if k >= cap then k else pow2 (2 * k) in
  let rcap = pow2 1 in
  {
    rcap;
    slots = Array.make rcap None;
    head = Atomic.make 0;
    tail = Atomic.make 0;
  }

let ring_try_push r m =
  let t = Atomic.get r.tail in
  if t - Atomic.get r.head >= r.rcap then false
  else begin
    r.slots.(t land (r.rcap - 1)) <- Some m;
    Atomic.set r.tail (t + 1);
    true
  end

let ring_pop r =
  let h = Atomic.get r.head in
  if h >= Atomic.get r.tail then None
  else begin
    let i = h land (r.rcap - 1) in
    let m = r.slots.(i) in
    r.slots.(i) <- None;
    Atomic.set r.head (h + 1);
    m
  end

let ring_has_space r = Atomic.get r.tail - Atomic.get r.head < r.rcap
let ring_is_empty r = Atomic.get r.head >= Atomic.get r.tail

type waitn =
  | Nexact of int * int (* recv ~src ~tag *)
  | Nany of int (* recv_any ~tag *)
  | Nspace of int (* send parked on a full ring to dest *)

type rank = {
  id : int;
  mailbox : (int * int, msg Queue.t) Hashtbl.t;
      (* (src, tag) buckets; touched only by the domain driving the block *)
  nstats : Stats.proc;
  mutable nwaiting : waitn option;
  mutable nfid : int;
  mutable nfinished : bool; (* program body returned (monotone) *)
  mutable ncoll : int; (* collective call sites reached *)
}

(* Block statuses: 0 idle, 1 ready (queued), 2 running, 3 running with a
   wake-up pending (re-drive before release), 4 done. *)
type group = {
  gid : int;
  gsched : Scheduler.t;
  members : rank array;
  gstatus : int Atomic.t;
}

type coord = {
  qmx : Mutex.t;
  qcv : Condition.t;
  readyq : int Queue.t;
  mutable ndone : int;
  mutable failure : (exn * Printexc.raw_backtrace) option;
}

type t = {
  ntopo : Topology.t;
  ncost : Cost_model.t;
  nranks : int;
  ranks : rank array;
  rings : ring array array; (* rings.(dst).(src) *)
  seqs : int array array; (* seqs.(src).(dst), touched only by src *)
  groups : group array;
  group_of : int array;
  coordn : coord;
  coll_mx : Mutex.t;
  coll_tbl : (int, Obj.t * int ref) Hashtbl.t;
  mutable next_tag : int; (* guarded by coll_mx *)
  space_waiters : int Atomic.t; (* senders parked on a full ring *)
  abort : bool Atomic.t;
  have_workers : bool;
  ncancel : unit -> bool;
  ncancel_on : bool; (* a cancel callback was given; keeps the fault-free
                        hot path at one dead branch per poll site *)
  nmode : Coll_alg.mode;
  nlegacy : bool;
  nnet : Coll_alg.net option;
  t0 : float;
}

type ctx = { nt : t; r : rank; g : group }

type 'r nresult = { nvalues : 'r array; wall : float; nstats : Stats.t }

exception Stalled of (int * string) list
exception Cancelled

let now () = Unix.gettimeofday ()

(* Cooperative cancellation: polled at every block drive, at every park/
   retry loop of the communication primitives, and (through
   {!poll_cancel}) at the language engines' per-statement flush.  The
   raise escapes the fiber (or the driver) into [exec_group]'s failure
   path, so the whole run winds down exactly like any program
   exception. *)
let check_cancel nt = if nt.ncancel_on && nt.ncancel () then raise Cancelled
let poll_cancel ctx = check_cancel ctx.nt

(* ------------------------------------------------------------------ *)
(* Context accessors (the Machine dispatch layer's native arms)        *)

let self ctx = ctx.r.id
let nprocs ctx = ctx.nt.nranks
let topology ctx = ctx.nt.ntopo
let cost ctx = ctx.nt.ncost
let profile ctx = ctx.nt.ncost.Cost_model.profile
let clock ctx = now () -. ctx.nt.t0
let coll_mode ctx = ctx.nt.nmode
let coll_legacy ctx = ctx.nt.nlegacy

let coll_net ctx =
  match ctx.nt.nnet with
  | Some n -> n
  | None -> invalid_arg "Machine.coll_net: Legacy collectives mode"

let record_collective ctx ~name ~bytes =
  Stats.count_collective ctx.r.nstats ~name ~bytes

let charge_skeleton_call ctx =
  ctx.r.nstats.Stats.skeleton_calls <- ctx.r.nstats.Stats.skeleton_calls + 1

(* ------------------------------------------------------------------ *)
(* Wake-up plumbing                                                    *)

let enqueue_ready nt g =
  let c = nt.coordn in
  Mutex.lock c.qmx;
  Queue.add g.gid c.readyq;
  Condition.broadcast c.qcv;
  Mutex.unlock c.qmx;
  if nt.have_workers then Pool.kick ()

(* Mark [g] as having deliverable work: queue it if idle, flag a re-drive
   if running.  Ready/done blocks need nothing. *)
let rec wake_group nt g =
  match Atomic.get g.gstatus with
  | 0 ->
      if Atomic.compare_and_set g.gstatus 0 1 then enqueue_ready nt g
      else wake_group nt g
  | 2 -> if not (Atomic.compare_and_set g.gstatus 2 3) then wake_group nt g
  | _ -> () (* 1 ready, 3 already flagged, 4 done *)

(* ------------------------------------------------------------------ *)
(* Delivery                                                            *)

let mailbox_push (r : rank) m =
  let key = (m.src, m.tag) in
  let q =
    match Hashtbl.find_opt r.mailbox key with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add r.mailbox key q;
        q
  in
  Queue.add m q

(* Pop everything addressed to [r] out of its rings into the per-(src, tag)
   buckets.  Runs only on the domain currently driving [r]'s block.  Ranks
   whose body already returned still drain (discarding) so parked senders
   are freed.  Returns true when at least one message moved. *)
let drain nt (r : rank) =
  let moved = ref false in
  let row = nt.rings.(r.id) in
  for src = 0 to nt.nranks - 1 do
    let rg = row.(src) in
    if not (ring_is_empty rg) then begin
      let popped = ref false in
      let rec go () =
        match ring_pop rg with
        | Some m ->
            popped := true;
            if not r.nfinished then mailbox_push r m;
            go ()
        | None -> ()
      in
      go ();
      if !popped then begin
        moved := true;
        (* freed ring space: if any sender is parked on a full ring, let its
           block re-check (cheap check keeps the common case signal-free) *)
        if Atomic.get nt.space_waiters > 0 then
          wake_group nt nt.groups.(nt.group_of.(src))
      end
    end
  done;
  !moved

let bucket_nonempty (r : rank) key =
  match Hashtbl.find_opt r.mailbox key with
  | Some q -> not (Queue.is_empty q)
  | None -> false

let satisfiable nt (r : rank) = function
  | Nexact (src, tag) -> bucket_nonempty r (src, tag)
  | Nany tag ->
      let rec go src =
        src < nt.nranks
        && (bucket_nonempty r (src, tag) || go (src + 1))
      in
      go 0
  | Nspace dest ->
      nt.ranks.(dest).nfinished || ring_has_space nt.rings.(dest).(r.id)

let describe_wait (r : rank) =
  match r.nwaiting with
  | Some (Nexact (s, t)) ->
      Printf.sprintf "waiting on recv from p%d, tag %d (native)" s t
  | Some (Nany t) ->
      Printf.sprintf "waiting on recv from any source, tag %d (native)" t
  | Some (Nspace d) ->
      Printf.sprintf "waiting for channel space to p%d (native)" d
  | None -> "blocked (native)"

(* ------------------------------------------------------------------ *)
(* Point-to-point primitives (called from inside fibers)               *)

let comm_wait_block ctx =
  let t = now () in
  Scheduler.block ctx.g.gsched;
  ctx.r.nstats.Stats.comm_wait <-
    ctx.r.nstats.Stats.comm_wait +. (now () -. t)

let send ctx ?rendezvous:_ ~dest ~tag ~bytes v =
  let nt = ctx.nt in
  let r = ctx.r in
  if dest < 0 || dest >= nt.nranks then
    invalid_arg "Machine.send: destination out of range";
  let st = r.nstats in
  st.Stats.msgs_sent <- st.Stats.msgs_sent + 1;
  st.Stats.bytes_sent <- st.Stats.bytes_sent + bytes;
  st.Stats.hop_bytes <-
    st.Stats.hop_bytes + (bytes * Topology.hops nt.ntopo r.id dest);
  let seq = nt.seqs.(r.id).(dest) in
  nt.seqs.(r.id).(dest) <- seq + 1;
  let m = { tag; src = r.id; seq; arrival = now (); payload = Obj.repr v } in
  if dest = r.id then mailbox_push r m (* self-send: we are the consumer *)
  else begin
    let dst = nt.ranks.(dest) in
    let rg = nt.rings.(dest).(r.id) in
    let cross = nt.group_of.(dest) <> ctx.g.gid in
    let rec put () =
      if dst.nfinished then () (* dropped, like the simulator's unread queue *)
      else if ring_try_push rg m then begin
        if cross then wake_group nt nt.groups.(nt.group_of.(dest))
      end
      else begin
        (* Full ring: publish the space wait, then retry once — a consumer
           pop strictly after the failed retry must see the published
           counter (atomics are SC), so the wake-up cannot be lost. *)
        r.nwaiting <- Some (Nspace dest);
        Atomic.incr nt.space_waiters;
        if ring_try_push rg m then begin
          Atomic.decr nt.space_waiters;
          r.nwaiting <- None;
          if cross then wake_group nt nt.groups.(nt.group_of.(dest))
        end
        else begin
          comm_wait_block ctx;
          Atomic.decr nt.space_waiters;
          r.nwaiting <- None;
          check_cancel nt;
          put ()
        end
      end
    in
    put ()
  end

let mailbox_take (r : rank) key =
  match Hashtbl.find_opt r.mailbox key with
  | Some q when not (Queue.is_empty q) -> Some (Queue.take q)
  | Some _ | None -> None

let recv ctx ~src ~tag =
  let nt = ctx.nt in
  let r = ctx.r in
  if src < 0 || src >= nt.nranks then
    invalid_arg "Machine.recv: source out of range";
  let key = (src, tag) in
  let rec obtain () =
    match mailbox_take r key with
    | Some m -> m
    | None ->
        ignore (drain nt r : bool);
        (match mailbox_take r key with
        | Some m -> m
        | None ->
            r.nwaiting <- Some (Nexact (src, tag));
            comm_wait_block ctx;
            check_cancel nt;
            obtain ())
  in
  let m = obtain () in
  r.nwaiting <- None;
  Obj.obj m.payload

(* Earliest (arrival, src, seq) over the heads of all [tag] buckets; each
   bucket is per-link FIFO so its head already carries the smallest seq. *)
let best_any nt (r : rank) ~tag =
  let best = ref None in
  for src = 0 to nt.nranks - 1 do
    match Hashtbl.find_opt r.mailbox (src, tag) with
    | Some q when not (Queue.is_empty q) ->
        let m = Queue.peek q in
        (match !best with
        | Some (b, _) when b.arrival <= m.arrival -> ()
        | _ -> best := Some (m, q))
    | Some _ | None -> ()
  done;
  !best

let recv_any ctx ~tag =
  let nt = ctx.nt in
  let r = ctx.r in
  let rec obtain () =
    ignore (drain nt r : bool);
    match best_any nt r ~tag with
    | Some (_, q) -> Queue.take q
    | None ->
        r.nwaiting <- Some (Nany tag);
        comm_wait_block ctx;
        check_cancel nt;
        obtain ()
  in
  let m = obtain () in
  r.nwaiting <- None;
  (m.src, Obj.obj m.payload)

let sendrecv ctx ~dest ~src ~tag ~bytes v =
  send ctx ~dest ~tag ~bytes v;
  recv ctx ~src ~tag

(* ------------------------------------------------------------------ *)
(* Collective call sites                                               *)

(* Same deposit-table protocol as the simulator: the first rank to reach
   call site [idx] computes the value, the other [nranks - 1] pick it up.
   [f] is rank-independent and communication-free by the collective
   contract, so running it under the lock is safe. *)
let collective ctx f =
  let nt = ctx.nt in
  let idx = ctx.r.ncoll in
  ctx.r.ncoll <- idx + 1;
  if nt.nranks = 1 then f ()
  else begin
    Mutex.lock nt.coll_mx;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock nt.coll_mx)
      (fun () ->
        match Hashtbl.find_opt nt.coll_tbl idx with
        | Some (v, remaining) ->
            decr remaining;
            if !remaining = 0 then Hashtbl.remove nt.coll_tbl idx;
            Obj.obj v
        | None ->
            let v = f () in
            Hashtbl.add nt.coll_tbl idx (Obj.repr v, ref (nt.nranks - 1));
            v)
  end

let tags ctx n =
  collective ctx (fun () ->
      let t = ctx.nt.next_tag in
      ctx.nt.next_tag <- ctx.nt.next_tag + n;
      t)

(* ------------------------------------------------------------------ *)
(* Block driver                                                        *)

(* Deliver pending messages to [g]'s members and wake every fiber whose
   wait is now satisfiable.  Returns true when at least one fiber woke. *)
let try_unblock nt g =
  let progress = ref false in
  Array.iter
    (fun (r : rank) ->
      ignore (drain nt r : bool);
      if not r.nfinished then
        match r.nwaiting with
        | Some w when satisfiable nt r w ->
            r.nwaiting <- None;
            Scheduler.wake g.gsched r.nfid;
            progress := true
        | Some _ | None -> ())
    g.members;
  !progress

(* Run one claimed block (status 2) until its fibers all park with nothing
   deliverable, or all finish.  The release CAS 2 -> 0 fails exactly when a
   wake-up arrived mid-drive (status 3): re-drive instead of releasing, so
   that wake-up is never lost. *)
let rec drive_group nt gid =
  let g = nt.groups.(gid) in
  let c = nt.coordn in
  check_cancel nt;
  Scheduler.run_until_idle g.gsched;
  if Atomic.get nt.abort then begin
    Atomic.set g.gstatus 0;
    Mutex.lock c.qmx;
    Condition.broadcast c.qcv;
    Mutex.unlock c.qmx
  end
  else if Scheduler.all_finished g.gsched then begin
    (* done and counted in one step under [qmx]: a status-4 block not yet
       in [ndone] would let [maybe_resolve] report a stall with nothing
       blocked *)
    Mutex.lock c.qmx;
    Atomic.set g.gstatus 4;
    c.ndone <- c.ndone + 1;
    Condition.broadcast c.qcv;
    Mutex.unlock c.qmx
  end
  else if try_unblock nt g then drive_group nt gid
  else if Atomic.compare_and_set g.gstatus 2 0 then begin
    (* idle: tell the coordinator so it can run the stall check *)
    Mutex.lock c.qmx;
    Condition.broadcast c.qcv;
    Mutex.unlock c.qmx
  end
  else begin
    Atomic.set g.gstatus 2; (* was 3: a wake-up raced in *)
    drive_group nt gid
  end

let exec_group nt gid =
  try drive_group nt gid
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    let c = nt.coordn in
    Atomic.set nt.abort true;
    Mutex.lock c.qmx;
    Atomic.set nt.groups.(gid).gstatus 4;
    if c.failure = None then c.failure <- Some (e, bt);
    c.ndone <- c.ndone + 1;
    Condition.broadcast c.qcv;
    Mutex.unlock c.qmx;
    if nt.have_workers then Pool.kick ()

let claim nt =
  let c = nt.coordn in
  Mutex.lock c.qmx;
  let r =
    if c.failure <> None then None
    else
      match Queue.take_opt c.readyq with
      | Some gid ->
          Atomic.set nt.groups.(gid).gstatus 2;
          Some gid
      | None -> None
  in
  Mutex.unlock c.qmx;
  r

(* All blocks idle or done, ready queue empty, called with [qmx] held — no
   fiber is running anywhere, so no message is in flight and every rank's
   buckets are quiescent (the owning block's release CAS published them).
   Re-queue any block with a satisfiable wait (a sender parked on a ring
   whose receiver has since finished is the realistic case); if none
   exists the program is stalled for good. *)
let resolve_idle nt =
  let c = nt.coordn in
  let requeued = ref false in
  Array.iter
    (fun g ->
      if Atomic.get g.gstatus = 0 then begin
        let wants =
          Array.exists
            (fun (r : rank) ->
              (not r.nfinished)
              &&
              match r.nwaiting with
              | Some w -> satisfiable nt r w
              | None -> false)
            g.members
        in
        if wants && Atomic.compare_and_set g.gstatus 0 1 then begin
          Queue.add g.gid c.readyq;
          requeued := true
        end
      end)
    nt.groups;
  if !requeued then begin
    Condition.broadcast c.qcv;
    if nt.have_workers then Pool.kick ()
  end
  else begin
    let blocked =
      Array.to_list nt.ranks
      |> List.filter_map (fun (r : rank) ->
             if r.nfinished then None else Some (r.id, describe_wait r))
    in
    c.failure <- Some (Stalled blocked, Printexc.get_callstack 0);
    Atomic.set nt.abort true;
    Condition.broadcast c.qcv;
    if nt.have_workers then Pool.kick ()
  end

(* [qmx] held.  True quiescence: nothing queued, nothing running. *)
let maybe_resolve nt =
  let c = nt.coordn in
  if
    Queue.is_empty c.readyq
    && c.ndone < Array.length nt.groups
    && c.failure = None
    && Array.for_all
         (fun g ->
           let s = Atomic.get g.gstatus in
           s = 0 || s = 4)
         nt.groups
  then resolve_idle nt

(* ------------------------------------------------------------------ *)
(* Run                                                                 *)

let run ?(cost = Cost_model.default) ?(collectives = Coll_alg.Legacy)
    ?(chan_cap = 256) ?domains ?cancel ~topology f =
  let n = Topology.nprocs topology in
  if chan_cap < 1 then invalid_arg "Native.run: chan_cap must be >= 1";
  let ngroups =
    match domains with
    | None -> n
    | Some d ->
        if d < 1 then invalid_arg "Native.run: domains must be >= 1"
        else min d n
  in
  (* Pool crew reuse (never spawn our own domains); the clamp inside
     [ensure_workers] warns once when ranks oversubscribe the host.  The
     logical block count is always honoured — blocks are short-lived work
     items, so more blocks than workers just queue, exactly like PDES
     shards. *)
  let workers = if ngroups > 1 then Pool.ensure_workers (ngroups - 1) else 0 in
  let params = cost.Cost_model.params in
  let cf = cost.Cost_model.profile.Cost_model.comm_factor in
  let ranks =
    Array.init n (fun id ->
        {
          id;
          mailbox = Hashtbl.create 16;
          nstats = Stats.fresh_proc ();
          nwaiting = None;
          nfid = 0;
          nfinished = false;
          ncoll = 0;
        })
  in
  let rings =
    Array.init n (fun _dst -> Array.init n (fun _src -> ring_create chan_cap))
  in
  let group_of = Array.make n 0 in
  let base = n / ngroups and rem = n mod ngroups in
  let lo = ref 0 in
  let groups =
    Array.init ngroups (fun gid ->
        let size = base + if gid < rem then 1 else 0 in
        let l = !lo in
        lo := l + size;
        for id = l to l + size - 1 do
          group_of.(id) <- gid
        done;
        {
          gid;
          gsched = Scheduler.create ();
          members = Array.sub ranks l size;
          gstatus = Atomic.make 1 (* ready: queued below *);
        })
  in
  let nt =
    {
      ntopo = topology;
      ncost = cost;
      nranks = n;
      ranks;
      rings;
      seqs = Array.init n (fun _ -> Array.make n 0);
      groups;
      group_of;
      coordn =
        {
          qmx = Mutex.create ();
          qcv = Condition.create ();
          readyq = Queue.create ();
          ndone = 0;
          failure = None;
        };
      coll_mx = Mutex.create ();
      coll_tbl = Hashtbl.create 16;
      next_tag = 0;
      space_waiters = Atomic.make 0;
      abort = Atomic.make false;
      have_workers = workers > 0;
      ncancel = (match cancel with Some f -> f | None -> fun () -> false);
      ncancel_on = cancel <> None;
      nmode = collectives;
      nlegacy = (collectives = Coll_alg.Legacy);
      nnet =
        (if collectives = Coll_alg.Legacy then None
         else
           Some
             (Coll_alg.net_of topology
                ~latency:(cf *. params.Cost_model.msg_latency)
                ~per_hop:(cf *. params.Cost_model.per_hop)
                ~per_byte:(cf *. params.Cost_model.per_byte)
                ~send_ovh:(cf *. params.Cost_model.send_overhead)
                ~recv_ovh:(cf *. params.Cost_model.recv_overhead)));
      t0 = now ();
    }
  in
  let values = Array.make n None in
  Array.iter
    (fun (r : rank) ->
      let g = groups.(group_of.(r.id)) in
      r.nfid <-
        Scheduler.spawn g.gsched (fun () ->
            values.(r.id) <- Some (f { nt; r; g });
            r.nfinished <- true))
    ranks;
  Array.iter
    (fun g ->
      Scheduler.set_describer g.gsched (fun fid ->
          match
            Array.find_opt (fun (r : rank) -> r.nfid = fid) g.members
          with
          | Some r -> Some (describe_wait r)
          | None -> None))
    groups;
  let c = nt.coordn in
  Array.iter (fun g -> Queue.add g.gid c.readyq) groups;
  let source =
    if workers > 0 then
      Some
        (Pool.register_source ~poll:(fun () ->
             match claim nt with
             | Some gid -> Some (fun () -> exec_group nt gid)
             | None -> None))
    else None
  in
  let rec drive () =
    match claim nt with
    | Some gid ->
        exec_group nt gid;
        drive ()
    | None ->
        Mutex.lock c.qmx;
        let done_ = c.ndone >= ngroups || c.failure <> None in
        if not done_ then begin
          maybe_resolve nt;
          let done2 = c.ndone >= ngroups || c.failure <> None in
          if (not done2) && Queue.is_empty c.readyq then
            Condition.wait c.qcv c.qmx
        end;
        Mutex.unlock c.qmx;
        if not done_ then drive ()
  in
  drive ();
  (* On abort, workers may still be inside a drive; wait for every block to
     reach a resting state before reading cross-domain results. *)
  Mutex.lock c.qmx;
  let rec settle () =
    if
      Array.exists
        (fun g ->
          let s = Atomic.get g.gstatus in
          s = 2 || s = 3)
        nt.groups
    then begin
      Condition.wait c.qcv c.qmx;
      settle ()
    end
  in
  settle ();
  Mutex.unlock c.qmx;
  (match source with Some s -> Pool.unregister_source s | None -> ());
  let wall = now () -. nt.t0 in
  (match c.failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  let stats =
    {
      Stats.procs = Array.map (fun (r : rank) -> r.nstats) ranks;
      makespan = wall;
    }
  in
  let nvalues =
    Array.map
      (function Some v -> v | None -> failwith "Native.run: missing result")
      values
  in
  { nvalues; wall; nstats = stats }
