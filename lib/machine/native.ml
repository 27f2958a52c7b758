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
   into per-(src, tag) FIFO buckets private to the receiving rank.  Every
   receive names its source, so each is a Kahn-network read: deterministic
   whatever the domain interleaving, and the values a program computes
   are the simulator's.

   Scheduling.  Blocks are the rank groups of {!Groups}, which drives them
   exactly like the simulator's PDES shards — the native engine never
   spawns domains of its own.  A step runs the block's fibers until they
   all park, delivers pending messages, and wakes any fiber whose wait is
   now satisfiable (asking the driver to step the block again).  When
   every block is idle at once, [quiesce] re-examines all parked waits and
   re-queues the blocks that can move: a sender parked on the full ring of
   a rank whose body has returned is released only there, since a finished
   block never steps again.  A wait no message can ever satisfy raises
   [Groups.Stalled], like the simulator's quiescence check.  The
   run-wide state (topology, counters, cancel hook, collective deposits)
   is the [Groups.t] both engines share.

   Full rings.  A sender finding its ring full parks (fiber-level, the
   domain keeps driving siblings) until the consumer pops; sends to a rank
   whose program body already returned are dropped, matching the
   simulator's messages-left-queued-unread semantics. *)

type msg = { tag : int; src : int; payload : Obj.t }

(* SPSC bounded ring; [cap] is a power of two.  [head] is advanced only by
   the consumer, [tail] only by the producer.  Most of the n * n rings of a
   run never carry a message, so [slots] is allocated by the first push,
   before the [Atomic.set] of [tail] that publishes the message: a
   consumer reads [slots] only after it has read a [tail] beyond [head],
   so the same release/acquire edge publishes the array. *)
type ring = {
  rcap : int;
  mutable slots : msg option array;
  head : int Atomic.t;
  tail : int Atomic.t;
}

let ring_create cap =
  let rec pow2 k = if k >= cap then k else pow2 (2 * k) in
  { rcap = pow2 1; slots = [||]; head = Atomic.make 0; tail = Atomic.make 0 }

let ring_try_push r m =
  let t = Atomic.get r.tail in
  if t - Atomic.get r.head >= r.rcap then false
  else begin
    if Array.length r.slots = 0 then r.slots <- Array.make r.rcap None;
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
  | Nspace of int (* send parked on a full ring to dest *)

type rank = {
  id : int;
  mailbox : (int * int, msg Queue.t) Hashtbl.t;
      (* (src, tag) buckets; touched only by the domain driving the block *)
  nstats : Stats.proc; (* this rank's entry in [Groups.stats] *)
  mutable nwaiting : waitn option;
  mutable nfid : int;
  mutable nfinished : bool; (* program body returned (monotone) *)
  gid : int; (* the block (rank group) holding this rank *)
}

type t = {
  groups : Groups.t; (* the run-wide state and block scheduling *)
  ranks : rank array;
  rings : ring array array; (* rings.(dst).(src) *)
  space_waiters : int Atomic.t; (* senders parked on a full ring *)
  t0 : float;
}

type ctx = { nt : t; r : rank }

let now () = Unix.gettimeofday ()
let clock ctx = now () -. ctx.nt.t0

(* Cooperative cancellation is polled at every block step and at every
   park/retry loop of the communication primitives (and, by {!Machine},
   at the language engines' per-statement flush).  The raise escapes the
   fiber (or the step) into {!Groups.run}'s failure path, so the whole run
   winds down exactly like any program exception. *)
let check_cancel nt = Groups.check_cancel nt.groups

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
   are freed. *)
let drain nt (r : rank) =
  let row = nt.rings.(r.id) in
  for src = 0 to Array.length row - 1 do
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
        (* freed ring space: if any sender is parked on a full ring, let its
           block re-check (cheap check keeps the common case signal-free) *)
        if Atomic.get nt.space_waiters > 0 then
          Groups.wake nt.groups nt.ranks.(src).gid
      end
    end
  done

let bucket_nonempty (r : rank) key =
  match Hashtbl.find_opt r.mailbox key with
  | Some q -> not (Queue.is_empty q)
  | None -> false

let satisfiable nt (r : rank) = function
  | Nexact (src, tag) -> bucket_nonempty r (src, tag)
  | Nspace dest ->
      nt.ranks.(dest).nfinished || ring_has_space nt.rings.(dest).(r.id)

let describe_wait (r : rank) =
  match r.nwaiting with
  | Some (Nexact (s, t)) ->
      Printf.sprintf "waiting on recv from p%d, tag %d (native)" s t
  | Some (Nspace d) ->
      Printf.sprintf "waiting for channel space to p%d (native)" d
  | None -> "blocked (native)"

(* ------------------------------------------------------------------ *)
(* Point-to-point primitives (called from inside fibers)               *)

let comm_wait_block ctx =
  let t = now () in
  Scheduler.block (Groups.sched ctx.nt.groups ctx.r.gid);
  ctx.r.nstats.Stats.comm_wait <-
    ctx.r.nstats.Stats.comm_wait +. (now () -. t)

let send ctx ?rendezvous:_ ~dest ~tag ~bytes v =
  let nt = ctx.nt in
  let r = ctx.r in
  if dest < 0 || dest >= Array.length nt.ranks then
    invalid_arg "Machine.send: destination out of range";
  let st = r.nstats in
  st.Stats.msgs_sent <- st.Stats.msgs_sent + 1;
  st.Stats.bytes_sent <- st.Stats.bytes_sent + bytes;
  st.Stats.hop_bytes <-
    st.Stats.hop_bytes
    + (bytes * Topology.hops (Groups.topology nt.groups) r.id dest);
  let m = { tag; src = r.id; payload = Obj.repr v } in
  if dest = r.id then mailbox_push r m (* self-send: we are the consumer *)
  else begin
    let dst = nt.ranks.(dest) in
    let rg = nt.rings.(dest).(r.id) in
    let cross = dst.gid <> r.gid in
    let rec put () =
      if dst.nfinished then () (* dropped, like the simulator's unread queue *)
      else if ring_try_push rg m then begin
        if cross then Groups.wake nt.groups dst.gid
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
          if cross then Groups.wake nt.groups dst.gid
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
  if src < 0 || src >= Array.length nt.ranks then
    invalid_arg "Machine.recv: source out of range";
  let key = (src, tag) in
  let rec obtain () =
    match mailbox_take r key with
    | Some m -> m
    | None ->
        drain nt r;
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

(* ------------------------------------------------------------------ *)
(* Block steps and quiescence, the callbacks to {!Groups.run}          *)

let waits_satisfiably nt (r : rank) =
  (not r.nfinished)
  && match r.nwaiting with Some w -> satisfiable nt r w | None -> false

(* Run the block's fibers until they all park or finish; then deliver
   pending messages to its members and wake every fiber whose wait is now
   satisfiable, asking the driver to step the block again if any woke. *)
let step nt gid =
  check_cancel nt;
  let sched = Groups.sched nt.groups gid in
  Scheduler.run_until_idle sched;
  Scheduler.all_finished sched
  ||
  let first, size = Groups.span nt.groups gid in
  let woke = ref false in
  for id = first to first + size - 1 do
    let r = nt.ranks.(id) in
    drain nt r;
    if waits_satisfiably nt r then begin
      r.nwaiting <- None;
      Scheduler.wake sched r.nfid;
      woke := true
    end
  done;
  if !woke then Groups.wake nt.groups gid;
  false

(* Every block idle or done: no fiber runs anywhere, so no message is in
   flight and every rank's buckets are quiescent (the owning block's
   release published them).  Re-queue each block with a satisfiable wait:
   a sender parked on the full ring of a rank, in another block, whose
   body has since returned.  That block has finished and never steps
   again, so nothing else wakes the sender.  If no wait is satisfiable the
   program is stalled for good. *)
let quiesce nt () =
  let movable = List.filter (waits_satisfiably nt) (Array.to_list nt.ranks) in
  if movable = [] then
    raise
      (Groups.Stalled
         (Array.to_list nt.ranks
         |> List.filter_map (fun (r : rank) ->
                if r.nfinished then None else Some (r.id, describe_wait r))));
  List.iter (fun (r : rank) -> Groups.wake nt.groups r.gid) movable

(* ------------------------------------------------------------------ *)
(* Run                                                                 *)

let run groups ~chan_cap f =
  let n = Groups.nranks groups in
  let ranks =
    Array.init n (fun id ->
        {
          id;
          mailbox = Hashtbl.create 16;
          nstats = Stats.proc (Groups.stats groups) id;
          nwaiting = None;
          nfid = 0;
          nfinished = false;
          gid = Groups.group_of groups id;
        })
  in
  let rings =
    Array.init n (fun _dst -> Array.init n (fun _src -> ring_create chan_cap))
  in
  let nt =
    {
      groups;
      ranks;
      rings;
      space_waiters = Atomic.make 0;
      t0 = now ();
    }
  in
  Array.iter
    (fun (r : rank) ->
      r.nfid <-
        Scheduler.spawn (Groups.sched groups r.gid) (fun () ->
            f r.id { nt; r };
            r.nfinished <- true))
    ranks;
  Groups.run groups ~step:(step nt) ~quiesce:(quiesce nt);
  now () -. nt.t0
