type delivery = Clean | Corrupted | Duplicate

type message = {
  arrival : float;
  payload : Obj.t;
  tmsg : Trace.message option; (* trace record, completed on delivery *)
  seq : int; (* per-(src,dst) sequence number; 0 on the fault-free path *)
  delivery : delivery;
}

(* A processor's simulated clock and its charged compute time.  A
   float-only record stores its fields unboxed, so advancing the clock
   allocates nothing, where a float field of the mixed [proc] record would
   box on every write.  [busy] is published into [Stats.compute_time] when
   the run ends. *)
type times = { mutable clock : float; mutable busy : float }

type proc = {
  id : int;
  tm : times;
  mbox : message Mailbox.t;
  mutable span_stack : Trace.span list; (* open trace spans, innermost first *)
  stats : Stats.proc;
  (* fault state — allocated/nonempty only when a plan or reliable mode is
     active, untouched on the fault-free path *)
  next_seq : int array; (* per-destination sequence counters; [||] when off *)
  seen : (int * int, unit) Hashtbl.t; (* (src, seq) dedup under Reliable *)
  mutable pending_stalls : Fault.stall list; (* sorted by stall_at *)
  mutable pending_crashes : float list; (* sorted crash times *)
  shard : int; (* the rank group (shard or native block) holding it *)
}

(* ------------------------------------------------------------------ *)
(* Rank groups (--sim-domains, and the native engine's blocks).

   The processors are partitioned into contiguous-rank groups of
   {!Groups}, which drives them; [--sim-domains 1] is one group holding
   every processor, and a native run defaults to one rank per group.
   Every receive names its source and per-(src, tag) streams are FIFO, so
   a run is a Kahn network: each receive is deterministic whatever the
   group interleaving, and groups run their fibers freely, blocking only
   on actual data dependencies.  A send to another group is a delivery
   {!Groups.post}ed to the destination group, whose driver adds the
   message to the receiver's mailbox before its next step.  Simulated
   clocks are per-processor state computed from message arrival times,
   never from wall time, so results are bit-identical for every group
   count. *)

type t = {
  procs : proc array;
  groups : Groups.t;
      (* the group driver, the cancel hook and the collective call sites *)
  topology : Topology.t;
  profile : Cost_model.profile;
  coll_mode : Coll_alg.mode;
  coll_net : Coll_alg.net option; (* Some iff [coll_mode] is not Legacy *)
  stats : Stats.t; (* every rank's counters; makespan set when the run ends *)
  timed : bool;
      (* false on the native engine: no clock is read or advanced, and
         [t0] is the wall-clock start its run time is measured from *)
  t0 : float;
  trace : Trace.t;
  trace_on : bool; (* cached Trace.enabled: skips the call (and the float
                      boxing of its arguments) on every clock advance *)
  (* communication coefficients with the profile's comm_factor pre-applied,
     hoisted out of the per-message path *)
  c_send_overhead : float;
  c_recv_overhead : float;
  c_latency : float;
  c_per_hop : float;
  c_per_byte : float;
  sync_comm : bool;
  c_scalar_factor : float;
      (* the profile's Scalar factor, hoisted out of the per-statement
         flush path of the language engines *)
  (* fault-injection state, all gated behind the cached booleans below so the
     fault-free hot path pays one dead branch per send/recv/compute *)
  fplan : Fault.plan; (* Fault.none when no plan was given *)
  faults_on : bool; (* a plan was given *)
  reliable : bool; (* Reliable transport mode *)
  rto_fixed : float; (* retransmission timeout, bytes-independent part *)
  cancel_on : bool; (* a cancel callback was given; cancel-free runs pay
                       one dead branch per clock advance *)
}

(* One context for both engines.  A native rank is a processor of a run
   whose [timed] is false: it shares the transport, the counters and the
   run-wide state, and the operations below branch only where a clock is
   read or advanced. *)
type ctx = { m : t; p : proc }

type 'r result = {
  values : 'r array;
  time : float;
  stats : Stats.t;
  trace : Trace.t;
}

exception Stalled = Groups.Stalled
exception Cancelled = Groups.Cancelled

let stall_diagnostic blocked =
  let b = Buffer.create 128 in
  Buffer.add_string b
    "machine stalled: no processor is runnable, but these are blocked:\n";
  List.iter
    (fun (id, d) -> Buffer.add_string b (Printf.sprintf "  p%-3d %s\n" id d))
    blocked;
  Buffer.add_string b
    "(a dropped message under --faults without --reliable, or a genuine \
     program deadlock)";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The rank and the run                                                *)

let self ctx = ctx.p.id
let nprocs ctx = Array.length ctx.m.procs
let topology ctx = ctx.m.topology
let coll_mode ctx = ctx.m.coll_mode

let coll_net ctx =
  match ctx.m.coll_net with
  | Some n -> n
  | None -> invalid_arg "Machine.coll_net: Legacy collectives mode"

let record_collective ctx ~name ~bytes =
  Stats.count_collective ctx.p.stats ~name ~bytes

let collective ?root ctx f =
  Groups.collective ?root ctx.m.groups ~rank:ctx.p.id f

let tags ctx n = Groups.tags ctx.m.groups ~rank:ctx.p.id n

(* ------------------------------------------------------------------ *)
(* Clocks and charging                                                 *)

let clock ctx =
  if ctx.m.timed then ctx.p.tm.clock else Unix.gettimeofday () -. ctx.m.t0

let checkpoint_default ctx = ctx.m.faults_on && ctx.m.fplan.Fault.checkpoint

(* An injected transient stall freezes the processor at its first
   clock-advancing action at or after the scheduled time.  Checked (behind
   [faults_on]) at the top of [compute] and [overhead]; receive waits are
   already idle time, so stalling there would be unobservable. *)
let rec apply_stalls ctx =
  match ctx.p.pending_stalls with
  | s :: rest when s.Fault.stall_at <= ctx.p.tm.clock ->
      ctx.p.pending_stalls <- rest;
      if ctx.m.trace_on then begin
        Trace.record ctx.m.trace ~proc:ctx.p.id ~start:ctx.p.tm.clock
          ~duration:s.Fault.stall_for Trace.Stall;
        Trace.record_fault ctx.m.trace ~kind:Trace.Fstall ~proc:ctx.p.id
          ~time:ctx.p.tm.clock ()
      end;
      ctx.p.tm.clock <- ctx.p.tm.clock +. s.Fault.stall_for;
      ctx.p.stats.Stats.stall_time <-
        ctx.p.stats.Stats.stall_time +. s.Fault.stall_for;
      apply_stalls ctx
  | _ -> ()

(* Cooperative cancellation: every simulated-clock advance funnels through
   [compute] or [overhead] (the communication path charges overheads) or
   the language engines' scalar meter, which polls as [compute] does, so
   any running Skil program stays cancellable without touching the
   skeleton layer.  Untimed (native) runs poll here too and charge
   nothing, so a compute-bound native job stays reapable by the service
   watchdog.
   Receivers parked forever are already surfaced by [Stalled]. *)
let[@inline] compute ctx seconds =
  assert (seconds >= 0.0);
  if ctx.m.cancel_on then Groups.check_cancel ctx.m.groups;
  if ctx.m.timed then begin
    if ctx.m.faults_on then apply_stalls ctx;
    if ctx.m.trace_on then
      Trace.record ctx.m.trace ~proc:ctx.p.id ~start:ctx.p.tm.clock
        ~duration:seconds Trace.Compute;
    ctx.p.tm.clock <- ctx.p.tm.clock +. seconds;
    ctx.p.tm.busy <- ctx.p.tm.busy +. seconds
  end

let charge ctx cls ~ops ~base =
  if ops > 0 then begin
    if ctx.m.trace_on then
      (match ctx.p.span_stack with
       | s :: _ -> Trace.span_add_ops s cls ops
       | [] -> ());
    compute ctx
      (float_of_int ops *. base *. Cost_model.factor ctx.m.profile cls)
  end

let overhead ctx seconds =
  if ctx.m.cancel_on then Groups.check_cancel ctx.m.groups;
  if ctx.m.timed then begin
    if ctx.m.faults_on then apply_stalls ctx;
    if ctx.m.trace_on then
      Trace.record ctx.m.trace ~proc:ctx.p.id ~start:ctx.p.tm.clock
        ~duration:seconds Trace.Overhead;
    ctx.p.tm.clock <- ctx.p.tm.clock +. seconds;
    ctx.p.stats.Stats.overhead_time <-
      ctx.p.stats.Stats.overhead_time +. seconds
  end

let charge_copy ctx ~bytes =
  compute ctx (float_of_int bytes *. Calibration.copy_per_byte)

let charge_skeleton_call ctx =
  let st = ctx.p.stats in
  st.Stats.skeleton_calls <- st.Stats.skeleton_calls + 1;
  overhead ctx ctx.m.profile.Cost_model.skeleton_call

(* Plain data, not closures: [Interp.flush_scalar] matches on it at every
   statement, where an indirect call costs measurably.  Tracing records
   span op counts and trace records, and a fault plan applies stalls, so
   those runs keep [charge]. *)
type meter =
  | Clock of {
      tm : times;
      factor : float;
      cancel_on : bool;
      groups : Groups.t;
    }
  | Poll of Groups.t
  | Charge of ctx
  | Idle

let meter ctx =
  let m = ctx.m in
  if not m.timed then if m.cancel_on then Poll m.groups else Idle
  else if m.trace_on || m.faults_on then Charge ctx
  else
    Clock
      {
        tm = ctx.p.tm;
        factor = m.c_scalar_factor;
        cancel_on = m.cancel_on;
        groups = m.groups;
      }

(* Checkpoint-protected region: fail-stop crash recovery.

   [f] must be a local, communication-free computation whose effects are
   confined to state captured by [snapshot]/[restore] (the skeleton layer
   wraps the per-partition loops of map/fold/gen_mult).  When the plan
   schedules a crash on this processor, the first protected region whose end
   clock reaches the crash time loses its work: the snapshot is restored
   (both copies charged through the cost model), the reboot penalty is
   charged, and the region re-executes.  With no crash pending the region
   runs with zero overhead — fault-free runs never snapshot. *)
let protect ctx ~bytes ~snapshot ~restore f =
  let m = ctx.m in
  if (not m.faults_on) || ctx.p.pending_crashes = [] then f ()
  else begin
    let snap = snapshot () in
    charge_copy ctx ~bytes;
    let rec attempt () =
      let r = f () in
      match ctx.p.pending_crashes with
      | tc :: rest when tc <= ctx.p.tm.clock ->
          ctx.p.pending_crashes <- rest;
          if m.trace_on then
            Trace.record_fault m.trace ~kind:Trace.Fcrash ~proc:ctx.p.id
              ~time:ctx.p.tm.clock ();
          ctx.p.stats.Stats.recoveries <- ctx.p.stats.Stats.recoveries + 1;
          overhead ctx m.fplan.Fault.reboot;
          restore snap;
          charge_copy ctx ~bytes;
          attempt ()
      | _ -> r
    in
    attempt ()
  end

(* Span brackets: zero simulated cost, recorded only when tracing. *)
let with_span ctx ~cat name f =
  if not ctx.m.trace_on then f ()
  else begin
    let p = ctx.p in
    p.span_stack <-
      Trace.span_begin ctx.m.trace ~proc:p.id ~cat ~name ~start:p.tm.clock
      :: p.span_stack;
    let r = f () in
    (match p.span_stack with
     | s :: rest ->
         Trace.span_end s ~stop:p.tm.clock;
         p.span_stack <- rest
     | [] -> ());
    r
  end

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)

(* Queue [msg] in [target]'s mailbox: directly within the sender's own
   group, else through {!Groups.post}. *)
let deliver m (sender : proc) (target : proc) ~tag msg =
  let src = sender.id in
  if target.shard = sender.shard then Mailbox.add target.mbox ~src ~tag msg
  else
    Groups.post m.groups target.shard (fun () ->
        Mailbox.add target.mbox ~src ~tag msg)

(* Faulty/reliable send — the cold sibling of [send] below.  Timing here may
   legitimately differ from the plain path (that is the point), but the FIFO
   enqueue discipline is identical: per-(src, tag) queues are consumed in
   enqueue order regardless of arrival times, so retransmission delays never
   reorder message matching and a [Reliable] run computes fault-free values.

   Reliable transport is resolved at send time ("virtual retransmission"):
   because every fault decision is a pure function of
   (seed, src, dst, tag, seq, attempt), the sender can walk the attempt
   sequence — attempt [k] is posted after the capped exponential backoff
   sum of attempts [0..k-1], each retransmission charging send overhead and
   wire bytes — until the first attempt that is neither dropped nor
   corruption-flagged, and enqueue one clean copy with that attempt's
   arrival time.  A hard cap of [max_attempts] forces eventual delivery so
   termination never depends on the plan (an adversarial plan otherwise
   could drop every attempt). *)
let max_attempts = 64

let pow2_backoff ~rto ~cap k =
  (* min(cap, rto * 2^k) without float exponentiation *)
  let rec go v i = if i >= k then v else if v >= cap then cap else go (v *. 2.0) (i + 1) in
  Float.min cap (go rto 0)

let send_faulty ctx ~rendezvous ~dest ~tag ~bytes v =
  let m = ctx.m in
  let plan = m.fplan in
  overhead ctx m.c_send_overhead;
  let src = ctx.p.id in
  let hops = Topology.hops m.topology src dest in
  let transit =
    m.c_latency
    +. (float_of_int hops *. m.c_per_hop)
    +. (float_of_int bytes *. m.c_per_byte)
  in
  let seq = ctx.p.next_seq.(dest) in
  ctx.p.next_seq.(dest) <- seq + 1;
  let target = m.procs.(dest) in
  let st = ctx.p.stats in
  st.Stats.msgs_sent <- st.Stats.msgs_sent + 1;
  st.Stats.bytes_sent <- st.Stats.bytes_sent + bytes;
  st.Stats.hop_bytes <- st.Stats.hop_bytes + (bytes * hops);
  let enqueue ~arrival ~delivery =
    let tmsg =
      if m.trace_on then
        Trace.record_send m.trace ~src ~dst:dest ~tag ~bytes ~hops
          ~sent:ctx.p.tm.clock ~arrival
      else None
    in
    deliver m ctx.p target ~tag
      { arrival; payload = Obj.repr v; tmsg; seq; delivery }
  in
  let record_fault kind =
    if m.trace_on then
      Trace.record_fault m.trace ~kind ~proc:src ~peer:dest ~tag
        ~time:ctx.p.tm.clock ()
  in
  let sender_wait ~arrival =
    if rendezvous || m.sync_comm then begin
      let wait = Float.max 0.0 (arrival -. ctx.p.tm.clock) in
      if m.trace_on then
        Trace.record m.trace ~proc:src ~start:ctx.p.tm.clock ~duration:wait
          Trace.Wait;
      ctx.p.tm.clock <- Float.max ctx.p.tm.clock arrival;
      st.Stats.comm_wait <- st.Stats.comm_wait +. wait
    end
  in
  if m.reliable then begin
    let rto = m.rto_fixed +. (2.0 *. float_of_int bytes *. m.c_per_byte) in
    let cap = 16.0 *. rto in
    let t0 = ctx.p.tm.clock in
    let rec attempt k offset =
      if k >= max_attempts - 1 then (offset, Fault.clean)
      else
        let d =
          if m.faults_on then
            Fault.decision plan ~src ~dst:dest ~tag ~seq ~attempt:k
          else Fault.clean
        in
        if d.Fault.d_drop || d.Fault.d_corrupt then begin
          (* this copy never reaches the receiver intact: the sender times
             out waiting for the ack and retransmits after a backoff *)
          record_fault
            (if d.Fault.d_drop then Trace.Fdrop else Trace.Fcorrupt);
          if d.Fault.d_drop then
            st.Stats.msgs_dropped <- st.Stats.msgs_dropped + 1;
          st.Stats.msgs_retried <- st.Stats.msgs_retried + 1;
          st.Stats.bytes_sent <- st.Stats.bytes_sent + bytes;
          record_fault Trace.Fretry;
          overhead ctx m.c_send_overhead;
          attempt (k + 1) (offset +. pow2_backoff ~rto ~cap k)
        end
        else (offset, d)
    in
    let offset, d = attempt 0 0.0 in
    if d.Fault.d_delay_factor <> 1.0 then record_fault Trace.Fdelay;
    let arrival = t0 +. offset +. (transit *. d.Fault.d_delay_factor) in
    enqueue ~arrival ~delivery:Clean;
    if d.Fault.d_dup then begin
      record_fault Trace.Fdup;
      enqueue ~arrival ~delivery:Duplicate
    end;
    sender_wait ~arrival
  end
  else begin
    (* raw faulty mode: the network's misbehaviour reaches the program *)
    let d = Fault.decision plan ~src ~dst:dest ~tag ~seq ~attempt:0 in
    if d.Fault.d_drop then begin
      st.Stats.msgs_dropped <- st.Stats.msgs_dropped + 1;
      record_fault Trace.Fdrop;
      (* the sender cannot tell: under a rendezvous/synchronous link it
         still waits the nominal transit as if delivery had happened; the
         receiver blocks forever and the run surfaces as [Stalled] *)
      sender_wait ~arrival:(ctx.p.tm.clock +. transit)
    end
    else begin
      if d.Fault.d_delay_factor <> 1.0 then record_fault Trace.Fdelay;
      let arrival = ctx.p.tm.clock +. (transit *. d.Fault.d_delay_factor) in
      let delivery =
        if d.Fault.d_corrupt then begin
          record_fault Trace.Fcorrupt;
          Corrupted
        end
        else Clean
      in
      enqueue ~arrival ~delivery;
      if d.Fault.d_dup then begin
        record_fault Trace.Fdup;
        enqueue ~arrival ~delivery:Duplicate
      end;
      sender_wait ~arrival
    end
  end

let send ctx ?(rendezvous = false) ~dest ~tag ~bytes v =
  let m = ctx.m in
  if dest < 0 || dest >= Array.length m.procs then
    invalid_arg "Machine.send: destination out of range";
  if m.faults_on || m.reliable then
    send_faulty ctx ~rendezvous ~dest ~tag ~bytes v
  else begin
    overhead ctx m.c_send_overhead;
    let hops = Topology.hops m.topology ctx.p.id dest in
    let arrival =
      ctx.p.tm.clock +. m.c_latency
      +. (float_of_int hops *. m.c_per_hop)
      +. (float_of_int bytes *. m.c_per_byte)
    in
    let target = m.procs.(dest) in
    let tmsg =
      if m.trace_on then
        Trace.record_send m.trace ~src:ctx.p.id ~dst:dest ~tag ~bytes ~hops
          ~sent:ctx.p.tm.clock ~arrival
      else None
    in
    deliver m ctx.p target ~tag
      { arrival; payload = Obj.repr v; tmsg; seq = 0; delivery = Clean };
    let st = ctx.p.stats in
    st.Stats.msgs_sent <- st.Stats.msgs_sent + 1;
    st.Stats.bytes_sent <- st.Stats.bytes_sent + bytes;
    st.Stats.hop_bytes <- st.Stats.hop_bytes + (bytes * hops);
    if m.timed && (rendezvous || m.sync_comm) then begin
      (* Rendezvous-style link: the sender is busy until delivery, so no
         communication/computation overlap is possible.  Untimed runs have
         no delivery time to wait for. *)
      let wait = Float.max 0.0 (arrival -. ctx.p.tm.clock) in
      if m.trace_on then
        Trace.record m.trace ~proc:ctx.p.id ~start:ctx.p.tm.clock ~duration:wait
          Trace.Wait;
      ctx.p.tm.clock <- arrival;
      st.Stats.comm_wait <- st.Stats.comm_wait +. wait
    end
  end

let finish_recv ctx msg =
  let m = ctx.m in
  let wait = Float.max 0.0 (msg.arrival -. ctx.p.tm.clock) in
  if m.trace_on then
    Trace.record m.trace ~proc:ctx.p.id ~start:ctx.p.tm.clock ~duration:wait
      Trace.Wait;
  ctx.p.tm.clock <- Float.max ctx.p.tm.clock msg.arrival;
  ctx.p.stats.Stats.comm_wait <- ctx.p.stats.Stats.comm_wait +. wait;
  overhead ctx m.c_recv_overhead;
  match msg.tmsg with
  | Some tm -> Trace.mark_received tm ~time:ctx.p.tm.clock
  | None -> ()

(* Receiver-side dedup under [Reliable]: the transport discards a copy whose
   (src, seq) was already accepted.  Returns true when the copy must be
   skipped.  Discarding is free in simulated time (a NIC-level drop); the
   accepted copy pays the ack below. *)
let dedup_discard ctx ~src msg =
  let key = (src, msg.seq) in
  if Hashtbl.mem ctx.p.seen key then true
  else begin
    Hashtbl.add ctx.p.seen key ();
    false
  end

(* The accepted message is acknowledged: the ack transmission costs the
   receiver one send overhead (ack receipt at the sender is folded into the
   virtual-retransmission timeout model). *)
let charge_ack ctx =
  overhead ctx ctx.m.c_send_overhead;
  ctx.p.stats.Stats.acks_sent <- ctx.p.stats.Stats.acks_sent + 1

(* An untimed receive that parks adds the wall time parked to its wait
   counter and polls the cancel hook, so a native rank stays cancellable
   while it waits. *)
let recv ctx ~src ~tag =
  let m = ctx.m in
  if src < 0 || src >= Array.length m.procs then
    invalid_arg "Machine.recv: source out of range";
  let rec obtain () =
    match Mailbox.take ctx.p.mbox ~src ~tag with
    | Some msg ->
        if m.reliable && dedup_discard ctx ~src msg then obtain () else msg
    | None when m.timed ->
        Mailbox.park ctx.p.mbox ~src ~tag;
        obtain ()
    | None ->
        let t = Unix.gettimeofday () in
        Mailbox.park ctx.p.mbox ~src ~tag;
        let st = ctx.p.stats in
        st.Stats.comm_wait <- st.Stats.comm_wait +. (Unix.gettimeofday () -. t);
        Groups.check_cancel m.groups;
        obtain ()
  in
  let msg = obtain () in
  if m.timed then finish_recv ctx msg;
  if m.reliable then charge_ack ctx;
  Obj.obj msg.payload

let sendrecv ctx ~dest ~src ~tag ~bytes v =
  send ctx ~dest ~tag ~bytes v;
  recv ctx ~src ~tag

let describe_blocked m (p : proc) =
  let at =
    if m.timed then Printf.sprintf "clock %.6f s" p.tm.clock else "native"
  in
  match Mailbox.waiting p.mbox with
  | Some (s, t) -> Printf.sprintf "waiting on recv from p%d, tag %d (%s)" s t at
  | None -> Printf.sprintf "blocked (%s)" at

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)

(* Build the run-wide state and one processor per rank, run [f] as every
   rank's program, and assemble the result both engines return.  A timed
   run's [time] is its makespan (the latest finishing clock); an untimed
   run's is the wall clock, read as soon as every rank has finished. *)
let start ~timed ~trace ~faults ~reliable ~cost ~collectives ~cancel
    ~topology ~ngroups f =
  let n = Topology.nprocs topology in
  let g = Groups.create ~nranks:n ~cancel ~ngroups in
  let stats = Stats.create n in
  let params = cost.Cost_model.params in
  let cf = cost.Cost_model.profile.Cost_model.comm_factor in
  let faults_on = faults <> None in
  let fplan =
    match faults with Some p -> p | None -> Fault.none ~seed:0
  in
  let faulty = faults_on || reliable in
  let c_send_overhead = cf *. params.Cost_model.send_overhead in
  let c_recv_overhead = cf *. params.Cost_model.recv_overhead in
  let c_latency = cf *. params.Cost_model.msg_latency in
  let c_per_hop = cf *. params.Cost_model.per_hop in
  let c_per_byte = cf *. params.Cost_model.per_byte in
  (* retransmission timeout ~ a round trip across the network diameter; the
     per-message bytes term is added at send time *)
  let rto_fixed =
    if reliable then begin
      let diam = ref 0 in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          diam := max !diam (Topology.hops topology i j)
        done
      done;
      2.0 *. (c_latency +. (float_of_int !diam *. c_per_hop))
    end
    else 0.0
  in
  let stalls_for id =
    if not faults_on then []
    else
      List.filter (fun (p, _) -> p = id) fplan.Fault.stalls
      |> List.map snd
      |> List.sort (fun a b -> compare a.Fault.stall_at b.Fault.stall_at)
  in
  let crashes_for id =
    if not faults_on then []
    else
      List.filter (fun (p, _) -> p = id) fplan.Fault.crashes
      |> List.map snd |> List.sort compare
  in
  let procs =
    Array.init n (fun id ->
        {
          id;
          tm = { clock = 0.0; busy = 0.0 };
          mbox = Groups.mailbox g id;
          span_stack = [];
          stats = Stats.proc stats id;
          next_seq = (if faulty then Array.make n 0 else [||]);
          seen = Hashtbl.create (if reliable then 64 else 1);
          pending_stalls = stalls_for id;
          pending_crashes = crashes_for id;
          shard = Groups.group_of g id;
        })
  in
  (* the topology's hop tables (and the Coll_alg predictor tables built
     from them) are published read-only to every domain; pin the
     no-mutation-after-publication contract *)
  let topo_digest = Topology.digest topology in
  let m =
    {
      procs;
      groups = g;
      topology;
      profile = cost.Cost_model.profile;
      coll_mode = collectives;
      coll_net =
        (match collectives with
         | Coll_alg.Legacy -> None
         | Coll_alg.Auto | Coll_alg.Force _ ->
             Some
               (Coll_alg.net_of topology ~latency:c_latency ~per_hop:c_per_hop
                  ~per_byte:c_per_byte ~send_ovh:c_send_overhead
                  ~recv_ovh:c_recv_overhead));
      stats;
      timed;
      t0 = Unix.gettimeofday ();
      trace = Trace.create ~enabled:trace ~nprocs:n;
      trace_on = trace;
      c_send_overhead;
      c_recv_overhead;
      c_latency;
      c_per_hop;
      c_per_byte;
      sync_comm = cost.Cost_model.profile.Cost_model.sync_comm;
      c_scalar_factor =
        Cost_model.factor cost.Cost_model.profile Cost_model.Scalar;
      fplan;
      faults_on;
      reliable;
      rto_fixed;
      cancel_on = Groups.cancellable g;
    }
  in
  let values = Array.make n None in
  Array.iter
    (fun p -> Groups.spawn g p.id (fun () -> values.(p.id) <- Some (f { m; p })))
    procs;
  Groups.run g ~describe:(fun id -> describe_blocked m procs.(id));
  let wall = Unix.gettimeofday () -. m.t0 in
  assert (Topology.digest topology = topo_digest);
  (* on clean completion every group's last step happened before
     [Groups.run] returned, so all member state is visible here *)
  Array.iter (fun (p : proc) -> p.stats.Stats.compute_time <- p.tm.busy) procs;
  let time =
    if timed then Array.fold_left (fun acc p -> Float.max acc p.tm.clock) 0.0 procs
    else wall
  in
  stats.Stats.makespan <- time;
  let values =
    Array.map
      (function Some v -> v | None -> failwith "Machine.run: missing result")
      values
  in
  { values; time; stats; trace = m.trace }

let run ?(cost = Cost_model.default) ?(trace = false) ?faults
    ?(reliable = false) ?(collectives = Coll_alg.Legacy) ?(sim_domains = 1)
    ?cancel ~topology f =
  if sim_domains < 1 then
    invalid_arg "Machine.run: sim_domains must be >= 1";
  start ~timed:true ~trace ~faults ~reliable ~cost ~collectives ~cancel
    ~topology
    ~ngroups:(min sim_domains (Topology.nprocs topology))
    f

(* The block count is always honoured: blocks are short-lived work items,
   so more blocks than {!Pool} workers just queue, exactly like the
   simulator's shards. *)
let run_native ?(cost = Cost_model.default) ?(collectives = Coll_alg.Legacy)
    ?domains ?cancel ~topology f =
  let n = Topology.nprocs topology in
  let ngroups =
    match domains with
    | None -> n
    | Some d when d >= 1 -> min d n
    | Some _ -> invalid_arg "Machine.run_native: domains must be >= 1"
  in
  start ~timed:false ~trace:false ~faults:None ~reliable:false ~cost
    ~collectives ~cancel ~topology ~ngroups f
