(* Native execution backend: Skil ranks on real OCaml 5 domains.

   Where [Machine.run] *simulates* a distributed machine (per-processor
   clocks advanced by the cost model, fibers interleaved deterministically),
   this engine *is* one: ranks are grouped into contiguous blocks, each
   block's fibers run on whichever domain currently drives the block, and
   messages travel through shared memory at hardware speed.  There is no
   simulated clock and no cost charging on the hot path — a run reports
   wall-clock time plus the usual [Stats] message counters, and the
   simulator remains the makespan oracle.

   Transport: the simulator's.  Blocks are the rank groups of {!Groups},
   which drives them exactly like the simulator's shards, and every rank
   has one {!Mailbox}.  A send to a rank of the sender's block adds to the
   receiver's mailbox at once, waking the receiver if it is parked on that
   stream; a send to another block is a delivery {!Groups.post}ed to the
   receiver's block.  Every receive names its source, so each is a
   Kahn-network read: deterministic whatever the domain interleaving, and
   the values a program computes are the simulator's. *)

type rank = {
  id : int;
  mbox : Obj.t Mailbox.t; (* touched only by the domain driving the block *)
  nstats : Stats.proc; (* this rank's entry in [Groups.stats] *)
  gid : int; (* the block (rank group) holding this rank *)
}

type t = {
  groups : Groups.t; (* the run-wide state and block scheduling *)
  ranks : rank array;
  t0 : float;
}

type ctx = { nt : t; r : rank }

let now () = Unix.gettimeofday ()
let clock ctx = now () -. ctx.nt.t0

(* ------------------------------------------------------------------ *)
(* Point-to-point primitives (called from inside fibers)               *)

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
  let dst = nt.ranks.(dest) in
  let src = r.id and v = Obj.repr v in
  if dst.gid = r.gid then Mailbox.add dst.mbox ~src ~tag v
  else
    Groups.post nt.groups dst.gid (fun () -> Mailbox.add dst.mbox ~src ~tag v)

(* Cooperative cancellation is polled at every block step, after every
   park here and (by {!Machine}) at the language engines' per-statement
   flush.  The raise escapes the fiber into {!Groups.run}'s failure path,
   so the whole run winds down exactly like any program exception. *)
let recv ctx ~src ~tag =
  let nt = ctx.nt in
  let r = ctx.r in
  if src < 0 || src >= Array.length nt.ranks then
    invalid_arg "Machine.recv: source out of range";
  let rec obtain () =
    match Mailbox.take r.mbox ~src ~tag with
    | Some v -> v
    | None ->
        let t = now () in
        Mailbox.park r.mbox ~src ~tag;
        r.nstats.Stats.comm_wait <- r.nstats.Stats.comm_wait +. (now () -. t);
        Groups.check_cancel nt.groups;
        obtain ()
  in
  Obj.obj (obtain ())

let describe_wait (r : rank) =
  match Mailbox.waiting r.mbox with
  | Some (s, t) ->
      Printf.sprintf "waiting on recv from p%d, tag %d (native)" s t
  | None -> "blocked (native)"

(* ------------------------------------------------------------------ *)
(* Run                                                                 *)

let run groups f =
  let ranks =
    Array.init (Groups.nranks groups) (fun id ->
        {
          id;
          mbox = Groups.mailbox groups id;
          nstats = Stats.proc (Groups.stats groups) id;
          gid = Groups.group_of groups id;
        })
  in
  let nt = { groups; ranks; t0 = now () } in
  Array.iter
    (fun (r : rank) -> Groups.spawn groups r.id (fun () -> f r.id { nt; r }))
    ranks;
  Groups.run groups ~describe:(fun id -> describe_wait ranks.(id));
  now () -. nt.t0
