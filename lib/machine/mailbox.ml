(* Per-source channel: a small tag-bucketed vector of FIFO queues.  At any
   moment only a handful of tags are live between a pair of ranks, so a
   linear scan beats a hashtable — and avoids allocating a boxed (src, tag)
   key per message, which dominated the send/recv hot path. *)
type 'm chan = {
  mutable tags : int array;
  mutable queues : 'm Queue.t array;
  mutable nbuckets : int;
}

type 'm t = {
  chans : 'm chan array; (* indexed by source rank *)
  empty : 'm chan; (* every source's channel until its first message *)
  sched : Scheduler.t;
  fiber : int;
  mutable psrc : int; (* the stream the fiber is parked on; -1: none *)
  mutable ptag : int;
}

let fresh () = { tags = [||]; queues = [||]; nbuckets = 0 }

let create sched ~fiber ~nranks =
  let empty = fresh () in
  { chans = Array.make nranks empty; empty; sched; fiber; psrc = -1; ptag = 0 }

(* Queue to enqueue into for [tag]: reuse the bucket already carrying the
   tag, else repurpose a drained bucket (tags only grow, so an empty queue's
   old tag can never see traffic again from this source in FIFO order —
   and even if it did, an empty bucket behaves exactly like a missing one),
   else append a fresh bucket. *)
let enqueue_queue c tag =
  let rec go i free =
    if i >= c.nbuckets then
      match free with
      | Some j ->
          c.tags.(j) <- tag;
          c.queues.(j)
      | None ->
          if c.nbuckets = Array.length c.tags then begin
            let cap = max 4 (2 * c.nbuckets) in
            let tags = Array.make cap 0 in
            Array.blit c.tags 0 tags 0 c.nbuckets;
            let queues =
              Array.init cap (fun k ->
                  if k < c.nbuckets then c.queues.(k) else Queue.create ())
            in
            c.tags <- tags;
            c.queues <- queues
          end;
          let j = c.nbuckets in
          c.nbuckets <- j + 1;
          c.tags.(j) <- tag;
          c.queues.(j)
    else if c.tags.(i) = tag then c.queues.(i)
    else if free = None && Queue.is_empty c.queues.(i) then go (i + 1) (Some i)
    else go (i + 1) free
  in
  go 0 None

(* Clearing the parked stream before the wake-up keeps a second message
   on it from waking the fiber twice. *)
let add mb ~src ~tag m =
  let c = mb.chans.(src) in
  let c =
    if c != mb.empty then c
    else begin
      let c = fresh () in
      mb.chans.(src) <- c;
      c
    end
  in
  Queue.add m (enqueue_queue c tag);
  if mb.psrc = src && mb.ptag = tag then begin
    mb.psrc <- -1;
    Scheduler.wake mb.sched mb.fiber
  end

(* An empty queue is indistinguishable from an absent one. *)
let take mb ~src ~tag =
  let c = mb.chans.(src) in
  let rec go i =
    if i >= c.nbuckets then None
    else if c.tags.(i) = tag then Queue.take_opt c.queues.(i)
    else go (i + 1)
  in
  go 0

let park mb ~src ~tag =
  mb.psrc <- src;
  mb.ptag <- tag;
  Scheduler.block mb.sched

let waiting mb = if mb.psrc < 0 then None else Some (mb.psrc, mb.ptag)
