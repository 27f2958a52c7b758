(* Group statuses.  Transitions out of idle and out of running are
   compare-and-set on the atomic word, so a wake-up racing a release is
   never lost: either the waker sees idle and queues the group, or the
   releasing domain's running -> idle CAS fails on the pending flag and it
   steps the group again. *)
let idle = 0
let ready = 1
let running = 2
let pending = 3 (* running, and a wake-up arrived since the step began *)
let finished = 4

exception Stalled of (int * string) list
exception Cancelled

type t = {
  cancel : (unit -> bool) option;
  first : int array; (* first rank of each group; [first.(count)] = nranks *)
  group_of : int array;
  scheds : Scheduler.t array;
  status : int Atomic.t array;
  mx : Mutex.t;
  cv : Condition.t; (* broadcast whenever a group stops running or queues *)
  readyq : int Queue.t; (* guarded by [mx] *)
  mutable ndone : int; (* groups finished; guarded by [mx] *)
  failure : (exn * Printexc.raw_backtrace) option Atomic.t; (* first wins *)
  workers : bool; (* crew workers exist: kick them when work appears *)
  sites : int array; (* collective call sites reached, per rank *)
  (* collective deposit table, guarded by [dmx] *)
  dmx : Mutex.t;
  deposits : (int, Obj.t * int ref) Hashtbl.t;
  parked : (int, int) Hashtbl.t;
      (* ranks blocked at a root call site rank 0 has not reached *)
  mutable next_tag : int;
  posts : (unit -> unit) list Atomic.t array;
      (* per group: deliveries posted to it, newest first; run before the
         group's next step *)
}

let create ~nranks ~cancel ~ngroups =
  if ngroups < 1 || ngroups > nranks then
    invalid_arg "Groups.create: need 1 <= ngroups <= nranks";
  let base = nranks / ngroups and rem = nranks mod ngroups in
  let first = Array.init (ngroups + 1) (fun g -> (g * base) + min g rem) in
  let group_of = Array.make nranks 0 in
  for g = 0 to ngroups - 1 do
    Array.fill group_of first.(g) (first.(g + 1) - first.(g)) g
  done;
  {
    cancel;
    first;
    group_of;
    scheds = Array.init ngroups (fun _ -> Scheduler.create ());
    status = Array.init ngroups (fun _ -> Atomic.make ready);
    mx = Mutex.create ();
    cv = Condition.create ();
    readyq = Queue.of_seq (Seq.init ngroups Fun.id);
    ndone = 0;
    failure = Atomic.make None;
    workers = ngroups > 1 && Pool.ensure_workers (ngroups - 1) > 0;
    sites = Array.make nranks 0;
    dmx = Mutex.create ();
    deposits = Hashtbl.create 16;
    parked = Hashtbl.create 4;
    next_tag = 0;
    posts = Array.init ngroups (fun _ -> Atomic.make []);
  }

let nranks t = Array.length t.group_of
let check_cancel t =
  match t.cancel with Some f when f () -> raise Cancelled | _ -> ()
let cancellable t = t.cancel <> None
let group_of t rank = t.group_of.(rank)

(* Fibers are spawned in rank order ([spawn] checks), so a rank's fiber id
   is its offset in its group. *)
let sched_of t rank = t.scheds.(t.group_of.(rank))
let fiber t rank = rank - t.first.(t.group_of.(rank))

let mailbox t rank =
  Mailbox.create (sched_of t rank) ~fiber:(fiber t rank) ~nranks:(nranks t)

let spawn t rank f =
  if Scheduler.spawn (sched_of t rank) f <> fiber t rank then
    invalid_arg "Groups.spawn: ranks must be spawned in rank order"

let broadcast t =
  Mutex.lock t.mx;
  Condition.broadcast t.cv;
  Mutex.unlock t.mx

(* Ready, already pending and finished groups need nothing. *)
let rec wake t g =
  let s = t.status.(g) in
  let v = Atomic.get s in
  if v = idle then begin
    if Atomic.compare_and_set s idle ready then begin
      Mutex.lock t.mx;
      Queue.add g t.readyq;
      Condition.broadcast t.cv;
      Mutex.unlock t.mx;
      if t.workers then Pool.kick ()
    end
    else wake t g
  end
  else if v = running && not (Atomic.compare_and_set s running pending) then
    wake t g

let failed t = Atomic.get t.failure <> None

let record_failure t e bt =
  ignore (Atomic.compare_and_set t.failure None (Some (e, bt)) : bool)

let claim t =
  Mutex.lock t.mx;
  let r =
    if failed t then None
    else
      match Queue.take_opt t.readyq with
      | Some g ->
          Atomic.set t.status.(g) running;
          Some g
      | None -> None
  in
  Mutex.unlock t.mx;
  r

(* Finished and counted in one step under [mx]: a finished group missing
   from [ndone] would let the driver take the run for quiescent with
   nothing blocked. *)
let finish t g =
  Mutex.lock t.mx;
  Atomic.set t.status.(g) finished;
  t.ndone <- t.ndone + 1;
  Condition.broadcast t.cv;
  Mutex.unlock t.mx

let rec push cell x =
  let l = Atomic.get cell in
  if not (Atomic.compare_and_set cell l (x :: l)) then push cell x

(* The push is the release, and the [Atomic.exchange] in [step] the
   acquire, that publish whatever [f] reads to the domain that runs it.
   A group that has finished never steps again, so a delivery to it never
   runs: the receiver would have left such a message queued unread. *)
let post t g f =
  if Atomic.get t.status.(g) <> finished then begin
    push t.posts.(g) f;
    wake t g
  end

(* Run the deliveries posted to [g], in post order, then the group's
   fibers until they all finish or park; true once they have all
   finished. *)
let step t g =
  if Atomic.get t.posts.(g) <> [] then
    List.iter (fun f -> f ()) (List.rev (Atomic.exchange t.posts.(g) []));
  check_cancel t;
  let s = t.scheds.(g) in
  Scheduler.run_until_idle s;
  Scheduler.all_finished s

(* Step a claimed group until it finishes or releases.  After a failure
   anywhere, a group stops at the end of its current step instead of
   stepping again. *)
let rec exec t g =
  match step t g with
  | true -> finish t g
  | false ->
      let s = t.status.(g) in
      if failed t then begin
        Atomic.set s idle;
        broadcast t
      end
      else if Atomic.compare_and_set s running idle then broadcast t
      else begin
        Atomic.set s running;
        exec t g
      end
  | exception e ->
      record_failure t e (Printexc.get_raw_backtrace ());
      finish t g

let is_running s =
  let v = Atomic.get s in
  v = running || v = pending

(* [mx] held.  No group is queued or running, so no delivery is pending
   either: a sender's group keeps running until its {!post} has woken the
   receiver's. *)
let quiescent t =
  Queue.is_empty t.readyq
  && Array.for_all
       (fun s ->
         let v = Atomic.get s in
         v = idle || v = finished)
       t.status

(* Quiescent with a fiber not finished: every receive names its source,
   so no parked fiber can ever be woken, and the run is stalled for
   good. *)
let stalled t ~describe =
  let blocked = ref [] in
  for rank = nranks t - 1 downto 0 do
    if not (Scheduler.finished (sched_of t rank) (fiber t rank)) then
      blocked := (rank, describe rank) :: !blocked
  done;
  Stalled !blocked

let run t ~describe =
  let source =
    if t.workers then
      Some
        (Pool.register_source ~poll:(fun () ->
             Option.map (fun g () -> exec t g) (claim t)))
    else None
  in
  let n = Array.length t.scheds in
  let rec drive () =
    match claim t with
    | Some g ->
        exec t g;
        drive ()
    | None ->
        Mutex.lock t.mx;
        if t.ndone = n || failed t then Mutex.unlock t.mx
        else if quiescent t then begin
          Mutex.unlock t.mx;
          record_failure t (stalled t ~describe) (Printexc.get_callstack 0)
        end
        else begin
          if Queue.is_empty t.readyq then Condition.wait t.cv t.mx;
          Mutex.unlock t.mx;
          drive ()
        end
  in
  drive ();
  (* after a failure, crew workers may still be stepping other groups *)
  Mutex.lock t.mx;
  while Array.exists is_running t.status do
    Condition.wait t.cv t.mx
  done;
  Mutex.unlock t.mx;
  Option.iter Pool.unregister_source source;
  match Atomic.get t.failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Collective call sites                                               *)

(* [sites.(rank)] is only touched by the domain running the rank's group.
   At a root site, a rank other than 0 that finds no deposit parks (one
   [parked] binding per rank) until rank 0's evaluation resumes it. *)
let collective ?(root = false) t ~rank f =
  let site = t.sites.(rank) in
  t.sites.(rank) <- site + 1;
  let rec arrive () =
    match
      Mutex.protect t.dmx (fun () ->
          match Hashtbl.find_opt t.deposits site with
          | Some (v, remaining) ->
              decr remaining;
              if !remaining = 0 then Hashtbl.remove t.deposits site;
              `Took (Obj.obj v)
          | None when root && rank <> 0 ->
              Hashtbl.add t.parked site rank;
              `Parked
          | None ->
              let v = f () in
              let consumers = Array.length t.group_of - 1 in
              if consumers > 0 then
                Hashtbl.add t.deposits site (Obj.repr v, ref consumers);
              let parked = Hashtbl.find_all t.parked site in
              List.iter (fun _ -> Hashtbl.remove t.parked site) parked;
              `Evaluated (v, parked))
    with
    | `Took v -> v
    | `Parked ->
        Scheduler.block (sched_of t rank);
        arrive ()
    | `Evaluated (v, parked) ->
        List.iter
          (fun r ->
            post t t.group_of.(r) (fun () ->
                Scheduler.wake (sched_of t r) (fiber t r)))
          parked;
        v
  in
  arrive ()

let tags t ~rank n =
  collective t ~rank (fun () ->
      let tag = t.next_tag in
      t.next_tag <- tag + n;
      tag)
