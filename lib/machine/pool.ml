let default_jobs () = Domain.recommended_domain_count ()

(* One persistent, grow-only crew of worker domains serving *work sources*:
   pollable producers of thunks.  The harness's [map]/[run] register a
   temporary source per batch; [Groups.run] registers one source per run
   with more than one rank group (a sharded [Machine.run] or a multi-block
   native run) whose thunks step ready groups.  Workers loop over the
   registered sources (newest first, so a machine nested inside an
   experiment cell gets priority over sibling cells) and sleep when every
   poll returns [None]; [kick] wakes them after new work appears.

   The crew is the single owner of worker domains in the whole system —
   nothing else spawns domains — and its size never exceeds
   [recommended_domain_count () - 1], so experiment cells (--jobs) times
   simulation shards (--sim-domains) can never oversubscribe the host: the
   product is clamped to the crew and excess work items just queue. *)

type source = { sid : int; poll : unit -> (unit -> unit) option }

type crew = {
  mutex : Mutex.t;
  work : Condition.t;
  mutable gen : int; (* bumped by [kick]; guards against lost wakeups *)
  mutable sources : source list; (* newest first *)
  mutable next_sid : int;
  mutable nworkers : int;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let crew =
  {
    mutex = Mutex.create ();
    work = Condition.create ();
    gen = 0;
    sources = [];
    next_sid = 0;
    nworkers = 0;
    stop = false;
    domains = [];
  }

let kick () =
  Mutex.lock crew.mutex;
  crew.gen <- crew.gen + 1;
  Condition.broadcast crew.work;
  Mutex.unlock crew.mutex

let register_source ~poll =
  Mutex.lock crew.mutex;
  let s = { sid = crew.next_sid; poll } in
  crew.next_sid <- crew.next_sid + 1;
  crew.sources <- s :: crew.sources;
  crew.gen <- crew.gen + 1;
  Condition.broadcast crew.work;
  Mutex.unlock crew.mutex;
  s

let unregister_source s =
  Mutex.lock crew.mutex;
  crew.sources <- List.filter (fun s' -> s'.sid <> s.sid) crew.sources;
  Mutex.unlock crew.mutex

(* Poll the sources in order for one thunk.  Called without the mutex —
   polls must be thread-safe (ours claim work under their own locks). *)
let try_claim sources =
  let rec go = function
    | [] -> None
    | s :: rest -> ( match s.poll () with Some t -> Some t | None -> go rest)
  in
  go sources

let run_thunk t =
  try t ()
  with e ->
    (* sources wrap user code and store outcomes; anything escaping here is
       a harness bug, but killing the worker domain would hang shutdown *)
    Printf.eprintf "pool: worker caught %s\n%!" (Printexc.to_string e)

let worker () =
  let rec loop () =
    Mutex.lock crew.mutex;
    let g = crew.gen and sources = crew.sources in
    Mutex.unlock crew.mutex;
    match try_claim sources with
    | Some t ->
        run_thunk t;
        loop ()
    | None ->
        Mutex.lock crew.mutex;
        if (not crew.stop) && crew.gen = g then
          Condition.wait crew.work crew.mutex;
        let st = crew.stop in
        Mutex.unlock crew.mutex;
        if not st then loop ()
  in
  loop ()

(* Drive the registered sources from the calling thread until [stop]
   returns true — the [worker] loop with an external stop condition
   instead of crew shutdown.  This is how a long-lived service keeps jobs
   moving on a host where [ensure_workers] came back with 0: a plain
   systhread calls [drive] and becomes the crew.  Whoever flips [stop]
   must [kick] afterwards, or the driver may stay parked on the condition
   variable. *)
let drive ~stop =
  let rec loop () =
    if not (stop ()) then begin
      Mutex.lock crew.mutex;
      let g = crew.gen and sources = crew.sources in
      Mutex.unlock crew.mutex;
      (match try_claim sources with
      | Some t -> run_thunk t
      | None ->
          Mutex.lock crew.mutex;
          if (not (stop ())) && crew.gen = g then
            Condition.wait crew.work crew.mutex;
          Mutex.unlock crew.mutex);
      loop ()
    end
  in
  loop ()

let worker_count () =
  Mutex.lock crew.mutex;
  let n = crew.nworkers in
  Mutex.unlock crew.mutex;
  n

(* Grow the crew so at least [n] worker domains exist, clamped to the
   host's capacity (the calling domain always participates, hence the -1).
   Returns the number of workers actually available. *)
let ensure_workers n =
  let want = min n (max 0 (Domain.recommended_domain_count () - 1)) in
  Mutex.lock crew.mutex;
  let missing = want - crew.nworkers in
  if missing > 0 then begin
    crew.stop <- false;
    crew.domains <-
      List.init missing (fun _ -> Domain.spawn worker) @ crew.domains;
    crew.nworkers <- crew.nworkers + missing
  end;
  let have = crew.nworkers in
  Mutex.unlock crew.mutex;
  have

let shutdown () =
  Mutex.lock crew.mutex;
  crew.stop <- true;
  Condition.broadcast crew.work;
  let ds = crew.domains in
  crew.domains <- [];
  crew.nworkers <- 0;
  Mutex.unlock crew.mutex;
  List.iter Domain.join ds;
  Mutex.lock crew.mutex;
  crew.stop <- false;
  Mutex.unlock crew.mutex

(* ------------------------------------------------------------------ *)
(* map/run: one temporary source per batch                             *)

type 'b outcome =
  | Pending
  | Done of 'b
  | Raised of exn * Printexc.raw_backtrace

let collect outcomes =
  (* first failure in submission order wins, as in a sequential run *)
  Array.iter
    (function
      | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
      | Done _ | Pending -> ())
    outcomes;
  Array.to_list
    (Array.map
       (function Done v -> v | Pending | Raised _ -> assert false)
       outcomes)

let map ?(jobs = default_jobs ()) f xs =
  if jobs < 1 then invalid_arg "Pool.map: jobs must be >= 1";
  match xs with
  | [] -> []
  | xs when jobs = 1 || List.compare_length_with xs 1 <= 0 -> List.map f xs
  | xs ->
      let items = Array.of_list xs in
      let n = Array.length items in
      let outcomes = Array.make n Pending in
      let next = Atomic.make 0 in
      let finished = Atomic.make 0 in
      let poll () =
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then None
        else
          Some
            (fun () ->
              outcomes.(i) <-
                (match f items.(i) with
                | v -> Done v
                | exception e -> Raised (e, Printexc.get_raw_backtrace ()));
              if Atomic.fetch_and_add finished 1 = n - 1 then kick ())
      in
      ignore (ensure_workers (min (jobs - 1) (n - 1)) : int);
      let src = register_source ~poll in
      (* the submitting domain works too: first its own batch, then — while
         waiting for stragglers — anything else that is pollable (e.g. the
         shards of a machine a straggler cell is simulating) *)
      let rec drive () =
        match poll () with
        | Some t ->
            t ();
            drive ()
        | None -> ()
      in
      drive ();
      let rec wait_stragglers () =
        if Atomic.get finished < n then begin
          Mutex.lock crew.mutex;
          let g = crew.gen and sources = crew.sources in
          Mutex.unlock crew.mutex;
          (match try_claim sources with
          | Some t -> run_thunk t
          | None ->
              Mutex.lock crew.mutex;
              if Atomic.get finished < n && crew.gen = g then
                Condition.wait crew.work crew.mutex;
              Mutex.unlock crew.mutex);
          wait_stragglers ()
        end
      in
      wait_stragglers ();
      unregister_source src;
      collect outcomes

let run ?jobs thunks = map ?jobs (fun f -> f ()) thunks
