(* skild's engine room: a crash-isolated, backpressured job executor.

   Layering: {!Proto} frames lines, {!Jobspec} parses headers, this module
   owns every lifecycle decision — admission (bounded queue, explicit
   shedding), execution (jobs claimed from a persistent {!Pool} work
   source, so Skil ranks and service jobs share one domain crew), deadline
   reaping (a watchdog flags, the engines' cooperative cancellation polls
   raise {!Machine.Cancelled}), capped-exponential-backoff retries for
   transient contention (the native-engine admission token), LRU-cached
   compilation ({!Progcache}), and graceful drain.

   Invariants the tests pin:
   - the daemon thread never dies on job input: every exception a job can
     raise is classified by {!Errclass} into exactly one ERR reply;
   - every *accepted* job (enqueued at submit time) is answered exactly
     once — the reply gate is an atomic test-and-set per job — and shed or
     rejected submissions get exactly one ERR at the door;
   - after [drain] returns, no job is queued, delayed or running. *)

type config = {
  workers : int; (* jobs allowed to run concurrently *)
  queue_cap : int; (* bounded admission queue; beyond it, shed *)
  cache_cap : int; (* compiled-program LRU entries *)
  default_deadline_ms : int; (* 0 = no deadline unless the job asks *)
  default_retries : int; (* transient-failure retry budget *)
  retry_base_ms : int; (* backoff = min (cap, base * 2^(attempt-1)) *)
  retry_cap_ms : int;
  max_src_bytes : int; (* oversized sources are rejected at the door *)
  max_native : int; (* concurrent native-engine jobs (domain pressure) *)
  tick_ms : int; (* watchdog period *)
}

let default_config =
  {
    workers = 2;
    queue_cap = 64;
    cache_cap = 128;
    default_deadline_ms = 0;
    default_retries = 2;
    retry_base_ms = 5;
    retry_cap_ms = 200;
    max_src_bytes = 1 lsl 20;
    max_native = 2;
    tick_ms = 2;
  }

type cancel_reason = Rdeadline | Rdisconnect

type client = {
  cid : int;
  cwrite : string -> unit; (* one reply line, no newline; may raise *)
  cmx : Mutex.t; (* serialises writes; guards cdead *)
  mutable cdead : bool;
}

type job = {
  spec : Jobspec.t;
  jsource : string;
  jclient : client;
  jdeadline : float option; (* absolute wall-clock, fixed at admission *)
  jretries : int;
  mutable jattempts : int; (* transient attempts so far *)
  jcancel : cancel_reason option Atomic.t;
  janswered : bool Atomic.t; (* the exactly-once reply gate *)
}

type counters = {
  mutable accepted : int;
  mutable ok : int;
  mutable err : int;
  mutable shed : int; (* overload replies at the door *)
  mutable rejected : int; (* draining/badreq replies at the door *)
  mutable retried : int; (* backoff requeues *)
  mutable reaped : int; (* deadline cancellations flagged *)
  mutable dropped : int; (* replies not deliverable: client dead *)
}

type t = {
  cfg : config;
  mx : Mutex.t;
  cv : Condition.t; (* pending-count changes (drain waits here) *)
  jobq : job Queue.t;
  mutable delayed : (float * job) list; (* (due, job), unordered *)
  mutable running : job list;
  mutable running_now : int;
  mutable native_now : int; (* native-engine admission tokens in use *)
  mutable draining : bool;
  mutable stopped : bool;
  cache : Progcache.t;
  c : counters;
  mutable next_cid : int;
  mutable exec_src : Pool.source option;
  mutable watchdog : Thread.t option;
  mutable fallback : Thread.t option; (* drives Pool sources on 0-crew hosts *)
}

let now () = Unix.gettimeofday ()

let locked t f =
  Mutex.lock t.mx;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mx) f

let pending_locked t =
  Queue.length t.jobq + List.length t.delayed + t.running_now

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)

(* Deliver one reply line to [c]; a write failure (client socket gone)
   marks the client dead so later replies stop trying.  Returns whether
   the line was actually delivered. *)
let deliver c line =
  Mutex.lock c.cmx;
  let delivered =
    if c.cdead then false
    else
      match c.cwrite line with
      | () -> true
      | exception _ ->
          c.cdead <- true;
          false
  in
  Mutex.unlock c.cmx;
  delivered

(* Exactly-once reply for an accepted job: first caller wins, every later
   completion path finds the gate closed and does nothing. *)
let answer t j reply =
  if Atomic.compare_and_set j.janswered false true then begin
    let delivered = deliver j.jclient (Proto.render_reply reply) in
    locked t (fun () ->
        (match reply with
        | Proto.Ok_reply _ -> t.c.ok <- t.c.ok + 1
        | Proto.Err_reply _ -> t.c.err <- t.c.err + 1);
        if not delivered then t.c.dropped <- t.c.dropped + 1)
  end

let answer_err t j cls msg =
  answer t j (Proto.Err_reply { id = j.spec.Jobspec.id; cls; msg })

(* Door replies (shed/rejected submissions never become jobs). *)
let refuse t client ~id cls msg =
  let delivered =
    deliver client (Proto.render_reply (Proto.Err_reply { id; cls; msg }))
  in
  locked t (fun () ->
      (match cls with
      | Errclass.Overload -> t.c.shed <- t.c.shed + 1
      | _ -> t.c.rejected <- t.c.rejected + 1);
      if not delivered then t.c.dropped <- t.c.dropped + 1)

(* ------------------------------------------------------------------ *)
(* Job execution                                                       *)

let backoff_ms cfg attempt =
  let rec go v k = if k <= 1 || v >= cfg.retry_cap_ms then v else go (2 * v) (k - 1) in
  min cfg.retry_cap_ms (go cfg.retry_base_ms attempt)

let expired j t_now =
  match j.jdeadline with Some d -> t_now > d | None -> false

let finish_slot t j ~native_token =
  locked t (fun () ->
      t.running <- List.filter (fun j' -> j' != j) t.running;
      t.running_now <- t.running_now - 1;
      if native_token then t.native_now <- t.native_now - 1;
      Condition.broadcast t.cv);
  (* a queued job may now be admissible *)
  Pool.kick ()

(* Run one claimed job to a reply.  This function must never raise: it is
   the crash-isolation boundary. *)
let run_job t j =
  let spec = j.spec in
  (* flag an expiry the watchdog has not caught yet (e.g. spent its whole
     deadline queued) *)
  if expired j (now ()) then begin
    ignore (Atomic.compare_and_set j.jcancel None (Some Rdeadline) : bool);
    locked t (fun () -> t.c.reaped <- t.c.reaped + 1)
  end;
  match Atomic.get j.jcancel with
  | Some Rdisconnect ->
      answer_err t j Errclass.Disconnect "client disconnected";
      finish_slot t j ~native_token:false
  | Some Rdeadline ->
      answer_err t j Errclass.Deadline
        (Printf.sprintf "deadline of %d ms exceeded before execution"
           (Option.value spec.Jobspec.deadline_ms
              ~default:t.cfg.default_deadline_ms));
      finish_slot t j ~native_token:false
  | None -> (
      (* native-engine admission token: bounded concurrent native jobs
         over the shared domain crew; contention is the transient failure
         the retry/backoff machinery exists for *)
      let token_wanted = spec.Jobspec.engine = `Native in
      let admission =
        locked t (fun () ->
            if not token_wanted then `Go false
            else if t.native_now < t.cfg.max_native then begin
              t.native_now <- t.native_now + 1;
              `Go true
            end
            else begin
              j.jattempts <- j.jattempts + 1;
              if j.jattempts > j.jretries then `Exhausted
              else begin
                (* back off: leave the running set, rejoin the queue when
                   due; capped exponential in the attempt number *)
                let due =
                  now ()
                  +. (float_of_int (backoff_ms t.cfg j.jattempts) /. 1000.)
                in
                t.running <- List.filter (fun j' -> j' != j) t.running;
                t.running_now <- t.running_now - 1;
                t.delayed <- (due, j) :: t.delayed;
                t.c.retried <- t.c.retried + 1;
                Condition.broadcast t.cv;
                `Backoff
              end
            end)
      in
      match admission with
      | `Backoff -> () (* the watchdog re-queues it when due *)
      | `Exhausted ->
          answer_err t j Errclass.Busy
            (Printf.sprintf
               "native engine busy: %d retries exhausted (max %d concurrent \
                native jobs)"
               j.jretries t.cfg.max_native);
          finish_slot t j ~native_token:false
      | `Go native_token ->
          let t0 = now () in
          (try
             let prepared, cache_hit =
               Progcache.find_or_prepare t.cache
                 ~key:(Jobspec.cache_key spec ~source:j.jsource)
                 (fun () ->
                   Spmd.prepare_source ~instantiate:spec.Jobspec.instantiate
                     ~engine:spec.Jobspec.engine
                     ~optimize:spec.Jobspec.optimize j.jsource
                     ~entry:spec.Jobspec.entry)
             in
             match Jobspec.fault_plan spec with
             | Error msg -> answer_err t j Errclass.Invalid ("error: " ^ msg)
             | Ok faults ->
                 let r =
                   Spmd.run_prepared ?faults ~reliable:spec.Jobspec.reliable
                     ~collectives:spec.Jobspec.collectives
                     ~sim_domains:spec.Jobspec.sim_domains
                     ?native_domains:spec.Jobspec.native_domains
                     ~cancel:(fun () -> Atomic.get j.jcancel <> None)
                     ~cost:(Cost_model.make spec.Jobspec.profile)
                     ~topology:(Jobspec.topology spec) prepared
                     ~args:
                       (List.map (fun n -> Value.VInt n) spec.Jobspec.args)
                 in
                 let ms = (now () -. t0) *. 1000. in
                 answer t j
                   (Proto.Ok_reply
                      {
                        id = spec.Jobspec.id;
                        cache_hit;
                        engine = Jobspec.engine_to_string spec.Jobspec.engine;
                        ms;
                        value =
                          Value.describe r.Machine.values.(0).Spmd.value;
                        output = Spmd.render r;
                      })
           with
          | Machine.Cancelled -> (
              match Atomic.get j.jcancel with
              | Some Rdisconnect ->
                  answer_err t j Errclass.Disconnect
                    "client disconnected mid-job; execution cancelled"
              | Some Rdeadline | None ->
                  answer_err t j Errclass.Deadline
                    (Printf.sprintf
                       "deadline of %d ms exceeded; job cancelled after %.1f \
                        ms"
                       (Option.value spec.Jobspec.deadline_ms
                          ~default:t.cfg.default_deadline_ms)
                       ((now () -. t0) *. 1000.)))
          | e -> (
              match Errclass.of_exn ~file:spec.Jobspec.file e with
              | Some (cls, msg) -> answer_err t j cls msg
              | None ->
                  answer_err t j Errclass.Internal
                    ("uncaught exception: " ^ Printexc.to_string e)));
          finish_slot t j ~native_token)

(* ------------------------------------------------------------------ *)
(* Executor source: how jobs reach the domain crew                     *)

let poll_jobs t () =
  Mutex.lock t.mx;
  let claim =
    if t.running_now < t.cfg.workers && not (Queue.is_empty t.jobq) then begin
      let j = Queue.take t.jobq in
      t.running_now <- t.running_now + 1;
      t.running <- j :: t.running;
      Some j
    end
    else None
  in
  Mutex.unlock t.mx;
  match claim with Some j -> Some (fun () -> run_job t j) | None -> None

(* ------------------------------------------------------------------ *)
(* Watchdog                                                            *)

let watchdog_pass t =
  let t_now = now () in
  let flag_expired j =
    if expired j t_now && Atomic.get j.jcancel = None then begin
      Atomic.set j.jcancel (Some Rdeadline);
      t.c.reaped <- t.c.reaped + 1
    end
  in
  let due =
    locked t (fun () ->
        List.iter flag_expired t.running;
        Queue.iter flag_expired t.jobq;
        let due, later =
          List.partition (fun (d, _) -> d <= t_now || t.draining) t.delayed
        in
        t.delayed <- later;
        (* re-queue due retries at the front conceptually; order among
           retries does not matter, the queue cap was already paid *)
        List.iter (fun (_, j) -> Queue.add j t.jobq) due;
        if due <> [] then Condition.broadcast t.cv;
        due <> [])
  in
  if due then Pool.kick ()

let watchdog_loop t =
  let tick = float_of_int (max 1 t.cfg.tick_ms) /. 1000. in
  let rec loop () =
    let stop = locked t (fun () -> t.stopped) in
    if not stop then begin
      Thread.delay tick;
      watchdog_pass t;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let create ?(config = default_config) () =
  if config.workers < 1 then invalid_arg "Service.create: workers must be >= 1";
  if config.queue_cap < 1 then
    invalid_arg "Service.create: queue_cap must be >= 1";
  if config.max_native < 1 then
    invalid_arg "Service.create: max_native must be >= 1";
  let t =
    {
      cfg = config;
      mx = Mutex.create ();
      cv = Condition.create ();
      jobq = Queue.create ();
      delayed = [];
      running = [];
      running_now = 0;
      native_now = 0;
      draining = false;
      stopped = false;
      cache = Progcache.create ~cap:config.cache_cap;
      c =
        {
          accepted = 0;
          ok = 0;
          err = 0;
          shed = 0;
          rejected = 0;
          retried = 0;
          reaped = 0;
          dropped = 0;
        };
      next_cid = 0;
      exec_src = None;
      watchdog = None;
      fallback = None;
    }
  in
  t.exec_src <- Some (Pool.register_source ~poll:(poll_jobs t));
  (* jobs execute on the shared domain crew; when the host has no room for
     worker domains, a plain thread stands in and drives the sources (the
     job's nested machine sources included) *)
  if Pool.ensure_workers config.workers = 0 then
    t.fallback <-
      Some
        (Thread.create
           (fun () -> Pool.drive ~stop:(fun () -> locked t (fun () -> t.stopped)))
           ());
  t.watchdog <- Some (Thread.create watchdog_loop t);
  t

let attach t ~write =
  locked t (fun () ->
      let cid = t.next_cid in
      t.next_cid <- cid + 1;
      { cid; cwrite = write; cmx = Mutex.create (); cdead = false })

(* The client went away: stop writing to it and cancel its jobs wherever
   they are.  Queued and delayed jobs keep their slots until a worker picks
   them up and finds the flag — simpler than surgically removing them, and
   the exactly-once accounting stays in one place. *)
let detach t client =
  Mutex.lock client.cmx;
  client.cdead <- true;
  Mutex.unlock client.cmx;
  let flag j =
    if j.jclient == client then
      ignore (Atomic.compare_and_set j.jcancel None (Some Rdisconnect) : bool)
  in
  locked t (fun () ->
      List.iter flag t.running;
      Queue.iter flag t.jobq;
      List.iter (fun (_, j) -> flag j) t.delayed)

let submit t client ~spec ~source =
  let id = spec.Jobspec.id in
  if String.length source > t.cfg.max_src_bytes then
    refuse t client ~id Errclass.Badreq
      (Printf.sprintf "source of %d bytes exceeds the %d-byte limit"
         (String.length source) t.cfg.max_src_bytes)
  else begin
    let verdict =
      locked t (fun () ->
          if t.draining then `Draining
          else if Queue.length t.jobq >= t.cfg.queue_cap then `Full
          else begin
            let deadline_ms =
              match spec.Jobspec.deadline_ms with
              | Some d -> d
              | None -> t.cfg.default_deadline_ms
            in
            let j =
              {
                spec;
                jsource = source;
                jclient = client;
                jdeadline =
                  (if deadline_ms > 0 then
                     Some (now () +. (float_of_int deadline_ms /. 1000.))
                   else None);
                jretries =
                  Option.value spec.Jobspec.retries
                    ~default:t.cfg.default_retries;
                jattempts = 0;
                jcancel = Atomic.make None;
                janswered = Atomic.make false;
              }
            in
            Queue.add j t.jobq;
            t.c.accepted <- t.c.accepted + 1;
            `Accepted
          end)
    in
    match verdict with
    | `Accepted -> Pool.kick ()
    | `Draining ->
        refuse t client ~id Errclass.Draining
          "service is draining; resubmit elsewhere"
    | `Full ->
        refuse t client ~id Errclass.Overload
          (Printf.sprintf "admission queue full (%d jobs); shedding load"
             t.cfg.queue_cap)
  end

(* Stop admitting, zero pending backoffs, and wait until every accepted
   job has been answered.  Idempotent; new submissions during and after
   the drain get ERR draining. *)
(* Wait until no pending job belongs to [client].  A job is always in
   exactly one of jobq/delayed/running (moves happen under [t.mx]), and
   every departure broadcasts [t.cv]. *)
let flush_client t client =
  let pending () =
    let count n j = if j.jclient == client then n + 1 else n in
    Queue.fold count 0 t.jobq
    + List.fold_left (fun n (_, j) -> count n j) 0 t.delayed
    + List.fold_left count 0 t.running
  in
  Mutex.lock t.mx;
  while pending () > 0 do
    Condition.wait t.cv t.mx
  done;
  Mutex.unlock t.mx

let drain t =
  Mutex.lock t.mx;
  t.draining <- true;
  Mutex.unlock t.mx;
  watchdog_pass t (* flush delayed jobs into the queue now *);
  Pool.kick ();
  Mutex.lock t.mx;
  while pending_locked t > 0 do
    Condition.wait t.cv t.mx
  done;
  Mutex.unlock t.mx

let shutdown t =
  drain t;
  Mutex.lock t.mx;
  t.stopped <- true;
  Mutex.unlock t.mx;
  Pool.kick () (* unpark the fallback driver so it sees [stopped] *);
  (match t.watchdog with Some th -> Thread.join th | None -> ());
  (match t.fallback with Some th -> Thread.join th | None -> ());
  t.watchdog <- None;
  t.fallback <- None;
  match t.exec_src with
  | Some s ->
      Pool.unregister_source s;
      t.exec_src <- None
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

type stats = {
  accepted : int;
  ok : int;
  err : int;
  shed : int;
  rejected : int;
  retried : int;
  reaped : int;
  dropped : int;
  cache_hits : int;
  cache_misses : int;
  queued_now : int;
  running_now : int;
  delayed_now : int;
}

let stats t =
  let hits, misses, _ = Progcache.stats t.cache in
  locked t (fun () ->
      {
        accepted = t.c.accepted;
        ok = t.c.ok;
        err = t.c.err;
        shed = t.c.shed;
        rejected = t.c.rejected;
        retried = t.c.retried;
        reaped = t.c.reaped;
        dropped = t.c.dropped;
        cache_hits = hits;
        cache_misses = misses;
        queued_now = Queue.length t.jobq;
        running_now = t.running_now;
        delayed_now = List.length t.delayed;
      })

let stats_line t =
  let s = stats t in
  Printf.sprintf
    "STATS accepted=%d ok=%d err=%d shed=%d rejected=%d retried=%d reaped=%d \
     dropped=%d cache-hits=%d cache-misses=%d queued=%d running=%d delayed=%d"
    s.accepted s.ok s.err s.shed s.rejected s.retried s.reaped s.dropped
    s.cache_hits s.cache_misses s.queued_now s.running_now s.delayed_now

(* ------------------------------------------------------------------ *)
(* Connection loop                                                     *)

(* Serve one client connection over abstract line IO.  [read_line] returns
   [None] at EOF; [read_exact n] returns [None] on a short read.  The loop
   never raises on malformed input — every recognisable request gets a
   reply, and framing resynchronises through the declared [src-bytes]
   whenever possible. *)
let serve t ~read_line ~read_exact ~write =
  let client = attach t ~write in
  let skip_bytes n =
    (* consume and discard a declared source body in bounded chunks *)
    let chunk = 65536 in
    let rec go left =
      left <= 0
      ||
      match read_exact (min left chunk) with
      | Some _ -> go (left - min left chunk)
      | None -> false
    in
    go n
  in
  let bad id msg = refuse t client ~id Errclass.Badreq msg in
  let rec loop () =
    match read_line () with
    | None -> `Eof (* client went away *)
    | Some "" -> loop () (* blank lines between frames are tolerated *)
    | Some line -> (
        match Proto.parse_request line with
        | Error e ->
            bad "-" ("malformed request: " ^ e);
            loop ()
        | Ok Proto.Ping ->
            ignore (deliver client "PONG" : bool);
            loop ()
        | Ok Proto.Quit -> `Quit
        | Ok Proto.Stats_req ->
            ignore (deliver client (stats_line t) : bool);
            loop ()
        | Ok (Proto.Job kvs) -> (
            let id =
              Option.value (List.assoc_opt "id" kvs) ~default:"-"
            in
            match Jobspec.of_kv kvs with
            | Error e ->
                (* resynchronise framing through the declared body length
                   when the field parsed, then report the bad header *)
                let declared =
                  Option.bind (List.assoc_opt "src-bytes" kvs)
                    int_of_string_opt
                in
                let synced =
                  match declared with
                  | Some n when n > 0 -> skip_bytes n && read_line () <> None
                  | _ -> true
                in
                bad id ("bad job header: " ^ e);
                if synced then loop () else `Eof
            | Ok spec ->
                if spec.Jobspec.src_bytes > t.cfg.max_src_bytes then begin
                  let synced =
                    skip_bytes spec.Jobspec.src_bytes && read_line () <> None
                  in
                  bad id
                    (Printf.sprintf
                       "source of %d bytes exceeds the %d-byte limit"
                       spec.Jobspec.src_bytes t.cfg.max_src_bytes);
                  if synced then loop () else `Eof
                end
                else begin
                  match read_exact spec.Jobspec.src_bytes with
                  | None -> `Eof (* EOF mid-source *)
                  | Some source -> (
                      (* the body is followed by exactly one newline *)
                      match read_line () with
                      | None -> `Eof (* EOF before the frame closed *)
                      | Some "" ->
                          submit t client ~spec ~source;
                          loop ()
                      | Some _ ->
                          bad id
                            "source body not followed by a bare newline \
                             (src-bytes mismatch?)";
                          loop ())
                end))
  in
  (match loop () with
  | `Quit ->
      (* QUIT is the clean goodbye: the client wants its answers, so its
         pending jobs are flushed before the detach.  A bare EOF is a
         vanished peer — detach immediately and let disconnect
         cancellation reap whatever it abandoned. *)
      flush_client t client
  | `Eof -> ());
  detach t client
