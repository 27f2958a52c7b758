type _ Effect.t += Block_current : unit Effect.t

type state =
  | Ready of (unit -> unit)
  | Suspended of (unit, unit) Effect.Deep.continuation
  | Running
  | Finished

type t = {
  mutable fibers : state array;
  mutable nfibers : int;
  runnable : int Queue.t;
  mutable finished : int;
}

let create () =
  { fibers = Array.make 8 Finished; nfibers = 0; runnable = Queue.create (); finished = 0 }

let spawn t f =
  if t.nfibers = Array.length t.fibers then begin
    let bigger = Array.make (2 * t.nfibers) Finished in
    Array.blit t.fibers 0 bigger 0 t.nfibers;
    t.fibers <- bigger
  end;
  let id = t.nfibers in
  t.fibers.(id) <- Ready f;
  t.nfibers <- t.nfibers + 1;
  Queue.add id t.runnable;
  id

let block _t = Effect.perform Block_current

(* Invariant: every [Ready] fiber is already in the runnable queue —
   [spawn] is the only transition into [Ready] and it enqueues atomically
   with the state change.  So waking a [Ready] fiber must NOT enqueue it
   again: a duplicate entry would run the fiber's body twice
   ([run_until_idle] would find it [Ready] both times before the first
   dispatch flips it to [Running]).  [Running] needs no entry (it is
   executing right now) and a wake that races with termination finds
   [Finished] and is dropped; only [Suspended] fibers are resumable.
   Pinned by the "wake" cases in [test/test_machine.ml]. *)
let wake t id =
  match t.fibers.(id) with
  | Suspended _ -> Queue.add id t.runnable
  | Ready _ | Running | Finished -> ()

let handler t id =
  let open Effect.Deep in
  {
    retc =
      (fun () ->
        t.fibers.(id) <- Finished;
        t.finished <- t.finished + 1);
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Block_current ->
            Some
              (fun (k : (a, unit) continuation) ->
                t.fibers.(id) <- Suspended k)
        | _ -> None);
  }

(* Drain the runnable queue and return.  An empty queue with live
   fibers is not a deadlock here: a group goes idle whenever its fibers all
   wait on messages, and is re-run once a delivery wakes one of them.
   Global stall detection is {!Groups.run}'s job (it sees every group idle
   at once). *)
let run_until_idle t =
  let continue_ = ref true in
  while !continue_ do
    match Queue.take_opt t.runnable with
    | None -> continue_ := false
    | Some id -> (
        match t.fibers.(id) with
        | Ready f ->
            t.fibers.(id) <- Running;
            Effect.Deep.match_with f () (handler t id)
        | Suspended k ->
            t.fibers.(id) <- Running;
            Effect.Deep.continue k ()
        | Running -> assert false
        | Finished ->
            (* stale queue entry from a wake that raced with termination *)
            ())
  done

let all_finished t = t.finished >= t.nfibers

let finished t id =
  match t.fibers.(id) with
  | Finished -> true
  | Ready _ | Suspended _ | Running -> false
