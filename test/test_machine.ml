let run ?cost ~procs f =
  Machine.run ?cost ~topology:(Topology.mesh ~width:procs ~height:1) f

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Run a standalone scheduler the way the group driver does: until idle,
   then report whether every fiber finished. *)
let run_sched s =
  Scheduler.run_until_idle s;
  Alcotest.(check bool) "all fibers finished" true (Scheduler.all_finished s)

let test_scheduler_basic () =
  let s = Scheduler.create () in
  let log = ref [] in
  let note x = log := x :: !log in
  ignore (Scheduler.spawn s (fun () -> note "a"));
  ignore (Scheduler.spawn s (fun () -> note "b"));
  run_sched s;
  Alcotest.(check (list string)) "fifo order" [ "a"; "b" ] (List.rev !log)

let test_scheduler_block_wake () =
  let s = Scheduler.create () in
  let log = ref [] in
  let note x = log := x :: !log in
  let id0 = ref (-1) in
  id0 :=
    Scheduler.spawn s (fun () ->
        note "start0";
        Scheduler.block s;
        note "resumed0");
  ignore
    (Scheduler.spawn s (fun () ->
         note "start1";
         Scheduler.wake s !id0;
         note "end1"));
  run_sched s;
  Alcotest.(check (list string))
    "interleaving"
    [ "start0"; "start1"; "end1"; "resumed0" ]
    (List.rev !log)

(* The Ready-fiber invariant documented on [Scheduler.wake]: a fiber in
   [Ready] state is already queued (spawn enqueues atomically), so waking
   it again must be a no-op — a duplicate queue entry would dispatch the
   fiber's body twice. *)
let test_scheduler_wake_ready_runs_once () =
  let s = Scheduler.create () in
  let runs = ref 0 in
  let target = Scheduler.spawn s (fun () -> incr runs) in
  ignore (Scheduler.spawn s (fun () -> Scheduler.wake s target));
  (* the waker is spawned after the target but the queue is FIFO, so the
     wake call happens only after the target already ran; exercise the
     pre-run case too by waking from outside the scheduler *)
  Scheduler.wake s target;
  Scheduler.wake s target;
  run_sched s;
  Alcotest.(check int) "body ran exactly once" 1 !runs

(* Waking a fiber that already terminated is dropped, not an error, and
   must not dispatch anything again. *)
let test_scheduler_wake_finished_noop () =
  let s = Scheduler.create () in
  let runs = ref 0 in
  let target = Scheduler.spawn s (fun () -> incr runs) in
  ignore
    (Scheduler.spawn s (fun () ->
         (* target is Finished by the time this fiber runs *)
         Scheduler.wake s target;
         Scheduler.wake s target));
  run_sched s;
  Alcotest.(check int) "no re-dispatch" 1 !runs

(* Double-waking a suspended fiber: the first wake enqueues and flips
   nothing; once resumed and finished, the stale second entry finds the
   fiber [Finished] (or already [Running]) and is skipped by
   [run_until_idle]. *)
let test_scheduler_double_wake_suspended () =
  let s = Scheduler.create () in
  let resumes = ref 0 in
  let id0 = ref (-1) in
  id0 :=
    Scheduler.spawn s (fun () ->
        Scheduler.block s;
        incr resumes);
  ignore
    (Scheduler.spawn s (fun () ->
         Scheduler.wake s !id0;
         Scheduler.wake s !id0));
  run_sched s;
  Alcotest.(check int) "resumed exactly once" 1 !resumes

let test_spmd_identity () =
  let r = run ~procs:4 (fun ctx -> Machine.self ctx * 10) in
  Alcotest.(check (array int)) "values" [| 0; 10; 20; 30 |] r.Machine.values;
  Alcotest.(check (float 1e-9)) "no time passed" 0.0 r.Machine.time

let test_message_roundtrip () =
  let r =
    run ~procs:2 (fun ctx ->
        match Machine.self ctx with
        | 0 ->
            Machine.send ctx ~dest:1 ~tag:7 ~bytes:100 (42, "hello");
            0
        | _ ->
            let x, s = Machine.recv ctx ~src:0 ~tag:7 in
            if s = "hello" then x else -1)
  in
  Alcotest.(check (array int)) "payload intact" [| 0; 42 |] r.Machine.values

let test_recv_before_send () =
  (* Receiver runs first (rank 0 spawned first) and must suspend. *)
  let r =
    run ~procs:2 (fun ctx ->
        match Machine.self ctx with
        | 0 -> Machine.recv ctx ~src:1 ~tag:1
        | _ ->
            Machine.send ctx ~dest:0 ~tag:1 ~bytes:4 99;
            0)
  in
  Alcotest.(check (array int)) "values" [| 99; 0 |] r.Machine.values

let test_fifo_per_tag () =
  let r =
    run ~procs:2 (fun ctx ->
        match Machine.self ctx with
        | 0 ->
            List.iter
              (fun v -> Machine.send ctx ~dest:1 ~tag:3 ~bytes:4 v)
              [ 1; 2; 3 ];
            0
        | _ ->
            let a : int = Machine.recv ctx ~src:0 ~tag:3 in
            let b : int = Machine.recv ctx ~src:0 ~tag:3 in
            let c : int = Machine.recv ctx ~src:0 ~tag:3 in
            (100 * a) + (10 * b) + c)
  in
  Alcotest.(check int) "fifo" 123 r.Machine.values.(1)

let test_tags_distinguish () =
  let r =
    run ~procs:2 (fun ctx ->
        match Machine.self ctx with
        | 0 ->
            Machine.send ctx ~dest:1 ~tag:1 ~bytes:4 10;
            Machine.send ctx ~dest:1 ~tag:2 ~bytes:4 20;
            0
        | _ ->
            (* receive in the opposite order of sending *)
            let b : int = Machine.recv ctx ~src:0 ~tag:2 in
            let a : int = Machine.recv ctx ~src:0 ~tag:1 in
            (10 * a) + b)
  in
  Alcotest.(check int) "tags" 120 r.Machine.values.(1)

(* The engines a machine-level behaviour is pinned on: the simulator as one
   group and as two (one rank each), and the native engine likewise. *)
let engines_2x1 ?cancel () =
  let topology = Topology.mesh ~width:2 ~height:1 in
  [
    ("sim_domains 1", fun f -> Machine.run ?cancel ~sim_domains:1 ~topology f);
    ("sim_domains 2", fun f -> Machine.run ?cancel ~sim_domains:2 ~topology f);
    ( "native domains 1",
      fun f -> Machine.run_native ?cancel ~domains:1 ~topology f );
    ( "native domains 2",
      fun f -> Machine.run_native ?cancel ~domains:2 ~topology f );
  ]

let test_deadlock_detection () =
  (* mutual recv: both fibers park; the group driver's quiescence check must
     raise a [Stalled] diagnostic naming each blocked (src, tag) *)
  List.iter
    (fun (name, run) ->
      match
        run (fun ctx ->
            let other = 1 - Machine.self ctx in
            let (_ : int) = Machine.recv ctx ~src:other ~tag:0 in
            ())
      with
      | _ -> Alcotest.failf "%s: expected Machine.Stalled" name
      | exception Machine.Stalled blocked ->
          Alcotest.(check (list int))
            (name ^ ": blocked ids") [ 0; 1 ] (List.map fst blocked);
          List.iteri
            (fun i (_, d) ->
              let expect = Printf.sprintf "recv from p%d, tag 0" (1 - i) in
              if not (contains d expect) then
                Alcotest.failf "%s: diagnostic %S does not mention %S" name d
                  expect)
            blocked;
          let report = Machine.stall_diagnostic blocked in
          if not (contains report "p0") then
            Alcotest.failf "%s: report %S does not mention p0" name report)
    (engines_2x1 ())

exception Boom

(* A failed run returns only once every group has stopped running: rank 0
   raises after a short wait while rank 1 — in another group, and on a Pool
   worker when the host has one — keeps ticking a counter for a while.  Once
   the exception reaches the caller, the counter must not move. *)
let test_failure_waits_for_groups () =
  List.iter
    (fun (name, run) ->
      let ticks = Atomic.make 0 in
      (match
         run (fun ctx ->
             if Machine.self ctx = 0 then begin
               Unix.sleepf 0.02;
               raise Boom
             end
             else
               for _ = 1 to 40 do
                 Atomic.incr ticks;
                 Unix.sleepf 0.002
               done)
       with
      | _ -> Alcotest.failf "%s: expected the program's exception" name
      | exception Boom -> ());
      let at_raise = Atomic.get ticks in
      Unix.sleepf 0.1;
      Alcotest.(check int)
        (name ^ ": ticks after the exception reached the caller")
        at_raise (Atomic.get ticks))
    (engines_2x1 ())

(* Cancellation reaches a compute-bound rank on every engine: rank 0 only
   charges statements while rank 1 is parked in [recv].  The hook fires at
   its 1001st poll; each charge polls once, and a native block step once
   more.  The run must raise [Cancelled] with rank 0 stopped at about
   1000 ticks, and rank 0 must not tick once the exception has reached
   the caller. *)
let test_cancel_every_engine () =
  let polls = Atomic.make 0 in
  let cancel () = Atomic.fetch_and_add polls 1 >= 1000 in
  List.iter
    (fun (name, run) ->
      Atomic.set polls 0;
      let ticks = Atomic.make 0 in
      (match
         run (fun ctx ->
             if Machine.self ctx = 0 then
               for _ = 1 to 100_000 do
                 Atomic.incr ticks;
                 Machine.charge ctx Cost_model.Scalar ~ops:1
                   ~base:Calibration.scalar_node_op
               done
             else ignore (Machine.recv ctx ~src:0 ~tag:0 : int))
       with
      | _ -> Alcotest.failf "%s: expected Machine.Cancelled" name
      | exception Machine.Cancelled -> ());
      let at_raise = Atomic.get ticks in
      if at_raise < 990 || at_raise > 1001 then
        Alcotest.failf "%s: cancelled after %d ticks, not about 1000" name
          at_raise;
      Unix.sleepf 0.05;
      Alcotest.(check int)
        (name ^ ": ticks after the exception reached the caller")
        at_raise (Atomic.get ticks))
    (engines_2x1 ~cancel ())

let test_clock_advance () =
  let r =
    run ~procs:1 (fun ctx ->
        Machine.compute ctx 1.5;
        Machine.compute ctx 0.5;
        Machine.clock ctx)
  in
  Alcotest.(check (float 1e-9)) "clock" 2.0 r.Machine.values.(0);
  Alcotest.(check (float 1e-9)) "makespan" 2.0 r.Machine.time

let test_charge_profile_factor () =
  let cost = Cost_model.make Cost_model.dpfl in
  let r =
    Machine.run ~cost ~topology:(Topology.mesh ~width:1 ~height:1) (fun ctx ->
        Machine.charge ctx Cost_model.Kernel ~ops:1000 ~base:1e-3;
        Machine.clock ctx)
  in
  Alcotest.(check (float 1e-6))
    "dpfl kernel factor" (1000.0 *. 1e-3 *. 7.8) r.Machine.values.(0)

let test_message_timing () =
  (* One message, 1 hop, 1000 bytes: receiver's clock must be exactly
     send_overhead + latency + per_hop + 1000*per_byte + recv_overhead. *)
  let p = Cost_model.transputer in
  let r =
    run ~procs:2 (fun ctx ->
        match Machine.self ctx with
        | 0 ->
            Machine.send ctx ~dest:1 ~tag:0 ~bytes:1000 ();
            Machine.clock ctx
        | _ ->
            let () = Machine.recv ctx ~src:0 ~tag:0 in
            Machine.clock ctx)
  in
  let expected_recv =
    p.Cost_model.send_overhead +. p.Cost_model.msg_latency
    +. p.Cost_model.per_hop
    +. (1000.0 *. p.Cost_model.per_byte)
    +. p.Cost_model.recv_overhead
  in
  Alcotest.(check (float 1e-9))
    "async sender only pays overhead" p.Cost_model.send_overhead
    r.Machine.values.(0);
  Alcotest.(check (float 1e-9)) "receiver clock" expected_recv
    r.Machine.values.(1)

let test_sync_sender_blocks () =
  let cost = Cost_model.make Cost_model.parix_c_old in
  let p = cost.Cost_model.params in
  let cf = Cost_model.parix_c_old.Cost_model.comm_factor in
  let r =
    Machine.run ~cost ~topology:(Topology.mesh ~width:2 ~height:1) (fun ctx ->
        match Machine.self ctx with
        | 0 ->
            Machine.send ctx ~dest:1 ~tag:0 ~bytes:1000 ();
            Machine.clock ctx
        | _ ->
            let () = Machine.recv ctx ~src:0 ~tag:0 in
            0.0)
  in
  let expected =
    cf
    *. (p.Cost_model.send_overhead +. p.Cost_model.msg_latency
        +. p.Cost_model.per_hop
        +. (1000.0 *. p.Cost_model.per_byte))
  in
  Alcotest.(check (float 1e-9))
    "sync sender waits for delivery" expected r.Machine.values.(0)

let test_recv_waits_for_arrival () =
  let p = Cost_model.transputer in
  let r =
    run ~procs:2 (fun ctx ->
        match Machine.self ctx with
        | 0 ->
            Machine.send ctx ~dest:1 ~tag:0 ~bytes:0 ();
            0.0
        | _ ->
            (* Receiver is already busy past the arrival time: no wait. *)
            Machine.compute ctx 1.0;
            let () = Machine.recv ctx ~src:0 ~tag:0 in
            Machine.clock ctx)
  in
  Alcotest.(check (float 1e-9))
    "no wait when late" (1.0 +. p.Cost_model.recv_overhead)
    r.Machine.values.(1)

let test_self_send () =
  let r =
    run ~procs:1 (fun ctx ->
        Machine.send ctx ~dest:0 ~tag:5 ~bytes:4 7;
        (Machine.recv ctx ~src:0 ~tag:5 : int))
  in
  Alcotest.(check int) "self send" 7 r.Machine.values.(0)

let test_collective_shares_value () =
  let r =
    run ~procs:4 (fun ctx ->
        let v = Machine.collective ctx (fun () -> ref 0) in
        incr v;
        (* all four processors must have incremented the same cell *)
        !v)
  in
  Alcotest.(check int) "last increment sees all" 4 r.Machine.values.(3)

(* Rank 0 evaluates a root call site even when another rank reaches it
   first: here rank 0 waits for rank 1's message before its own. *)
let test_root_collective () =
  List.iter
    (fun (name, run) ->
      let r =
        run (fun ctx ->
            let me = Machine.self ctx in
            if me = 0 then ignore (Machine.recv ctx ~src:1 ~tag:0 : int)
            else Machine.send ctx ~dest:0 ~tag:0 ~bytes:8 me;
            Machine.collective ~root:true ctx (fun () -> me))
      in
      Alcotest.(check (array int))
        (name ^ ": evaluated by") [| 0; 0 |] r.Machine.values)
    (engines_2x1 ())

let test_tags_unique () =
  let r =
    run ~procs:3 (fun ctx ->
        let a = Machine.tags ctx 2 in
        let b = Machine.tags ctx 1 in
        (a, b))
  in
  Array.iter
    (fun (a, b) ->
      Alcotest.(check int) "consecutive" a (b - 2);
      Alcotest.(check int) "same everywhere" (fst r.Machine.values.(0)) a)
    r.Machine.values

let test_trace_records_intervals () =
  let r =
    Machine.run ~trace:true ~topology:(Topology.mesh ~width:2 ~height:1)
      (fun ctx ->
        if Machine.self ctx = 0 then begin
          Machine.compute ctx 2.0;
          Machine.send ctx ~dest:1 ~tag:0 ~bytes:0 ()
        end
        else Machine.recv ctx ~src:0 ~tag:0)
  in
  let events = Trace.events r.Machine.trace in
  Alcotest.(check bool) "has compute event" true
    (List.exists
       (fun e -> e.Trace.proc = 0 && e.Trace.kind = Trace.Compute
                 && e.Trace.duration = 2.0)
       events);
  Alcotest.(check bool) "receiver waited" true
    (List.exists
       (fun e -> e.Trace.proc = 1 && e.Trace.kind = Trace.Wait
                 && e.Trace.duration > 1.9)
       events);
  Alcotest.(check (float 0.05)) "proc 0 fully busy" 1.0
    (Trace.busy_fraction r.Machine.trace ~proc:0 ~makespan:2.0);
  let tl =
    Trace.timeline r.Machine.trace ~nprocs:2 ~makespan:r.Machine.time
  in
  Alcotest.(check bool) "timeline rows" true
    (List.length (String.split_on_char '\n' tl) >= 3)

let test_trace_disabled_is_empty () =
  let r =
    Machine.run ~topology:(Topology.mesh ~width:1 ~height:1) (fun ctx ->
        Machine.compute ctx 1.0)
  in
  Alcotest.(check int) "no events" 0
    (List.length (Trace.events r.Machine.trace))

let test_rendezvous_send_blocks_any_profile () =
  (* the default profile is async, but ~rendezvous:true must still block *)
  let r =
    Machine.run ~topology:(Topology.mesh ~width:2 ~height:1) (fun ctx ->
        match Machine.self ctx with
        | 0 ->
            Machine.send ctx ~rendezvous:true ~dest:1 ~tag:0 ~bytes:10000 ();
            Machine.clock ctx
        | _ ->
            let () = Machine.recv ctx ~src:0 ~tag:0 in
            0.0)
  in
  let p = Cost_model.transputer in
  Alcotest.(check bool) "sender waited for the transfer" true
    (r.Machine.values.(0) > 10000.0 *. p.Cost_model.per_byte)

let test_send_bad_dest_rejected () =
  Alcotest.(check bool) "out of range" true
    (try
       ignore
         (Machine.run ~topology:(Topology.mesh ~width:2 ~height:1)
            (fun ctx -> Machine.send ctx ~dest:7 ~tag:0 ~bytes:0 ()));
       false
     with Invalid_argument _ -> true)

let test_stats_counts () =
  let r =
    run ~procs:2 (fun ctx ->
        if Machine.self ctx = 0 then begin
          Machine.send ctx ~dest:1 ~tag:0 ~bytes:123 ();
          Machine.send ctx ~dest:1 ~tag:0 ~bytes:77 ()
        end
        else begin
          let () = Machine.recv ctx ~src:0 ~tag:0 in
          let () = Machine.recv ctx ~src:0 ~tag:0 in
          ()
        end)
  in
  Alcotest.(check int) "msgs" 2 (Stats.total_msgs r.Machine.stats);
  Alcotest.(check int) "bytes" 200 (Stats.total_bytes r.Machine.stats)

let suite =
  [
    ( "scheduler",
      [
        Alcotest.test_case "spawn order" `Quick test_scheduler_basic;
        Alcotest.test_case "block/wake" `Quick test_scheduler_block_wake;
        Alcotest.test_case "wake ready runs once" `Quick
          test_scheduler_wake_ready_runs_once;
        Alcotest.test_case "wake finished noop" `Quick
          test_scheduler_wake_finished_noop;
        Alcotest.test_case "double wake suspended" `Quick
          test_scheduler_double_wake_suspended;
      ] );
    ( "machine",
      [
        Alcotest.test_case "spmd identity" `Quick test_spmd_identity;
        Alcotest.test_case "message roundtrip" `Quick test_message_roundtrip;
        Alcotest.test_case "recv before send" `Quick test_recv_before_send;
        Alcotest.test_case "fifo per tag" `Quick test_fifo_per_tag;
        Alcotest.test_case "tags distinguish" `Quick test_tags_distinguish;
        Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
        Alcotest.test_case "failure waits for every group" `Quick
          test_failure_waits_for_groups;
        Alcotest.test_case "cancel on every engine" `Quick
          test_cancel_every_engine;
        Alcotest.test_case "clock advance" `Quick test_clock_advance;
        Alcotest.test_case "profile factor" `Quick test_charge_profile_factor;
        Alcotest.test_case "message timing" `Quick test_message_timing;
        Alcotest.test_case "sync sender blocks" `Quick test_sync_sender_blocks;
        Alcotest.test_case "late receiver" `Quick test_recv_waits_for_arrival;
        Alcotest.test_case "self send" `Quick test_self_send;
        Alcotest.test_case "collective" `Quick test_collective_shares_value;
        Alcotest.test_case "root collective" `Quick test_root_collective;
        Alcotest.test_case "tags" `Quick test_tags_unique;
        Alcotest.test_case "stats" `Quick test_stats_counts;
        Alcotest.test_case "rendezvous send" `Quick
          test_rendezvous_send_blocks_any_profile;
        Alcotest.test_case "bad dest" `Quick test_send_bad_dest_rejected;
        Alcotest.test_case "trace intervals" `Quick
          test_trace_records_intervals;
        Alcotest.test_case "trace disabled" `Quick
          test_trace_disabled_is_empty;
      ] );
  ]
