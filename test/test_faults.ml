(* Fault injection (skil_faults): plan parsing, splittable-PRNG
   determinism, the Reliable transport, stall/crash recovery, and the
   bit-replayability of fault runs. *)

let feq = Alcotest.(check (float 1e-9))

let drop_plan rate =
  {
    (Fault.none ~seed:1) with
    Fault.link = { Fault.no_link_faults with Fault.drop = rate };
  }

(* ---------------- plan parsing ---------------- *)

let test_parse_full () =
  match
    Fault.parse
      "drop=0.1,dup=0.05,corrupt=0.02,delay=0.1x8,stall=2@0.01+0.005,\
       crash=1@0.02,reboot=0.004,seed=7"
  with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok p ->
      feq "drop" 0.1 p.Fault.link.Fault.drop;
      feq "dup" 0.05 p.Fault.link.Fault.dup;
      feq "corrupt" 0.02 p.Fault.link.Fault.corrupt;
      feq "delay" 0.1 p.Fault.link.Fault.delay;
      feq "delay factor" 8.0 p.Fault.link.Fault.delay_factor;
      Alcotest.(check int) "seed" 7 p.Fault.seed;
      feq "reboot" 0.004 p.Fault.reboot;
      (match p.Fault.stalls with
       | [ (2, s) ] ->
           feq "stall at" 0.01 s.Fault.stall_at;
           feq "stall for" 0.005 s.Fault.stall_for
       | _ -> Alcotest.fail "expected one stall on proc 2");
      (match p.Fault.crashes with
       | [ (1, t) ] -> feq "crash time" 0.02 t
       | _ -> Alcotest.fail "expected one crash on proc 1");
      (* crashes scheduled => checkpointing defaults on *)
      Alcotest.(check bool) "ckpt defaults on" true p.Fault.checkpoint

let test_parse_checkpoint_policy () =
  (match Fault.parse "drop=0.2" with
   | Ok p -> Alcotest.(check bool) "no crash, no ckpt" false p.Fault.checkpoint
   | Error m -> Alcotest.failf "parse failed: %s" m);
  match Fault.parse "crash=1@0.02,ckpt=off" with
  | Ok p -> Alcotest.(check bool) "ckpt=off wins" false p.Fault.checkpoint
  | Error m -> Alcotest.failf "parse failed: %s" m

let test_parse_errors () =
  let bad s =
    match Fault.parse s with
    | Ok _ -> Alcotest.failf "parse %S should fail" s
    | Error _ -> ()
  in
  bad "bogus";
  bad "drop=x";
  bad "drop=-0.5";
  bad "stall=2@oops";
  bad "crash=1"

(* ---------------- PRNG ---------------- *)

let test_uniform_deterministic () =
  let k = [| 3; 1; 2; 7; 5; 0 |] in
  let u1 = Fault.uniform ~seed:42 ~key:k in
  let u2 = Fault.uniform ~seed:42 ~key:k in
  feq "same key, same draw" u1 u2;
  Alcotest.(check bool) "in [0,1)" true (u1 >= 0.0 && u1 < 1.0);
  let u3 = Fault.uniform ~seed:42 ~key:[| 3; 1; 2; 7; 6; 0 |] in
  Alcotest.(check bool) "different key, different draw" true (u1 <> u3);
  let u4 = Fault.uniform ~seed:43 ~key:k in
  Alcotest.(check bool) "different seed, different draw" true (u1 <> u4)

let test_decision_extremes () =
  let always = drop_plan 1.0 in
  let never = Fault.none ~seed:1 in
  for seq = 0 to 9 do
    let d = Fault.decision always ~src:0 ~dst:1 ~tag:3 ~seq ~attempt:0 in
    Alcotest.(check bool) "drop=1 always drops" true d.Fault.d_drop;
    let c = Fault.decision never ~src:0 ~dst:1 ~tag:3 ~seq ~attempt:0 in
    Alcotest.(check bool) "clean plan never injects" true (c = Fault.clean)
  done

(* ---------------- machine-level workloads ---------------- *)

(* three rounds of a ring exchange: deterministic (src, tag) receives, so
   reliable-mode values must equal fault-free values at any drop rate *)
let ring_prog ctx =
  let me = Machine.self ctx and p = Machine.nprocs ctx in
  let right = (me + 1) mod p and left = (me + p - 1) mod p in
  let acc = ref (me + 1) in
  for round = 1 to 3 do
    Machine.send ctx ~dest:right ~tag:round ~bytes:8 !acc;
    let v : int = Machine.recv ctx ~src:left ~tag:round in
    acc := !acc + (v * round)
  done;
  !acc

let run_ring ?faults ?reliable ~procs () =
  Machine.run ?faults ?reliable
    ~topology:(Topology.mesh ~width:procs ~height:1)
    ring_prog

let test_reliable_matches_fault_free () =
  let clean = run_ring ~procs:4 () in
  List.iter
    (fun rate ->
      let faulty = run_ring ~faults:(drop_plan rate) ~reliable:true ~procs:4 () in
      Alcotest.(check (array int))
        (Printf.sprintf "values at drop=%.2f" rate)
        clean.Machine.values faulty.Machine.values;
      Alcotest.(check bool)
        (Printf.sprintf "time degrades at drop=%.2f" rate)
        true
        (faulty.Machine.time >= clean.Machine.time))
    [ 0.05; 0.2; 0.5; 0.9 ]

let test_reliable_counters () =
  let r = run_ring ~faults:(drop_plan 0.5) ~reliable:true ~procs:4 () in
  Alcotest.(check bool) "dropped > 0" true (Stats.total_dropped r.Machine.stats > 0);
  Alcotest.(check bool) "retried > 0" true (Stats.total_retried r.Machine.stats > 0);
  Alcotest.(check bool) "acks > 0" true (Stats.total_acks r.Machine.stats > 0)

let test_fault_free_counters_zero () =
  let r = run_ring ~procs:4 () in
  Alcotest.(check int) "dropped" 0 (Stats.total_dropped r.Machine.stats);
  Alcotest.(check int) "retried" 0 (Stats.total_retried r.Machine.stats);
  Alcotest.(check int) "acks" 0 (Stats.total_acks r.Machine.stats);
  Alcotest.(check int) "recoveries" 0 (Stats.total_recoveries r.Machine.stats);
  feq "stall time" 0.0 (Stats.total_stall r.Machine.stats)

let test_raw_drop_stalls () =
  (* without the reliable transport a dropped message starves its receiver:
     the machine must convert the silent deadlock into a diagnostic *)
  match
    Machine.run ~faults:(drop_plan 1.0)
      ~topology:(Topology.mesh ~width:2 ~height:1)
      (fun ctx ->
        if Machine.self ctx = 0 then
          Machine.send ctx ~dest:1 ~tag:9 ~bytes:8 42
        else ignore (Machine.recv ctx ~src:0 ~tag:9 : int))
  with
  | _ -> Alcotest.fail "expected Machine.Stalled"
  | exception Machine.Stalled blocked ->
      (match List.assoc_opt 1 blocked with
       | Some why ->
           let contains s sub =
             let n = String.length s and m = String.length sub in
             let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
             m = 0 || go 0
           in
           Alcotest.(check bool) "names the starving recv" true
             (contains why "recv from p0" && contains why "tag 9")
       | None -> Alcotest.fail "proc 1 missing from Stalled payload")

let test_duplicates_deduped () =
  let clean = run_ring ~procs:3 () in
  let dup_plan =
    {
      (Fault.none ~seed:5) with
      Fault.link = { Fault.no_link_faults with Fault.dup = 1.0 };
    }
  in
  let r = run_ring ~faults:dup_plan ~reliable:true ~procs:3 () in
  Alcotest.(check (array int)) "values despite duplicates"
    clean.Machine.values r.Machine.values

let test_stall_charged () =
  let prog ctx = Machine.compute ctx 0.01 in
  let clean = Machine.run ~topology:(Topology.mesh ~width:1 ~height:1) prog in
  let plan =
    {
      (Fault.none ~seed:1) with
      Fault.stalls = [ (0, { Fault.stall_at = 0.0; Fault.stall_for = 0.005 }) ];
    }
  in
  let r = Machine.run ~faults:plan ~topology:(Topology.mesh ~width:1 ~height:1) prog in
  feq "stall extends makespan" (clean.Machine.time +. 0.005) r.Machine.time;
  feq "stall accounted" 0.005 (Stats.total_stall r.Machine.stats)

let test_crash_recovery () =
  let prog ctx =
    let r = ref 0 in
    Machine.protect ctx ~bytes:8
      ~snapshot:(fun () -> !r)
      ~restore:(fun v -> r := v)
      (fun () ->
        Machine.compute ctx 0.01;
        r := !r + 1);
    !r
  in
  let plan =
    { (Fault.none ~seed:1) with Fault.crashes = [ (0, 1e-4) ]; Fault.reboot = 0.002 }
  in
  let clean = Machine.run ~topology:(Topology.mesh ~width:1 ~height:1) prog in
  let r = Machine.run ~faults:plan ~topology:(Topology.mesh ~width:1 ~height:1) prog in
  Alcotest.(check int) "value survives the crash" clean.Machine.values.(0)
    r.Machine.values.(0);
  Alcotest.(check int) "one recovery" 1 (Stats.total_recoveries r.Machine.stats);
  Alcotest.(check bool) "reboot + re-execution charged" true
    (r.Machine.time > clean.Machine.time +. 0.002)

let test_skeleton_crash_recovery () =
  (* a crash mid-skeleton restores the checkpointed partition and
     re-executes: the collective still returns the fault-free result *)
  let n = 16 in
  let prog ctx =
    let a =
      Skeletons.create ctx ~gsize:[| n |] ~distr:Darray.Default (fun ix ->
          ix.(0))
    in
    Skeletons.map ctx (fun v _ -> (2 * v) + 1) a a;
    let s = Skeletons.fold ctx ~conv:(fun v _ -> v) ( + ) a in
    Skeletons.destroy ctx a;
    s
  in
  let plan =
    {
      (Fault.none ~seed:1) with
      Fault.crashes = [ (1, 1e-6) ];
      Fault.reboot = 0.001;
      Fault.checkpoint = true;
    }
  in
  let topo = Topology.mesh ~width:2 ~height:1 in
  let clean = Machine.run ~topology:topo prog in
  let r = Machine.run ~faults:plan ~topology:topo prog in
  Alcotest.(check (array int)) "fold result survives the crash"
    clean.Machine.values r.Machine.values;
  Alcotest.(check bool) "recovered at least once" true
    (Stats.total_recoveries r.Machine.stats >= 1)

let test_replay_bit_identical () =
  let plan =
    match Fault.parse "drop=0.3,dup=0.1,corrupt=0.05,delay=0.2x4,seed=9" with
    | Ok p -> p
    | Error m -> Alcotest.failf "parse failed: %s" m
  in
  let go () =
    let r =
      Machine.run ~faults:plan ~reliable:true ~trace:true
        ~topology:(Topology.mesh ~width:3 ~height:1)
        ring_prog
    in
    ( r.Machine.values,
      r.Machine.time,
      Stats.total_dropped r.Machine.stats,
      Stats.total_retried r.Machine.stats,
      Profile.chrome_json r.Machine.trace ~nprocs:3 )
  in
  let v1, t1, d1, rt1, j1 = go () in
  let v2, t2, d2, rt2, j2 = go () in
  Alcotest.(check (array int)) "values replay" v1 v2;
  feq "makespan replays" t1 t2;
  Alcotest.(check int) "drops replay" d1 d2;
  Alcotest.(check int) "retries replay" rt1 rt2;
  Alcotest.(check string) "chrome trace replays byte-for-byte" j1 j2

(* ---------------- corpus-level: .skil program under faults ---------- *)

let test_skil_program_under_faults () =
  let gauss = Test_paths.row "gauss.skil" "gauss" ~args:[ 8 ] (2, 2) in
  let go s = Test_paths.observe_row s gauss in
  Test_paths.expect ~what:"gauss.skil output under 20% loss" Values
    (go Test_paths.default)
    (go
       {
         Test_paths.default with
         faults = Some "drop=0.2,seed=3";
         reliable = true;
       })

(* ---------------- qcheck: reliable delivery is value-transparent ----- *)

let qt ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let gen_fault_setup =
  let open QCheck2.Gen in
  int_range 2 5 >>= fun procs ->
  int_range 0 20 >>= fun droppct ->
  int_range 0 10 >>= fun duppct ->
  int_range 0 10 >>= fun corruptpct ->
  int_range 1 1000 >|= fun seed -> (procs, droppct, duppct, corruptpct, seed)

let prop_reliable_value_transparent (procs, droppct, duppct, corruptpct, seed) =
  let plan =
    {
      (Fault.none ~seed) with
      Fault.link =
        {
          Fault.no_link_faults with
          Fault.drop = float_of_int droppct /. 100.0;
          Fault.dup = float_of_int duppct /. 100.0;
          Fault.corrupt = float_of_int corruptpct /. 100.0;
        };
    }
  in
  let clean = run_ring ~procs () in
  let faulty = run_ring ~faults:plan ~reliable:true ~procs () in
  clean.Machine.values = faulty.Machine.values

let suite =
  [
    ( "faults",
      [
        Alcotest.test_case "parse full spec" `Quick test_parse_full;
        Alcotest.test_case "parse checkpoint policy" `Quick
          test_parse_checkpoint_policy;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "uniform deterministic" `Quick
          test_uniform_deterministic;
        Alcotest.test_case "decision extremes" `Quick test_decision_extremes;
        Alcotest.test_case "reliable matches fault-free" `Quick
          test_reliable_matches_fault_free;
        Alcotest.test_case "reliable counters" `Quick test_reliable_counters;
        Alcotest.test_case "fault-free counters zero" `Quick
          test_fault_free_counters_zero;
        Alcotest.test_case "raw drop stalls with diagnostic" `Quick
          test_raw_drop_stalls;
        Alcotest.test_case "duplicates deduped" `Quick test_duplicates_deduped;
        Alcotest.test_case "stall charged" `Quick test_stall_charged;
        Alcotest.test_case "crash recovery (protect)" `Quick
          test_crash_recovery;
        Alcotest.test_case "crash recovery (skeleton checkpoint)" `Quick
          test_skeleton_crash_recovery;
        Alcotest.test_case "replay bit-identical" `Quick
          test_replay_bit_identical;
        Alcotest.test_case "gauss.skil under faults" `Quick
          test_skil_program_under_faults;
        qt "reliable transport is value-transparent" gen_fault_setup
          prop_reliable_value_transparent;
      ] );
  ]
