let run ~procs f =
  Machine.run ~topology:(Topology.mesh ~width:procs ~height:1) f

let sizes = [ 1; 2; 3; 4; 5; 7; 8; 13; 16 ]

let test_bcast () =
  List.iter
    (fun p ->
      for root = 0 to min 2 (p - 1) do
        let r =
          run ~procs:p (fun ctx ->
              let v = if Machine.self ctx = root then 4242 else -1 in
              Collectives.bcast ctx ~tag:0 ~root ~bytes:4 v)
        in
        Array.iteri
          (fun i v ->
            Alcotest.(check int)
              (Printf.sprintf "p=%d root=%d rank=%d" p root i)
              4242 v)
          r.Machine.values
      done)
    sizes

let test_allreduce_max () =
  List.iter
    (fun p ->
      let r =
        run ~procs:p (fun ctx ->
            Collectives.allreduce ctx ~tag:0 ~bytes:4 max
              ((Machine.self ctx * 37) mod 11))
      in
      let expected = Array.fold_left max min_int r.Machine.values in
      Array.iter
        (fun v -> Alcotest.(check int) "all equal max" expected v)
        r.Machine.values)
    sizes

let test_allreduce_nonroot_value () =
  let r =
    run ~procs:5 (fun ctx ->
        Collectives.allreduce ctx ~tag:0 ~bytes:4 ( + ) (Machine.self ctx))
  in
  Array.iter (fun v -> Alcotest.(check int) "sum 0..4" 10 v) r.Machine.values

let test_barrier_aligns_clocks () =
  let r =
    run ~procs:4 (fun ctx ->
        (* rank 3 is slow; after the barrier nobody's clock may be behind
           the time rank 3 entered it *)
        if Machine.self ctx = 3 then Machine.compute ctx 5.0;
        Collectives.barrier ctx ~tag:0;
        Machine.clock ctx)
  in
  Array.iter
    (fun c -> Alcotest.(check bool) "clock past barrier" true (c >= 5.0))
    r.Machine.values

let test_scan () =
  List.iter
    (fun p ->
      let r =
        run ~procs:p (fun ctx ->
            Collectives.scan ctx ~tag:0 ~bytes:4 ( + ) (Machine.self ctx + 1))
      in
      Array.iteri
        (fun i v ->
          Alcotest.(check int)
            (Printf.sprintf "prefix p=%d i=%d" p i)
            ((i + 1) * (i + 2) / 2)
            v)
        r.Machine.values)
    sizes

(* Legacy allgather is the seed's gather to rank 0 (p - 1 messages of
   [bytes]) then its broadcast tree (p - 1 messages of [total]), and every
   rank gets an array of its own, however the broadcast shares it. *)
let test_legacy_allgather_total () =
  List.iter
    (fun p ->
      let r =
        run ~procs:p (fun ctx ->
            Collectives.allgather ctx ~tag:0 ~bytes:8 ~total:1000
              (10 * Machine.self ctx))
      in
      Alcotest.(check int)
        (Printf.sprintf "p=%d bytes on the wire" p)
        ((p - 1) * (8 + 1000))
        (Stats.total_bytes r.Machine.stats);
      Array.iteri
        (fun i a ->
          Alcotest.(check (array int))
            (Printf.sprintf "p=%d rank %d" p i)
            (Array.init p (fun j -> 10 * j))
            a;
          Array.iteri
            (fun j b ->
              if j <> i && a == b then
                Alcotest.failf "p=%d: ranks %d and %d share an array" p i j)
            r.Machine.values)
        r.Machine.values)
    sizes

let test_ring_shift () =
  let r =
    run ~procs:5 (fun ctx ->
        let me = Machine.self ctx in
        Collectives.ring_shift ctx ~tag:0 ~bytes:4 ~dest:((me + 1) mod 5)
          ~src:((me + 4) mod 5) me)
  in
  Alcotest.(check (array int)) "rotated" [| 4; 0; 1; 2; 3 |] r.Machine.values

let test_reduce_stages_logarithmic () =
  (* 16 processors: the legacy allreduce is a binomial reduce then a
     binomial broadcast, 4 message stages each, so the root's finishing
     clock must be far below what two linear patterns would cost. *)
  let r =
    run ~procs:16 (fun ctx ->
        ignore (Collectives.allreduce ctx ~tag:0 ~bytes:4 ( + ) 1 : int);
        Machine.clock ctx)
  in
  let per_stage = 2e-3 in
  Alcotest.(check bool)
    "log stages" true
    (r.Machine.values.(0) < 2.0 *. 5.0 *. per_stage)

(* ------------------------------------------------------------------ *)
(* Algorithm library: every mode must return the values the seed's      *)
(* binomial trees return, bit-identically (floats included — the        *)
(* value plane combines deposits in the legacy bracket order, so even   *)
(* non-associative rounding cannot diverge).                            *)

(* every selectable mode except Legacy itself *)
let modes =
  List.filter_map
    (fun s ->
      match Coll_alg.mode_of_string s with
      | Ok Coll_alg.Legacy -> None
      | Ok m -> Some (s, m)
      | Error e -> failwith e)
    Coll_alg.mode_names

(* one run exercising every collective *)
let exercise ctx =
  let me = Machine.self ctx in
  let p = Machine.nprocs ctx in
  let x = float_of_int ((me * 37) mod 19) +. (1.0 /. 3.0) in
  let b = Collectives.bcast ctx ~tag:0 ~root:(p / 2) ~bytes:64 x in
  let ar = Collectives.allreduce ctx ~tag:1 ~bytes:2048 ( +. ) (x *. 1.5) in
  let sc = Collectives.scan ctx ~tag:2 ~bytes:32 ( +. ) x in
  let ag = Collectives.allgather ctx ~tag:3 ~bytes:512 (x, me) in
  Collectives.barrier ctx ~tag:4;
  let rs =
    Collectives.ring_shift ctx ~tag:5 ~bytes:16 ~dest:((me + 1) mod p)
      ~src:((me + p - 1) mod p) me
  in
  (b, ar, sc, ag, rs)

let topologies =
  List.map (fun p -> (Printf.sprintf "mesh%dx1" p, Topology.mesh ~width:p ~height:1)) sizes
  @ [
      ("mesh4x4", Topology.mesh ~width:4 ~height:4);
      ("torus4x4", Topology.torus2d ~width:4 ~height:4 ());
      ("torus7x1", Topology.torus2d ~width:7 ~height:1 ());
    ]

let test_modes_match_legacy () =
  List.iter
    (fun (tname, topology) ->
      let reference = (Machine.run ~topology exercise).Machine.values in
      List.iter
        (fun (mname, collectives) ->
          let got = (Machine.run ~collectives ~topology exercise).Machine.values in
          Alcotest.(check bool)
            (Printf.sprintf "%s = legacy on %s" mname tname)
            true (got = reference))
        modes)
    topologies

(* the same identity under an adversarial network: drops, duplicates and
   latency spikes with the reliable transport recovering — values must
   still match the seed's fault-free trees, whatever the algorithm *)
let prop_modes_match_legacy_under_faults (topology, seed) =
  let faults =
    {
      (Fault.none ~seed) with
      Fault.link =
        {
          Fault.no_link_faults with
          Fault.drop = 0.08;
          Fault.dup = 0.05;
          Fault.delay = 0.1;
          Fault.delay_factor = 4.0;
        };
    }
  in
  let reference = (Machine.run ~topology exercise).Machine.values in
  List.for_all
    (fun (_, collectives) ->
      (Machine.run ~collectives ~faults ~reliable:true ~topology exercise)
        .Machine.values = reference)
    (("tree", Coll_alg.Legacy) :: modes)

let gen_faulty_topology =
  let open QCheck2.Gen in
  let gen_topo =
    oneof
      [
        (int_range 1 16 >|= fun p -> Topology.mesh ~width:p ~height:1);
        ( pair (int_range 1 4) (int_range 1 4) >|= fun (w, h) ->
          Topology.mesh ~width:w ~height:h );
        ( pair (int_range 2 4) (int_range 2 4) >|= fun (w, h) ->
          Topology.torus2d ~width:w ~height:h () );
        (int_range 2 13 >|= fun p -> Topology.torus2d ~width:p ~height:1 ());
      ]
  in
  pair gen_topo (int_range 0 1000)

(* ------------------------------------------------------------------ *)
(* Charged operations: the new algorithms must not only return the     *)
(* right values — they must charge the message counts and clocks their *)
(* patterns imply.                                                     *)

let run16 ?collectives f =
  Machine.run ?collectives ~topology:(Topology.mesh ~width:4 ~height:4) f

let test_dissemination_barrier_charges () =
  let barrier ctx = Collectives.barrier ctx ~tag:0 in
  let diss = run16 ~collectives:(Coll_alg.Force Coll_alg.Dissemination) barrier in
  let legacy = run16 barrier in
  (* p * ceil(log2 p) pairwise messages at p = 16 *)
  Alcotest.(check int) "dissemination msgs" (16 * 4)
    (Stats.total_msgs diss.Machine.stats);
  (* reduce-then-broadcast costs 2 (p - 1) messages over twice the depth *)
  Alcotest.(check int) "legacy msgs" 30 (Stats.total_msgs legacy.Machine.stats);
  Alcotest.(check bool) "dissemination is faster" true
    (diss.Machine.time < legacy.Machine.time)

let test_binomial_scan_charges () =
  let scan ctx =
    Collectives.scan ctx ~tag:0 ~bytes:512 ( + ) (Machine.self ctx + 1)
  in
  let tree = run16 ~collectives:(Coll_alg.Force Coll_alg.Tree) scan in
  let linear = run16 ~collectives:(Coll_alg.Force Coll_alg.Linear) scan in
  (* Hillis-Steele round k sends p - 2^k messages: 15 + 14 + 12 + 8 *)
  Alcotest.(check int) "binomial scan msgs" 49
    (Stats.total_msgs tree.Machine.stats);
  Alcotest.(check int) "linear scan msgs" 15
    (Stats.total_msgs linear.Machine.stats);
  Alcotest.(check bool) "binomial scan is faster" true
    (tree.Machine.time < linear.Machine.time);
  Alcotest.(check bool) "same prefixes" true
    (tree.Machine.values = linear.Machine.values)

let test_collective_stats_counted () =
  let body ctx =
    let v = Collectives.allreduce ctx ~tag:0 ~bytes:8192 ( + ) 1 in
    ignore (Collectives.bcast ctx ~tag:1 ~root:0 ~bytes:4096 v)
  in
  let legacy = run16 body in
  let auto = run16 ~collectives:Coll_alg.Auto body in
  (* legacy paths predate the counters and stay byte-identical to the seed *)
  Alcotest.(check int) "legacy counts nothing" 0
    (Stats.total_coll_calls legacy.Machine.stats);
  Alcotest.(check int) "auto counts both collectives" 32
    (Stats.total_coll_calls auto.Machine.stats);
  Alcotest.(check bool) "payload bytes counted" true
    (Stats.total_coll_bytes auto.Machine.stats >= 16 * (8192 + 4096));
  let labels = List.map fst (Stats.coll_alg_totals auto.Machine.stats) in
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "label %s is kind[alg]" l)
        true
        (String.contains l '[' && String.contains l ']'))
    labels

let qt ?(count = 25) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let suite =
  [
    ( "collectives",
      [
        Alcotest.test_case "bcast" `Quick test_bcast;
        Alcotest.test_case "allreduce max" `Quick test_allreduce_max;
        Alcotest.test_case "allreduce sum" `Quick test_allreduce_nonroot_value;
        Alcotest.test_case "barrier" `Quick test_barrier_aligns_clocks;
        Alcotest.test_case "scan" `Quick test_scan;
        Alcotest.test_case "ring shift" `Quick test_ring_shift;
        Alcotest.test_case "legacy allgather total" `Quick
          test_legacy_allgather_total;
        Alcotest.test_case "reduce is logarithmic" `Quick
          test_reduce_stages_logarithmic;
        Alcotest.test_case "every algorithm matches legacy values" `Quick
          test_modes_match_legacy;
        Alcotest.test_case "dissemination barrier charged ops" `Quick
          test_dissemination_barrier_charges;
        Alcotest.test_case "binomial scan charged ops" `Quick
          test_binomial_scan_charges;
        Alcotest.test_case "collective stats counted" `Quick
          test_collective_stats_counted;
        qt "algorithms match legacy under faults + reliable"
          gen_faulty_topology prop_modes_match_legacy_under_faults;
      ] );
  ]
