(* Sharded simulation (--sim-domains) is unobservable: for any program,
   topology and fault plan, running the machine as N parallel logical
   processes must be bit-identical to one shard, as the path matrix's
   [Bytes] agreement defines it (test_paths.ml), for every N.  Random
   programs ride on [Test_specialize.gen_program]; the matrix runs the
   corpus, and the recv_any-using farm skeleton is pinned here. *)

(* ---------------- property: random programs x topologies x faults ----- *)

let gen_case =
  let open QCheck2.Gen in
  Test_specialize.gen_program >>= fun src ->
  oneofl [ `Mesh22; `Mesh41; `Torus22 ] >>= fun topo ->
  oneofl [ `None; `Reliable 1; `Reliable 7; `Raw 3 ] >|= fun faults ->
  (src, topo, faults)

let print_case (src, topo, faults) =
  Printf.sprintf "topology=%s faults=%s\n%s"
    (match topo with
    | `Mesh22 -> "mesh2x2"
    | `Mesh41 -> "mesh4x1"
    | `Torus22 -> "torus2x2")
    (match faults with
    | `None -> "none"
    | `Reliable seed -> Printf.sprintf "reliable(seed=%d)" seed
    | `Raw seed -> Printf.sprintf "raw-delay(seed=%d)" seed)
    src

let topology_of = function
  | `Mesh22 -> Topology.mesh ~width:2 ~height:2
  | `Mesh41 -> Topology.mesh ~width:4 ~height:1
  | `Torus22 -> Topology.torus2d ~width:2 ~height:2 ()

let prop_sharding_unobservable (src, topo, faults) =
  let topology = topology_of topo in
  let plan spec seed = Some (Printf.sprintf "%s,seed=%d" spec seed) in
  let faults, reliable =
    match faults with
    | `None -> (None, false)
    (* drops force retransmission timing, dup/delay perturb arrivals *)
    | `Reliable seed -> (plan "drop=0.15,dup=0.05,delay=0.1x4" seed, true)
    (* delay-only raw plan: nothing is lost, so no stalls — but arrival
       times shift, stressing the lookahead bound's delay_factor term *)
    | `Raw seed -> (plan "delay=0.2x6" seed, false)
  in
  let s = { Test_paths.default with faults; reliable } in
  let base = Test_paths.observe ~topology s src in
  List.for_all
    (fun n ->
      Test_paths.agrees Bytes base
        (Test_paths.observe ~topology { s with sim_domains = n } src))
    [ 2; 3; 4 ]

(* ---------------- farm: the recv_any path ----------------------------- *)

(* Task_skel.farm is the one user of recv_any — the only
   source-nondeterministic primitive, and the only place the sharded
   engine's lookahead-commit/park/grant machinery decides anything.  Uneven
   task costs make worker completion order differ from rank order, so a
   wrong commit shows up as reordered results or a different makespan. *)
let farm_outcome ~sim_domains =
  let tasks = 50 :: List.init 30 (fun i -> i mod 7) in
  let r =
    Machine.run ~sim_domains ~topology:(Topology.mesh ~width:5 ~height:1)
      (fun ctx ->
        Task_skel.farm ctx
          ~task_bytes:(fun _ -> 8)
          ~result_bytes:(fun _ -> 8)
          ~worker:(fun cost ->
            Machine.compute ctx (float_of_int cost *. 1e-3);
            cost * cost)
          (if Machine.self ctx = 0 then Some tasks else None))
  in
  (r.Machine.values, r.Machine.time)

let test_farm_sharding () =
  let base = farm_outcome ~sim_domains:1 in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "farm: sim-domains %d = sequential" n)
        true
        (farm_outcome ~sim_domains:n = base))
    [ 2; 4; 5 ]

let suite =
  [
    ( "pdes",
      [
        QCheck_alcotest.to_alcotest
          (QCheck2.Test.make ~count:40
             ~name:"random programs: sharded = sequential" ~print:print_case
             gen_case prop_sharding_unobservable);
        Alcotest.test_case "farm (recv_any) identical at sim-domains {1,2,4,5}"
          `Quick test_farm_sharding;
      ] );
  ]
