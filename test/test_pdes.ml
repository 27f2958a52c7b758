(* Sharded simulation (--sim-domains) is unobservable: for any program,
   topology and fault plan, running the machine as N parallel logical
   processes must be bit-identical to one shard, as the path matrix's
   [Bytes] agreement defines it (test_paths.ml), for every N.  Random
   programs ride on [Test_specialize.gen_program]; the matrix runs the
   corpus. *)

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
    (* delay-only raw plan: nothing is lost, so no stalls, but the raw
       fault path delays arrivals *)
    | `Raw seed -> (plan "delay=0.2x6" seed, false)
  in
  let s = { Test_paths.default with faults; reliable } in
  let base = Test_paths.observe ~topology s src in
  List.for_all
    (fun n ->
      Test_paths.agrees Bytes base
        (Test_paths.observe ~topology { s with sim_domains = n } src))
    [ 2; 3; 4 ]

let suite =
  [
    ( "pdes",
      [
        QCheck_alcotest.to_alcotest
          (QCheck2.Test.make ~count:40
             ~name:"random programs: sharded = sequential" ~print:print_case
             gen_case prop_sharding_unobservable);
      ] );
  ]
