let seed = 13

let run_with profile ~topology f =
  Machine.run ~cost:(Cost_model.make profile) ~topology f

let test_parix_shortest_paths_correct () =
  List.iter
    (fun (q, n) ->
      let weight = Workload.graph_weight ~seed ~n ~max_weight:15 in
      let expected = Shortest_paths.floyd_warshall ~n ~weight in
      let r =
        run_with Cost_model.parix_c
          ~topology:(Topology.torus2d ~width:q ~height:q ())
          (fun ctx -> Parix_c.shortest_paths_global ctx ~n ~weight)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "parix shpaths q=%d n=%d" q n)
        expected r.Machine.values.(0))
    [ (1, 4); (2, 8); (3, 9) ]

let test_parix_old_style_also_correct () =
  (* synchronous sends + naive embedding change timing, never results *)
  let q = 2 and n = 8 in
  let weight = Workload.graph_weight ~seed ~n ~max_weight:15 in
  let expected = Shortest_paths.floyd_warshall ~n ~weight in
  let r =
    run_with Cost_model.parix_c_old
      ~topology:(Topology.torus2d ~embedding_optimized:false ~width:q ~height:q ())
      (fun ctx -> Parix_c.shortest_paths_global ctx ~n ~weight)
  in
  Alcotest.(check (array int)) "old style" expected r.Machine.values.(0)

let close epsilon a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= epsilon) a b

let test_parix_gauss_correct () =
  List.iter
    (fun (w, h, n) ->
      let matrix = Workload.gauss_matrix ~seed ~n in
      let expected = Gauss.reference_solve ~n ~matrix in
      let r =
        run_with Cost_model.parix_c ~topology:(Topology.mesh ~width:w ~height:h)
          (fun ctx -> Parix_c.gauss ctx ~n ~matrix)
      in
      Array.iter
        (fun got ->
          Alcotest.(check bool)
            (Printf.sprintf "parix gauss %dx%d n=%d" w h n)
            true (close 1e-9 expected got))
        r.Machine.values)
    [ (1, 1, 5); (2, 1, 8); (2, 2, 9); (3, 2, 13) ]

let test_parix_gauss_pivoting () =
  let n = 9 in
  let matrix = Workload.gauss_matrix_wild ~seed ~n in
  let expected = Gauss.reference_solve ~n ~matrix in
  let r =
    run_with Cost_model.parix_c ~topology:(Topology.mesh ~width:3 ~height:1)
      (fun ctx -> Parix_c.gauss ~pivoting:true ctx ~n ~matrix)
  in
  Alcotest.(check bool) "pivoted" true (close 1e-6 expected r.Machine.values.(0))

let test_parix_matmul_correct () =
  let n = 8 and q = 2 in
  let a = Workload.float_matrix ~seed and b = Workload.float_matrix ~seed:(seed + 3) in
  let expected = Matmul.reference ~n ~a ~b in
  let r =
    run_with Cost_model.parix_c
      ~topology:(Topology.torus2d ~width:q ~height:q ())
      (fun ctx -> Parix_c.matmul_global ctx ~n ~a ~b)
  in
  Alcotest.(check bool) "matmul" true (close 1e-9 expected r.Machine.values.(0))

let test_parix_agrees_with_skeleton_version () =
  (* the hand-written and the skeleton implementations must compute the very
     same distance matrices *)
  let q = 2 and n = 12 in
  let weight = Workload.graph_weight ~seed:77 ~n ~max_weight:30 in
  let topology = Topology.torus2d ~width:q ~height:q () in
  let skel =
    (Machine.run ~topology (fun ctx -> Shortest_paths.distances ctx ~n ~weight))
      .Machine.values.(0)
  in
  let hand =
    (run_with Cost_model.parix_c ~topology (fun ctx ->
         Parix_c.shortest_paths_global ctx ~n ~weight))
      .Machine.values.(0)
  in
  Alcotest.(check (array int)) "same distances" skel hand

let test_dpfl_profile_slower_same_values () =
  let q = 2 and n = 8 in
  let weight = Workload.graph_weight ~seed ~n ~max_weight:15 in
  let topology = Topology.torus2d ~width:q ~height:q () in
  let skil = Machine.run ~topology (fun ctx -> Shortest_paths.distances ctx ~n ~weight) in
  let dpfl =
    Machine.run ~cost:(Cost_model.make Cost_model.dpfl) ~topology (fun ctx ->
        Shortest_paths.distances ctx ~n ~weight)
  in
  Alcotest.(check (array int)) "same values" skil.Machine.values.(0)
    dpfl.Machine.values.(0);
  Alcotest.(check bool) "dpfl slower" true (dpfl.Machine.time > skil.Machine.time)

let suite =
  [
    ( "baselines",
      [
        Alcotest.test_case "parix shpaths" `Quick
          test_parix_shortest_paths_correct;
        Alcotest.test_case "parix shpaths old style" `Quick
          test_parix_old_style_also_correct;
        Alcotest.test_case "parix gauss" `Quick test_parix_gauss_correct;
        Alcotest.test_case "parix gauss pivoting" `Quick
          test_parix_gauss_pivoting;
        Alcotest.test_case "parix matmul" `Quick test_parix_matmul_correct;
        Alcotest.test_case "hand = skeleton" `Quick
          test_parix_agrees_with_skeleton_version;
        Alcotest.test_case "dpfl slower, same values" `Quick
          test_dpfl_profile_slower_same_values;
      ] );
  ]
