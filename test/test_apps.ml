let seed = 42

let run_torus ~q f =
  (Machine.run ~topology:(Topology.torus2d ~width:q ~height:q ()) f)
    .Machine.values

let run_mesh ~w ~h f =
  (Machine.run ~topology:(Topology.mesh ~width:w ~height:h) f).Machine.values

(* ---------------- shortest paths ---------------- *)

let test_shortest_paths_matches_floyd_warshall () =
  List.iter
    (fun (q, n) ->
      let weight = Workload.graph_weight ~seed ~n ~max_weight:20 in
      let expected = Shortest_paths.floyd_warshall ~n ~weight in
      let got = (run_torus ~q (fun ctx -> Shortest_paths.distances ctx ~n ~weight)).(0) in
      Alcotest.(check (array int))
        (Printf.sprintf "q=%d n=%d" q n)
        expected got)
    [ (1, 5); (2, 8); (3, 9); (4, 12) ]

let test_shortest_paths_sparse_with_infinities () =
  let q = 2 and n = 10 in
  let weight =
    Workload.sparse_graph_weight ~seed ~n ~max_weight:9 ~density:0.3
      ~inf:Shortest_paths.infinity_weight
  in
  let expected = Shortest_paths.floyd_warshall ~n ~weight in
  let got = (run_torus ~q (fun ctx -> Shortest_paths.distances ctx ~n ~weight)).(0) in
  Alcotest.(check (array int)) "sparse graph" expected got

let test_adjusted_n () =
  Alcotest.(check int) "divides" 200 (Shortest_paths.adjusted_n ~n:200 ~q:2);
  Alcotest.(check int) "paper's 201" 201 (Shortest_paths.adjusted_n ~n:200 ~q:3);
  Alcotest.(check int) "204 for 6" 204 (Shortest_paths.adjusted_n ~n:200 ~q:6);
  Alcotest.(check int) "203 for 7" 203 (Shortest_paths.adjusted_n ~n:200 ~q:7)

(* ---------------- gauss ---------------- *)

let close epsilon a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= epsilon) a b

let test_gauss_matches_reference () =
  List.iter
    (fun (w, h, n) ->
      let matrix = Workload.gauss_matrix ~seed ~n in
      let expected = Gauss.reference_solve ~n ~matrix in
      let got = (run_mesh ~w ~h (fun ctx -> Gauss.solve ctx ~n ~matrix)).(0) in
      Alcotest.(check bool)
        (Printf.sprintf "solution %dx%d n=%d" w h n)
        true
        (close 1e-9 expected got))
    [ (1, 1, 6); (2, 1, 7); (2, 2, 8); (3, 2, 12); (4, 2, 16) ]

let test_gauss_residual_small () =
  let n = 12 in
  let matrix = Workload.gauss_matrix ~seed:7 ~n in
  let x = (run_mesh ~w:3 ~h:1 (fun ctx -> Gauss.solve ctx ~n ~matrix)).(0) in
  Alcotest.(check bool) "residual" true (Gauss.residual ~n ~matrix x < 1e-9)

let test_gauss_pivoting_handles_zero_diagonal () =
  let n = 9 in
  let matrix = Workload.gauss_matrix_wild ~seed ~n in
  let expected = Gauss.reference_solve ~n ~matrix in
  let got =
    (run_mesh ~w:3 ~h:1 (fun ctx ->
         Gauss.solve ~pivoting:Gauss.Partial ctx ~n ~matrix)).(0)
  in
  Alcotest.(check bool) "pivoted solution" true (close 1e-6 expected got);
  Alcotest.(check bool) "residual" true
    (Gauss.residual ~n ~matrix got < 1e-6)

let test_gauss_singular_detected () =
  let n = 6 in
  (* two identical rows -> singular *)
  let matrix ix =
    let i = if ix.(0) = 3 then 2 else ix.(0) in
    Workload.gauss_matrix_wild ~seed ~n [| i; ix.(1) |]
  in
  let caught =
    (run_mesh ~w:2 ~h:1 (fun ctx ->
         try
           ignore (Gauss.solve ~pivoting:Gauss.Partial ctx ~n ~matrix);
           false
         with Gauss.Singular -> true)).(0)
  in
  Alcotest.(check bool) "singular raised" true caught

let test_gauss_partial_more_expensive () =
  let n = 16 in
  let matrix = Workload.gauss_matrix ~seed ~n in
  let t pivoting =
    (Machine.run ~topology:(Topology.mesh ~width:2 ~height:2) (fun ctx ->
         Skeletons.destroy ctx (Gauss.run ~pivoting ctx ~n ~matrix)))
      .Machine.time
  in
  Alcotest.(check bool) "pivot search costs time" true
    (t Gauss.Partial > t Gauss.No_pivot_search)

(* ---------------- matmul ---------------- *)

let test_matmul_matches_reference () =
  List.iter
    (fun (q, n) ->
      let a = Workload.float_matrix ~seed and b = Workload.float_matrix ~seed:(seed + 1) in
      let expected = Matmul.reference ~n ~a ~b in
      let got = (run_torus ~q (fun ctx -> Matmul.product ctx ~n ~a ~b)).(0) in
      Alcotest.(check bool)
        (Printf.sprintf "matmul q=%d n=%d" q n)
        true
        (close 1e-9 expected got))
    [ (1, 4); (2, 8); (3, 9) ]

(* ---------------- workload determinism ---------------- *)

let test_workload_deterministic () =
  let w1 = Workload.graph_weight ~seed:5 ~n:10 ~max_weight:50 [| 3; 4 |] in
  let w2 = Workload.graph_weight ~seed:5 ~n:10 ~max_weight:50 [| 3; 4 |] in
  Alcotest.(check int) "same seed same weight" w1 w2;
  Alcotest.(check int) "zero diagonal" 0
    (Workload.graph_weight ~seed:5 ~n:10 ~max_weight:50 [| 4; 4 |]);
  let d = Workload.gauss_matrix ~seed:5 ~n:8 [| 2; 2 |] in
  Alcotest.(check bool) "dominant diagonal" true (d > 8.0)

let suite =
  [
    ( "apps",
      [
        Alcotest.test_case "shpaths vs floyd-warshall" `Quick
          test_shortest_paths_matches_floyd_warshall;
        Alcotest.test_case "shpaths sparse" `Quick
          test_shortest_paths_sparse_with_infinities;
        Alcotest.test_case "adjusted n" `Quick test_adjusted_n;
        Alcotest.test_case "gauss vs reference" `Quick
          test_gauss_matches_reference;
        Alcotest.test_case "gauss residual" `Quick test_gauss_residual_small;
        Alcotest.test_case "gauss pivoting" `Quick
          test_gauss_pivoting_handles_zero_diagonal;
        Alcotest.test_case "gauss singular" `Quick test_gauss_singular_detected;
        Alcotest.test_case "pivoting costs more" `Quick
          test_gauss_partial_more_expensive;
        Alcotest.test_case "matmul vs reference" `Quick
          test_matmul_matches_reference;
        Alcotest.test_case "workload determinism" `Quick
          test_workload_deterministic;
      ] );
  ]
