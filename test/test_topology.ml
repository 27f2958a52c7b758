let check = Alcotest.(check int)

let test_mesh_hops () =
  let t = Topology.mesh ~width:4 ~height:4 in
  check "self" 0 (Topology.hops t 5 5);
  check "adjacent" 1 (Topology.hops t 0 1);
  check "row" 3 (Topology.hops t 0 3);
  check "corner to corner" 6 (Topology.hops t 0 15);
  check "manhattan" (Topology.hops t 2 9) (Topology.hops t 9 2)

let test_grid_coords () =
  let t = Topology.mesh ~width:4 ~height:2 in
  Alcotest.(check (pair int int)) "rank 5" (1, 1) (Topology.grid_coords t 5);
  check "roundtrip" 5 (Topology.rank_of_grid t (Topology.grid_coords t 5));
  check "wrap x" 3 (Topology.rank_of_grid t (-1, 0));
  check "wrap y" 1 (Topology.rank_of_grid t (1, -2))

let test_torus_neighbors_short () =
  let t = Topology.torus2d ~width:4 ~height:4 () in
  for r = 0 to 15 do
    List.iter
      (fun dir ->
        let nb = Topology.torus_neighbor t r dir in
        Alcotest.(check bool) "torus edge short" true (Topology.hops t r nb <= 2))
      [ `North; `South; `East; `West ]
  done

let test_torus_naive_long_wrap () =
  let t = Topology.torus2d ~embedding_optimized:false ~width:8 ~height:1 () in
  let nb = Topology.torus_neighbor t 0 `West in
  check "west of 0 wraps" 7 nb;
  check "naive wrap is the full row" 7 (Topology.hops t 0 nb)

let test_torus_neighbor_directions () =
  let t = Topology.torus2d ~width:4 ~height:4 () in
  check "east" 6 (Topology.torus_neighbor t 5 `East);
  check "west" 4 (Topology.torus_neighbor t 5 `West);
  check "north" 1 (Topology.torus_neighbor t 5 `North);
  check "south" 9 (Topology.torus_neighbor t 5 `South);
  check "west wrap" 3 (Topology.torus_neighbor t 0 `West);
  check "north wrap" 12 (Topology.torus_neighbor t 0 `North)

let test_square_side () =
  Alcotest.(check (option int))
    "square" (Some 3)
    (Topology.square_side (Topology.torus2d ~width:3 ~height:3 ()));
  Alcotest.(check (option int))
    "not square" None
    (Topology.square_side (Topology.mesh ~width:4 ~height:2))

let test_embedding_is_permutation () =
  List.iter
    (fun t ->
      let n = Topology.nprocs t in
      let seen = Hashtbl.create n in
      for r = 0 to n - 1 do
        let x, y = Topology.mesh_position t r in
        Alcotest.(check bool) "in mesh" true
          (x >= 0 && x < Topology.width t && y >= 0 && y < Topology.height t);
        Alcotest.(check bool) "distinct" false (Hashtbl.mem seen (x, y));
        Hashtbl.add seen (x, y) ()
      done)
    [
      Topology.mesh ~width:5 ~height:3;
      Topology.torus2d ~width:5 ~height:4 ();
      Topology.torus2d ~embedding_optimized:false ~width:3 ~height:3 ();
    ]

let test_invalid () =
  Alcotest.check_raises "zero width" (Invalid_argument
    "Topology.create: non-positive grid dimension") (fun () ->
      ignore (Topology.mesh ~width:0 ~height:2))

(* 32x32 is the largest square grid; one more column is rejected, and so is
   a grid whose processor count overflows an int. *)
let test_grid_bound () =
  Alcotest.(check int)
    "32x32 accepted" 1024
    (Topology.nprocs (Topology.torus2d ~width:32 ~height:32 ()));
  List.iter
    (fun (width, height) ->
      match Topology.mesh ~width ~height with
      | _ -> Alcotest.failf "%dx%d accepted" width height
      | exception Invalid_argument _ -> ())
    [ (33, 32); (32, 33); (1025, 1); (max_int / 2, 2); (2, max_int) ]

let suite =
  [
    ( "topology",
      [
        Alcotest.test_case "mesh hops" `Quick test_mesh_hops;
        Alcotest.test_case "grid coords" `Quick test_grid_coords;
        Alcotest.test_case "torus edges short" `Quick test_torus_neighbors_short;
        Alcotest.test_case "naive wrap long" `Quick test_torus_naive_long_wrap;
        Alcotest.test_case "torus directions" `Quick
          test_torus_neighbor_directions;
        Alcotest.test_case "square side" `Quick test_square_side;
        Alcotest.test_case "embedding is a permutation" `Quick
          test_embedding_is_permutation;
        Alcotest.test_case "invalid args" `Quick test_invalid;
        Alcotest.test_case "at most 1024 processors" `Quick test_grid_bound;
      ] );
  ]
