(* The shipped .skil example programs: parse, type-check, instantiate, run
   on the simulated machine, and validate results against OCaml references. *)

let source = Test_paths.source

(* each example program once, with its entry point *)
let programs =
  List.sort_uniq compare
    (List.map (fun r -> (r.Test_paths.file, r.entry)) Test_paths.corpus)

let test_all_typecheck () =
  List.iter
    (fun (name, _) ->
      let p = Parser.parse (source name) in
      ignore (Typecheck.check p);
      Alcotest.(check pass) name () ())
    programs

let test_all_instantiate_first_order () =
  List.iter
    (fun (name, entry) ->
      let p = Parser.parse (source name) in
      let env = Typecheck.check p in
      let fo = Instantiate.program env p ~entries:[ entry ] in
      Alcotest.(check bool) (name ^ " first order") true
        (Instantiate.is_first_order fo);
      Alcotest.(check bool) (name ^ " emits C") true
        (String.length (Emit_c.program fo) > 100))
    programs

let test_quicksort_runs_sorted () =
  let p = Parser.parse (source "quicksort.skil") in
  let env = Typecheck.check p in
  let st = Interp.make ~tyenv:env p in
  ignore (Interp.call st "main" []);
  Alcotest.(check string) "sorted" "1 1 2 3 4 5 6 9 " (Interp.output st)

(* the init_system function of gauss.skil, mirrored in OCaml *)
let gauss_skil_matrix _n ix =
  let i = ix.(0) and j = ix.(1) in
  if j = i + 1 then float_of_int (19 - (((i * 7) + (j * 3)) mod 17))
  else if i = j then
    if i mod 3 = 0 then 0.0 else float_of_int (20 + (i * 5 mod 11))
  else float_of_int ((((i * 13) + (j * 29)) mod 7) - 3) /. 8.0

let test_gauss_skil_matches_reference () =
  let n = 8 in
  let r =
    Spmd.run_source ~topology:(Topology.mesh ~width:2 ~height:1)
      (source "gauss.skil") ~entry:"gauss" ~args:[ Value.VInt n ]
  in
  (* collect the printed x slices in rank order *)
  let printed =
    String.concat ""
      (Array.to_list
         (Array.map (fun o -> o.Spmd.printed) r.Machine.values))
  in
  let xs =
    String.split_on_char ' ' (String.trim printed)
    |> List.filter (fun s -> s <> "")
    |> List.map float_of_string
  in
  Alcotest.(check int) "n solution values" n (List.length xs);
  let x = Array.of_list xs in
  let residual = Gauss.residual ~n ~matrix:(gauss_skil_matrix n) x in
  Alcotest.(check bool)
    (Printf.sprintf "residual %.2e small" residual)
    true (residual < 1e-3)

let test_gauss_skil_instantiated_same_output () =
  let n = 8 in
  let run instantiate =
    let r =
      Spmd.run_source ~instantiate ~topology:(Topology.mesh ~width:2 ~height:1)
        (source "gauss.skil") ~entry:"gauss" ~args:[ Value.VInt n ]
    in
    String.concat "|"
      (Array.to_list (Array.map (fun o -> o.Spmd.printed) r.Machine.values))
  in
  Alcotest.(check string) "direct = instantiated" (run false) (run true)

(* matmul.skil's initializers, mirrored *)
let matmul_a ix = float_of_int (((ix.(0) * 3) + ix.(1)) mod 5) /. 2.0
let matmul_b ix = float_of_int ((ix.(0) + (ix.(1) * 7)) mod 4) -. 1.5

let test_matmul_skil_matches_reference () =
  let n = 8 in
  let r =
    Spmd.run_source ~topology:(Topology.torus2d ~width:2 ~height:2 ())
      (source "matmul.skil") ~entry:"matmul" ~args:[ Value.VInt n ]
  in
  let reference = Matmul.reference ~n ~a:matmul_a ~b:matmul_b in
  let expected =
    "c[0][0..3] = "
    ^ String.concat ""
        (List.init 4 (fun j -> Printf.sprintf "%g " reference.(j)))
  in
  Alcotest.(check string) "row excerpt" expected
    (r.Machine.values.(0)).Spmd.printed

let test_shpaths_skil_from_file () =
  let n = 16 in
  let weight ix =
    if ix.(0) = ix.(1) then 0 else 1 + (((ix.(0) * 7) + (ix.(1) * 13)) mod 9)
  in
  let fw = Shortest_paths.floyd_warshall ~n ~weight in
  let expected =
    "distances from node 0: "
    ^ String.concat ""
        (List.init (n / 2) (fun j -> string_of_int fw.(j) ^ " "))
  in
  let r =
    Spmd.run_source ~topology:(Topology.torus2d ~width:2 ~height:2 ())
      (source "shpaths.skil") ~entry:"shpaths" ~args:[ Value.VInt n ]
  in
  Alcotest.(check string) "distances" expected
    (r.Machine.values.(0)).Spmd.printed

let test_threshold_from_file () =
  let r =
    Spmd.run_source ~topology:(Topology.mesh ~width:2 ~height:1)
      (source "threshold.skil") ~entry:"main" ~args:[ Value.VInt 8 ]
  in
  (* rank 0 owns elements 0..3 with values 0, .25, .5, .75 -> all below 1.0 *)
  Alcotest.(check string) "rank 0 flags" "flags of my partition: 0000"
    (r.Machine.values.(0)).Spmd.printed

let test_gauss_skil_profiles_ranked () =
  (* the same Skil source is slower as DPFL and the ranking is stable *)
  let n = 8 in
  let time profile =
    (Spmd.run_source ~cost:(Cost_model.make profile)
       ~topology:(Topology.mesh ~width:2 ~height:1) (source "gauss.skil")
       ~entry:"gauss" ~args:[ Value.VInt n ])
      .Machine.time
  in
  let skil = time Cost_model.skil and dpfl = time Cost_model.dpfl in
  Alcotest.(check bool)
    (Printf.sprintf "dpfl %.4f > skil %.4f" dpfl skil)
    true (dpfl > skil)

let suite =
  [
    ( "skil programs",
      [
        Alcotest.test_case "all typecheck" `Quick test_all_typecheck;
        Alcotest.test_case "all instantiate + emit" `Quick
          test_all_instantiate_first_order;
        Alcotest.test_case "quicksort sorted" `Quick test_quicksort_runs_sorted;
        Alcotest.test_case "gauss vs reference" `Quick
          test_gauss_skil_matches_reference;
        Alcotest.test_case "gauss instantiated equal" `Quick
          test_gauss_skil_instantiated_same_output;
        Alcotest.test_case "matmul vs reference" `Quick
          test_matmul_skil_matches_reference;
        Alcotest.test_case "shpaths from file" `Quick
          test_shpaths_skil_from_file;
        Alcotest.test_case "threshold from file" `Quick
          test_threshold_from_file;
        Alcotest.test_case "profiles ranked" `Quick
          test_gauss_skil_profiles_ranked;
      ] );
  ]
