(* Semantics of the section-3 skeletons, exercised on several machine shapes
   including non-dividing partition sizes. *)

let run_on ~width ~height ?(kind = Topology.Default) f =
  (Machine.run ~topology:(Topology.create ~width ~height kind) f)
    .Machine.values

let run1 ~width ~height ?kind f = (run_on ~width ~height ?kind f).(0)

(* Run an SPMD program that returns a distributed array and flatten it only
   after every fiber has finished (reading partitions mid-run would race
   with processors that have not executed their local part yet). *)
let flat1 ~width ~height ?(kind = Topology.Default) f =
  let r = Machine.run ~topology:(Topology.create ~width ~height kind) f in
  Darray.to_flat r.Machine.values.(0)

let shapes = [ (1, 1); (2, 1); (3, 1); (4, 1); (5, 1) ]

let test_create_init () =
  List.iter
    (fun (w, h) ->
      let flat =
        run1 ~width:w ~height:h (fun ctx ->
            let a =
              Skeletons.create ctx ~gsize:[| 7; 3 |] ~distr:Darray.Default
                (fun ix -> (10 * ix.(0)) + ix.(1))
            in
            Darray.to_flat a)
      in
      Alcotest.(check int) "size" 21 (Array.length flat);
      Alcotest.(check int) "elem (2,1)" 21 flat.((2 * 3) + 1))
    shapes

(* Rank 0 runs the initialisation over every element even when another
   rank reaches array_create first (rank 0 waits for rank 1's message),
   at one shard and at two. *)
let test_create_init_on_rank0 () =
  List.iter
    (fun sim_domains ->
      let r =
        Machine.run ~sim_domains ~topology:(Topology.mesh ~width:2 ~height:1)
          (fun ctx ->
            if Machine.self ctx = 0 then
              ignore (Machine.recv ctx ~src:1 ~tag:0 : int)
            else Machine.send ctx ~dest:0 ~tag:0 ~bytes:8 0;
            let t0 = Machine.clock ctx in
            ignore
              (Skeletons.create ctx ~gsize:[| 4 |] ~distr:Darray.Default
                 (fun _ ->
                   Machine.compute ctx 1.0;
                   0));
            Machine.clock ctx -. t0)
      in
      Alcotest.(check (pair bool bool))
        (Printf.sprintf "sim-domains %d: rank 0 paid 4 s, rank 1 nothing"
           sim_domains)
        (true, true)
        (r.Machine.values.(0) >= 4.0, r.Machine.values.(1) < 1.0))
    [ 1; 2 ]

let test_map_square () =
  List.iter
    (fun (w, h) ->
      let flat =
        flat1 ~width:w ~height:h (fun ctx ->
            let a =
              Skeletons.create ctx ~gsize:[| 10 |] ~distr:Darray.Default
                (fun ix -> ix.(0))
            in
            let b =
              Skeletons.create ctx ~gsize:[| 10 |] ~distr:Darray.Default
                (fun _ -> 0)
            in
            Skeletons.map ctx (fun v _ -> v * v) a b;
            b)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "squares on %dx%d" w h)
        (Array.init 10 (fun i -> i * i))
        flat)
    shapes

let test_map_in_situ () =
  let flat =
    flat1 ~width:3 ~height:1 (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| 8 |] ~distr:Darray.Default (fun ix ->
              ix.(0))
        in
        Skeletons.map ctx (fun v _ -> v + 100) a a;
        a)
  in
  Alcotest.(check (array int)) "in situ" (Array.init 8 (fun i -> i + 100)) flat

let test_map_uses_index () =
  let flat =
    flat1 ~width:2 ~height:1 (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| 3; 3 |] ~distr:Darray.Default
            (fun _ -> 0)
        in
        Skeletons.map ctx (fun _ ix -> (10 * ix.(0)) + ix.(1)) a a;
        a)
  in
  Alcotest.(check (array int))
    "indices" [| 0; 1; 2; 10; 11; 12; 20; 21; 22 |] flat

let test_map_into_changes_type () =
  (* the paper's above_thresh example: float array -> int array *)
  let flat =
    flat1 ~width:2 ~height:1 (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| 6 |] ~distr:Darray.Default (fun ix ->
              float_of_int ix.(0) /. 2.0)
        in
        let b =
          Skeletons.create ctx ~gsize:[| 6 |] ~distr:Darray.Default (fun _ ->
              0)
        in
        Skeletons.map_into ctx (fun v _ -> if v >= 1.0 then 1 else 0) a b;
        b)
  in
  Alcotest.(check (array int)) "threshold" [| 0; 0; 1; 1; 1; 1 |] flat

let test_fold_sum () =
  List.iter
    (fun (w, h) ->
      let values =
        run_on ~width:w ~height:h (fun ctx ->
            let a =
              Skeletons.create ctx ~gsize:[| 11 |] ~distr:Darray.Default
                (fun ix -> ix.(0))
            in
            Skeletons.fold ctx ~conv:(fun v _ -> v) ( + ) a)
      in
      Array.iter
        (fun v ->
          Alcotest.(check int)
            (Printf.sprintf "fold on %dx%d known everywhere" w h)
            55 v)
        values)
    shapes

let test_fold_conv_and_index () =
  (* max_abs_in_col-style fold: maximum over column 1 only *)
  let v =
    run1 ~width:3 ~height:1 (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| 5; 3 |] ~distr:Darray.Default
            (fun ix -> (ix.(0) * 10) + ix.(1))
        in
        Skeletons.fold ctx
          ~conv:(fun v ix -> if ix.(1) = 1 then v else min_int)
          max a)
  in
  Alcotest.(check int) "max of column 1" 41 v

let test_fold_empty_partitions () =
  (* more processors than rows: some partitions are empty *)
  let v =
    run1 ~width:5 ~height:1 (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| 3; 2 |] ~distr:Darray.Default
            (fun ix -> ix.(0) + ix.(1))
        in
        Skeletons.fold ctx ~conv:(fun v _ -> v) ( + ) a)
  in
  Alcotest.(check int) "sum with empty parts" 9 v

let test_copy () =
  let flat =
    flat1 ~width:4 ~height:1 (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| 9 |] ~distr:Darray.Default (fun ix ->
              ix.(0) * 7)
        in
        let b =
          Skeletons.create ctx ~gsize:[| 9 |] ~distr:Darray.Default (fun _ ->
              -1)
        in
        Skeletons.copy ctx a b;
        b)
  in
  Alcotest.(check (array int)) "copied" (Array.init 9 (fun i -> i * 7)) flat

let test_broadcast_part () =
  (* p x m array, one row per processor (the paper's piv array): partition 2
     overwrites everybody *)
  let flat =
    flat1 ~width:4 ~height:1 (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| 4; 3 |] ~distr:Darray.Default
            (fun ix -> (100 * ix.(0)) + ix.(1))
        in
        Skeletons.broadcast_part ctx a [| 2; 0 |];
        a)
  in
  Alcotest.(check (array int))
    "all rows equal row 2"
    [| 200; 201; 202; 200; 201; 202; 200; 201; 202; 200; 201; 202 |]
    flat

let test_permute_rows_swap () =
  List.iter
    (fun (w, h) ->
      let flat =
        flat1 ~width:w ~height:h (fun ctx ->
            let a =
              Skeletons.create ctx ~gsize:[| 6; 2 |] ~distr:Darray.Default
                (fun ix -> (10 * ix.(0)) + ix.(1))
            in
            let b =
              Skeletons.create ctx ~gsize:[| 6; 2 |] ~distr:Darray.Default
                (fun _ -> -1)
            in
            let switch_rows i j r = if r = i then j else if r = j then i else r in
            Skeletons.permute_rows ctx a (switch_rows 1 4) b;
            b)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "swap rows on %dx%d" w h)
        [| 0; 1; 40; 41; 20; 21; 30; 31; 10; 11; 50; 51 |]
        flat)
    shapes

let test_permute_rows_rotation () =
  let flat =
    flat1 ~width:3 ~height:1 (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| 5; 1 |] ~distr:Darray.Default
            (fun ix -> ix.(0))
        in
        let b =
          Skeletons.create ctx ~gsize:[| 5; 1 |] ~distr:Darray.Default
            (fun _ -> -1)
        in
        Skeletons.permute_rows ctx a (fun r -> (r + 2) mod 5) b;
        b)
  in
  Alcotest.(check (array int)) "rotation" [| 3; 4; 0; 1; 2 |] flat

let test_permute_rows_rejects_non_bijection () =
  let result =
    run1 ~width:2 ~height:1 (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| 4; 1 |] ~distr:Darray.Default
            (fun ix -> ix.(0))
        in
        let b =
          Skeletons.create ctx ~gsize:[| 4; 1 |] ~distr:Darray.Default
            (fun _ -> 0)
        in
        try
          Skeletons.permute_rows ctx a (fun _ -> 0) b;
          false
        with Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "runtime error" true result

let test_gen_mult_classical () =
  (* 6x6 on 1x1, 2x2 and 3x3 torus grids against a host-side reference *)
  let n = 6 in
  let av ix = ((ix.(0) + 1) * (ix.(1) + 2)) mod 7 in
  let bv ix = ((2 * ix.(0)) + (3 * ix.(1))) mod 5 in
  let reference =
    Array.init (n * n) (fun off ->
        let i = off / n and j = off mod n in
        let s = ref 0 in
        for k = 0 to n - 1 do
          s := !s + (av [| i; k |] * bv [| k; j |])
        done;
        !s)
  in
  List.iter
    (fun q ->
      let flat =
        flat1 ~width:q ~height:q ~kind:Topology.Torus2d (fun ctx ->
            let a =
              Skeletons.create ctx ~gsize:[| n; n |] ~distr:Darray.Torus2d av
            in
            let b =
              Skeletons.create ctx ~gsize:[| n; n |] ~distr:Darray.Torus2d bv
            in
            let c =
              Skeletons.create ctx ~gsize:[| n; n |] ~distr:Darray.Torus2d
                (fun _ -> 0)
            in
            Skeletons.gen_mult ctx ~add:( + ) ~mul:( * ) a b c;
            c)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "matmul on %dx%d torus" q q)
        reference flat)
    [ 1; 2; 3 ]

let test_gen_mult_preserves_inputs () =
  let n = 4 in
  let flat =
    flat1 ~width:2 ~height:2 ~kind:Topology.Torus2d (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| n; n |] ~distr:Darray.Torus2d
            (fun ix -> (n * ix.(0)) + ix.(1))
        in
        let b =
          Skeletons.create ctx ~gsize:[| n; n |] ~distr:Darray.Torus2d
            (fun ix -> ix.(0) - ix.(1))
        in
        let c =
          Skeletons.create ctx ~gsize:[| n; n |] ~distr:Darray.Torus2d
            (fun _ -> 0)
        in
        Skeletons.gen_mult ctx ~add:( + ) ~mul:( * ) a b c;
        a)
  in
  Alcotest.(check (array int))
    "a unchanged"
    (Array.init (n * n) Fun.id)
    flat

let test_gen_mult_minplus_accumulates () =
  (* c starts at "infinity"; gen_mult with (min, +) must fold into it *)
  let n = 4 in
  let inf = 1000000 in
  let av ix = if ix.(0) = ix.(1) then 0 else ((ix.(0) + ix.(1)) mod 3) + 1 in
  let reference =
    Array.init (n * n) (fun off ->
        let i = off / n and j = off mod n in
        let best = ref inf in
        for k = 0 to n - 1 do
          best := min !best (av [| i; k |] + av [| k; j |])
        done;
        !best)
  in
  let flat =
    flat1 ~width:2 ~height:2 ~kind:Topology.Torus2d (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| n; n |] ~distr:Darray.Torus2d av
        in
        let b =
          Skeletons.create ctx ~gsize:[| n; n |] ~distr:Darray.Torus2d av
        in
        let c =
          Skeletons.create ctx ~gsize:[| n; n |] ~distr:Darray.Torus2d
            (fun _ -> inf)
        in
        Skeletons.gen_mult ctx ~add:min ~mul:( + ) a b c;
        c)
  in
  Alcotest.(check (array int)) "min-plus square" reference flat

let test_gen_mult_rejects_aliasing () =
  let caught =
    run1 ~width:2 ~height:2 ~kind:Topology.Torus2d (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| 4; 4 |] ~distr:Darray.Torus2d
            (fun _ -> 1)
        in
        let c =
          Skeletons.create ctx ~gsize:[| 4; 4 |] ~distr:Darray.Torus2d
            (fun _ -> 0)
        in
        try
          Skeletons.gen_mult ctx ~add:( + ) ~mul:( * ) a a c;
          false
        with Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "aliasing rejected" true caught

let test_gen_mult_requires_square_grid () =
  let caught =
    run1 ~width:4 ~height:2 (fun ctx ->
        let mk init =
          Skeletons.create ctx ~gsize:[| 8; 8 |] ~distr:Darray.Default init
        in
        let a = mk (fun _ -> 1) in
        let b = mk (fun _ -> 1) in
        let c = mk (fun _ -> 0) in
        try
          Skeletons.gen_mult ctx ~add:( + ) ~mul:( * ) a b c;
          false
        with Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "non-square grid rejected" true caught

let test_gen_mult_requires_dividing_side () =
  let caught =
    run1 ~width:2 ~height:2 ~kind:Topology.Torus2d (fun ctx ->
        let mk init =
          Skeletons.create ctx ~gsize:[| 5; 5 |] ~distr:Darray.Torus2d init
        in
        let a = mk (fun _ -> 1) in
        let b = mk (fun _ -> 1) in
        let c = mk (fun _ -> 0) in
        try
          Skeletons.gen_mult ctx ~add:( + ) ~mul:( * ) a b c;
          false
        with Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "non-dividing size rejected" true caught

let test_part_bounds_and_elems () =
  let ok =
    run_on ~width:2 ~height:1 (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| 4; 2 |] ~distr:Darray.Default
            (fun ix -> ix.(0))
        in
        let b = Skeletons.part_bounds ctx a in
        let me = Machine.self ctx in
        let expect_lo = if me = 0 then 0 else 2 in
        let v = Skeletons.get_elem ctx a [| expect_lo; 0 |] in
        Skeletons.put_elem ctx a [| expect_lo; 1 |] 99;
        b.Index.lower.(0) = expect_lo
        && v = expect_lo
        && Skeletons.get_elem ctx a [| expect_lo; 1 |] = 99)
  in
  Array.iter (fun v -> Alcotest.(check bool) "bounds/elems" true v) ok

let test_get_elem_nonlocal_rejected () =
  let caught =
    run1 ~width:2 ~height:1 (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| 4 |] ~distr:Darray.Default (fun ix ->
              ix.(0))
        in
        let remote = if Machine.self ctx = 0 then [| 3 |] else [| 0 |] in
        try
          ignore (Skeletons.get_elem ctx a remote);
          false
        with Darray.Local_access_violation _ -> true)
  in
  Alcotest.(check bool) "locality enforced" true caught

let test_destroy_collective () =
  (* Deallocation takes effect once the LAST processor calls destroy: an
     early processor must not invalidate partitions its peers still use. *)
  let r =
    Machine.run ~topology:(Topology.mesh ~width:3 ~height:1) (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| 6 |] ~distr:Darray.Default (fun ix ->
              ix.(0))
        in
        let v =
          if Machine.self ctx = 2 then begin
            (* ranks 0 and 1 have already called destroy by the time rank 2
               runs (FIFO scheduling), yet the array must still be alive *)
            Collectives.barrier ctx ~tag:0;
            Skeletons.get_elem ctx a [| 4 |]
          end
          else begin
            Skeletons.destroy ctx a;
            Collectives.barrier ctx ~tag:0;
            -1
          end
        in
        if Machine.self ctx = 2 then Skeletons.destroy ctx a;
        (a, v))
  in
  let a, _ = r.Machine.values.(0) in
  Alcotest.(check int) "slow reader sees data" 4 (snd r.Machine.values.(2));
  Alcotest.check_raises "dead after the last destroy" Darray.Use_after_destroy
    (fun () -> ignore (Darray.peek a [| 0 |]))

let test_to_flat_collective () =
  let values =
    run_on ~width:3 ~height:1 (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| 7 |] ~distr:Darray.Default (fun ix ->
              ix.(0) * 2)
        in
        Skeletons.to_flat ctx a)
  in
  Array.iter
    (fun flat ->
      Alcotest.(check (array int))
        "every proc gets the gather"
        (Array.init 7 (fun i -> i * 2))
        flat)
    values

let test_to_flat_private_copies () =
  (* regression: to_flat used to hand every processor the same array (the
     broadcast payload travels by reference in the simulator), so mutating
     one processor's result corrupted all the others *)
  let values =
    run_on ~width:3 ~height:1 (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| 6 |] ~distr:Darray.Default (fun ix ->
              ix.(0))
        in
        let flat = Skeletons.to_flat ctx a in
        (* the root overwrites its copy after the collective returns *)
        if Machine.self ctx = 0 then flat.(0) <- 999;
        flat)
  in
  Alcotest.(check int) "rank 0 sees its write" 999 values.(0).(0);
  Alcotest.(check int) "rank 1 unaffected" 0 values.(1).(0);
  Alcotest.(check int) "rank 2 unaffected" 0 values.(2).(0);
  Alcotest.(check bool) "distinct arrays" true (values.(1) != values.(2))

let fold_bytes_sent ?acc_bytes ?acc_bytes_of () =
  let r =
    Machine.run ~topology:(Topology.mesh ~width:4 ~height:1) (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| 16 |] ~distr:Darray.Default (fun ix ->
              ix.(0))
        in
        let m =
          Skeletons.fold ctx ?acc_bytes ?acc_bytes_of
            ~conv:(fun v ix -> (v, ix.(0)))
            (fun a b -> if fst a >= fst b then a else b)
            a
        in
        Skeletons.destroy ctx a;
        m)
  in
  Array.iter
    (fun v -> Alcotest.(check (pair int int)) "argmax" (15, 15) v)
    r.Machine.values;
  Stats.total_bytes r.Machine.stats

let test_fold_acc_bytes_charged () =
  (* conv changes the wire size: the documented default mis-charges at the
     element size, an explicit [acc_bytes] (or a measuring [acc_bytes_of])
     must account for the larger reduction messages *)
  let default_bytes = fold_bytes_sent () in
  let explicit = fold_bytes_sent ~acc_bytes:(2 * Calibration.elem_bytes) () in
  let measured =
    fold_bytes_sent ~acc_bytes_of:(fun _ -> 2 * Calibration.elem_bytes) ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "explicit acc_bytes sends more (%d > %d)" explicit
       default_bytes)
    true (explicit > default_bytes);
  Alcotest.(check int) "acc_bytes_of agrees with acc_bytes" explicit measured

let test_map_charges_mapped_rate () =
  (* identical program, DPFL vs C profile: times must differ by the mapped
     factor ratio on a communication-free map *)
  let time profile =
    let cost = Cost_model.make profile in
    (Machine.run ~cost ~topology:(Topology.mesh ~width:2 ~height:1)
       (fun ctx ->
         let a =
           Skeletons.create ctx ~cost:0.0 ~gsize:[| 1000 |]
             ~distr:Darray.Default (fun _ -> 1.0)
         in
         Skeletons.map ctx ~cost:1e-6 (fun v _ -> v +. 1.0) a a))
      .Machine.time
  in
  let tc = time Cost_model.parix_c and td = time Cost_model.dpfl in
  let ratio = td /. tc in
  Alcotest.(check bool)
    (Printf.sprintf "dpfl/c map ratio ~16 (got %.2f)" ratio)
    true
    (ratio > 8.0 && ratio < 20.0)

let suite =
  [
    ( "skeletons",
      [
        Alcotest.test_case "create" `Quick test_create_init;
        Alcotest.test_case "create initialises on rank 0" `Quick
          test_create_init_on_rank0;
        Alcotest.test_case "map" `Quick test_map_square;
        Alcotest.test_case "map in situ" `Quick test_map_in_situ;
        Alcotest.test_case "map index" `Quick test_map_uses_index;
        Alcotest.test_case "map_into" `Quick test_map_into_changes_type;
        Alcotest.test_case "fold sum" `Quick test_fold_sum;
        Alcotest.test_case "fold conv/index" `Quick test_fold_conv_and_index;
        Alcotest.test_case "fold empty parts" `Quick
          test_fold_empty_partitions;
        Alcotest.test_case "copy" `Quick test_copy;
        Alcotest.test_case "broadcast_part" `Quick test_broadcast_part;
        Alcotest.test_case "permute swap" `Quick test_permute_rows_swap;
        Alcotest.test_case "permute rotation" `Quick
          test_permute_rows_rotation;
        Alcotest.test_case "permute non-bijection" `Quick
          test_permute_rows_rejects_non_bijection;
        Alcotest.test_case "gen_mult classical" `Quick test_gen_mult_classical;
        Alcotest.test_case "gen_mult preserves inputs" `Quick
          test_gen_mult_preserves_inputs;
        Alcotest.test_case "gen_mult min-plus" `Quick
          test_gen_mult_minplus_accumulates;
        Alcotest.test_case "gen_mult aliasing" `Quick
          test_gen_mult_rejects_aliasing;
        Alcotest.test_case "gen_mult grid checked" `Quick
          test_gen_mult_requires_square_grid;
        Alcotest.test_case "gen_mult divisibility" `Quick
          test_gen_mult_requires_dividing_side;
        Alcotest.test_case "bounds and elems" `Quick test_part_bounds_and_elems;
        Alcotest.test_case "nonlocal get rejected" `Quick
          test_get_elem_nonlocal_rejected;
        Alcotest.test_case "destroy" `Quick test_destroy_collective;
        Alcotest.test_case "to_flat" `Quick test_to_flat_collective;
        Alcotest.test_case "to_flat private copies" `Quick
          test_to_flat_private_copies;
        Alcotest.test_case "fold acc_bytes" `Quick test_fold_acc_bytes_charged;
        Alcotest.test_case "mapped rate" `Quick test_map_charges_mapped_rate;
      ] );
  ]
