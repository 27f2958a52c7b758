(* Property-based tests (qcheck, registered as alcotest cases). *)

let qt ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

open QCheck2.Gen

(* ---------------- index / distribution ---------------- *)

let gen_dims = int_range 1 2

let gen_dist =
  gen_dims >>= fun dim ->
  list_repeat dim (int_range 1 12) >>= fun gsize ->
  list_repeat dim (int_range 1 4) >>= fun pgrid ->
  (if dim = 2 then
     oneof
       [
         return Distribution.Block;
         return Distribution.Cyclic;
         int_range 1 3 >|= fun k -> Distribution.Block_cyclic k;
       ]
   else return Distribution.Block)
  >|= fun scheme ->
  let pgrid =
    match scheme with
    | Distribution.Block -> pgrid
    | _ -> [ List.hd pgrid; 1 ]
  in
  Distribution.create ~gsize:(Array.of_list gsize)
    ~pgrid:(Array.of_list pgrid) scheme

let prop_distribution_partitions d =
  (* local counts sum to the volume, and every index is owned by a region
     that contains it *)
  let gsize = Distribution.gsize d in
  let p = Distribution.nprocs d in
  let total = ref 0 in
  for rank = 0 to p - 1 do
    total := !total + Distribution.local_count d ~rank
  done;
  let ok = ref (!total = Index.volume gsize) in
  let b = { Index.lower = Array.map (fun _ -> 0) gsize; upper = gsize } in
  Index.iter b (fun ix ->
      let o = Distribution.owner d ix in
      if not (Distribution.region_mem (Distribution.region d ~rank:o) ix) then
        ok := false);
  !ok

let prop_region_offsets_bijective d =
  let p = Distribution.nprocs d in
  let ok = ref true in
  for rank = 0 to p - 1 do
    let reg = Distribution.region d ~rank in
    let n = Distribution.region_count reg in
    let seen = Array.make n false in
    Distribution.region_iter reg (fun ix ->
        let off = Distribution.region_offset reg ix in
        if off < 0 || off >= n || seen.(off) then ok := false
        else seen.(off) <- true);
    if not (Array.for_all Fun.id seen) then ok := false
  done;
  !ok

let gen_bounds =
  gen_dims >>= fun dim ->
  list_repeat dim (pair (int_range (-5) 5) (int_range 0 6)) >|= fun spans ->
  {
    Index.lower = Array.of_list (List.map fst spans);
    upper = Array.of_list (List.map (fun (lo, ext) -> lo + ext) spans);
  }

let prop_index_iter_matches_offsets b =
  let pos = ref 0 in
  let ok = ref true in
  Index.iter b (fun ix ->
      if Index.local_offset b ix <> !pos then ok := false;
      incr pos);
  !ok && !pos = Index.volume (Index.extent b)

(* ---------------- machine-level properties ---------------- *)

let gen_procs = int_range 1 7

let run_line ~procs f =
  Machine.run ~topology:(Topology.mesh ~width:procs ~height:1) f

let prop_allreduce_sum (procs, values) =
  let values = Array.of_list values in
  if Array.length values < procs then true
  else begin
    let r =
      run_line ~procs (fun ctx ->
          Collectives.allreduce ctx ~tag:0 ~bytes:4 ( + )
            values.(Machine.self ctx))
    in
    let expected = ref 0 in
    for i = 0 to procs - 1 do
      expected := !expected + values.(i)
    done;
    Array.for_all (fun v -> v = !expected) r.Machine.values
  end

let prop_scan_prefix (procs, values) =
  let values = Array.of_list values in
  if Array.length values < procs then true
  else begin
    let r =
      run_line ~procs (fun ctx ->
          Collectives.scan ctx ~tag:0 ~bytes:4 ( + ) values.(Machine.self ctx))
    in
    let ok = ref true in
    let acc = ref 0 in
    Array.iteri
      (fun i got ->
        acc := !acc + values.(i);
        if got <> !acc then ok := false)
      r.Machine.values;
    !ok
  end

(* ---------------- skeleton laws ---------------- *)

let gen_array_setup =
  pair gen_procs (int_range 1 30) >>= fun (procs, n) ->
  int_range 0 1000 >|= fun seed -> (procs, n, seed)

let elems ~n ~seed = Array.init n (fun i -> Workload.hash2 ~seed i 0 mod 100)

let with_array ~procs ~n ~seed f =
  (run_line ~procs (fun ctx ->
       let a =
         Skeletons.create ctx ~gsize:[| n |] ~distr:Darray.Default (fun ix ->
             (elems ~n ~seed).(ix.(0)))
       in
       f ctx a))
    .Machine.values

let prop_map_composition (procs, n, seed) =
  let f v = (2 * v) + 1 and g v = v * v in
  let r =
    run_line ~procs (fun ctx ->
        let mk init =
          Skeletons.create ctx ~gsize:[| n |] ~distr:Darray.Default init
        in
        let a = mk (fun ix -> (elems ~n ~seed).(ix.(0))) in
        let b = mk (fun _ -> 0) in
        let c = mk (fun _ -> 0) in
        (* b := map (f o g) a;  c := map f (map g a) *)
        Skeletons.map ctx (fun v _ -> f (g v)) a b;
        Skeletons.map ctx (fun v _ -> g v) a a;
        Skeletons.map ctx (fun v _ -> f v) a c;
        (b, c))
  in
  let b, c = r.Machine.values.(0) in
  Darray.to_flat b = Darray.to_flat c

let prop_fold_sum_fixed (procs, n, seed) =
  let r =
    with_array ~procs ~n ~seed (fun ctx a ->
        Skeletons.fold ctx ~conv:(fun v _ -> v) ( + ) a)
  in
  let expected = Array.fold_left ( + ) 0 (elems ~n ~seed) in
  Array.for_all (fun v -> v = expected) r

let prop_copy_then_fold_agrees (procs, n, seed) =
  let r =
    run_line ~procs (fun ctx ->
        let a =
          Skeletons.create ctx ~gsize:[| n |] ~distr:Darray.Default (fun ix ->
              (elems ~n ~seed).(ix.(0)))
        in
        let b =
          Skeletons.create ctx ~gsize:[| n |] ~distr:Darray.Default (fun _ ->
              0)
        in
        Skeletons.copy ctx a b;
        Skeletons.fold ctx ~conv:(fun v _ -> v) max b)
  in
  let expected = Array.fold_left max min_int (elems ~n ~seed) in
  Array.for_all (fun v -> v = expected) r.Machine.values

let gen_permutation =
  pair gen_procs (int_range 1 15) >>= fun (procs, n) ->
  int_range 0 1000 >|= fun seed ->
  (* Fisher-Yates driven by the hash *)
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Workload.hash2 ~seed i 7 mod (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  (procs, n, perm)

let prop_permute_rows (procs, n, perm) =
  let r =
    run_line ~procs (fun ctx ->
        let mk init =
          Skeletons.create ctx ~gsize:[| n; 2 |] ~distr:Darray.Default init
        in
        let a = mk (fun ix -> (10 * ix.(0)) + ix.(1)) in
        let b = mk (fun _ -> -1) in
        Skeletons.permute_rows ctx a (fun r -> perm.(r)) b;
        b)
  in
  let flat = Darray.to_flat r.Machine.values.(0) in
  let ok = ref true in
  for row = 0 to n - 1 do
    for col = 0 to 1 do
      if flat.((perm.(row) * 2) + col) <> (10 * row) + col then ok := false
    done
  done;
  !ok

let gen_permutation_scheme =
  (* the permute_rows receive loop assumes every sender's rows arrive in
     ascending source-row order; this must hold for every distribution
     scheme, not just Block *)
  gen_permutation >>= fun (procs, n, perm) ->
  oneof
    [
      return Distribution.Block;
      return Distribution.Cyclic;
      int_range 1 3 >|= fun k -> Distribution.Block_cyclic k;
    ]
  >|= fun scheme -> (procs, n, perm, scheme)

let prop_permute_rows_any_scheme (procs, n, perm, scheme) =
  let r =
    run_line ~procs (fun ctx ->
        let mk init =
          Skeletons.create ctx ~scheme ~gsize:[| n; 3 |] ~distr:Darray.Default
            init
        in
        let a = mk (fun ix -> (10 * ix.(0)) + ix.(1)) in
        let b = mk (fun _ -> -1) in
        Skeletons.permute_rows ctx a (fun r -> perm.(r)) b;
        b)
  in
  let b = r.Machine.values.(0) in
  let ok = ref true in
  for row = 0 to n - 1 do
    for col = 0 to 2 do
      if Darray.peek b [| perm.(row); col |] <> (10 * row) + col then
        ok := false
    done
  done;
  !ok

let gen_gen_mult =
  pair (int_range 1 3) (int_range 1 4) >>= fun (q, mult) ->
  int_range 0 1000 >|= fun seed -> (q, q * mult, seed)

let prop_gen_mult_reference (q, n, seed) =
  let av ix = Workload.hash2 ~seed ix.(0) ix.(1) mod 5 in
  let bv ix = Workload.hash2 ~seed:(seed + 1) ix.(0) ix.(1) mod 5 in
  let r =
    Machine.run ~topology:(Topology.torus2d ~width:q ~height:q ()) (fun ctx ->
        let mk init =
          Skeletons.create ctx ~gsize:[| n; n |] ~distr:Darray.Torus2d init
        in
        let a = mk av in
        let b = mk bv in
        let c = mk (fun _ -> 0) in
        Skeletons.gen_mult ctx ~add:( + ) ~mul:( * ) a b c;
        c)
  in
  let flat = Darray.to_flat r.Machine.values.(0) in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let s = ref 0 in
      for k = 0 to n - 1 do
        s := !s + (av [| i; k |] * bv [| k; j |])
      done;
      if flat.((i * n) + j) <> !s then ok := false
    done
  done;
  !ok

(* ---------------- app invariants ---------------- *)

let prop_shortest_paths_triangle (q, n0, seed) =
  let n = Shortest_paths.adjusted_n ~n:(max q n0) ~q in
  let weight = Workload.graph_weight ~seed ~n ~max_weight:20 in
  let r =
    Machine.run ~topology:(Topology.torus2d ~width:q ~height:q ()) (fun ctx ->
        Shortest_paths.distances ctx ~n ~weight)
  in
  let d = r.Machine.values.(0) in
  let ok = ref true in
  for i = 0 to n - 1 do
    if d.((i * n) + i) <> 0 then ok := false;
    for j = 0 to n - 1 do
      if d.((i * n) + j) > weight [| i; j |] then ok := false;
      for k = 0 to n - 1 do
        if d.((i * n) + j) > d.((i * n) + k) + d.((k * n) + j) then ok := false
      done
    done
  done;
  !ok

let prop_gauss_residual (procs, n0, seed) =
  let n = max procs (min 24 (n0 + procs)) in
  let matrix = Workload.gauss_matrix ~seed ~n in
  let r = run_line ~procs (fun ctx -> Gauss.solve ctx ~n ~matrix) in
  Gauss.residual ~n ~matrix r.Machine.values.(0) < 1e-8

let prop_simulation_deterministic (procs, n0, seed) =
  (* identical runs produce identical makespans, values and stats *)
  let n = max procs (4 + (n0 mod 12)) in
  let weight = Workload.graph_weight ~seed ~n ~max_weight:9 in
  let go () =
    let q = 1 + (procs mod 3) in
    let r =
      Machine.run ~topology:(Topology.torus2d ~width:q ~height:q ())
        (fun ctx ->
          Shortest_paths.distances ctx
            ~n:(Shortest_paths.adjusted_n ~n ~q)
            ~weight)
    in
    (r.Machine.time, r.Machine.values.(0), Stats.total_msgs r.Machine.stats)
  in
  go () = go ()

(* ---------------- parser/printer roundtrip ---------------- *)

let gen_pure_expr =
  let rec go depth =
    if depth = 0 then
      oneof
        [
          (int_range 0 99 >|= fun n -> Ast.mk (Ast.Int n));
          oneofl [ "a"; "b"; "x" ] >|= (fun v -> Ast.mk (Ast.Var v));
        ]
    else
      oneof
        [
          (int_range 0 99 >|= fun n -> Ast.mk (Ast.Int n));
          (oneofl [ "a"; "b"; "x" ] >|= fun v -> Ast.mk (Ast.Var v));
          ( pair (oneofl [ "+"; "-"; "*" ])
              (pair (go (depth - 1)) (go (depth - 1)))
          >|= fun (op, (l, r)) -> Ast.mk (Ast.Binop (op, l, r)) );
          (go (depth - 1) >|= fun e -> Ast.mk (Ast.Unop ("-", e)));
          ( pair (go (depth - 1)) (pair (go (depth - 1)) (go (depth - 1)))
          >|= fun (c, (t, f)) -> Ast.mk (Ast.Cond (c, t, f)) );
        ]
  in
  int_range 0 4 >>= go

let rec expr_equal (a : Ast.expr) (b : Ast.expr) =
  match (a.Ast.desc, b.Ast.desc) with
  | Ast.Int x, Ast.Int y -> x = y
  | Ast.Var x, Ast.Var y -> x = y
  | Ast.Binop (o1, a1, b1), Ast.Binop (o2, a2, b2) ->
      o1 = o2 && expr_equal a1 a2 && expr_equal b1 b2
  | Ast.Unop (o1, a1), Ast.Unop (o2, a2) -> o1 = o2 && expr_equal a1 a2
  | Ast.Cond (c1, t1, f1), Ast.Cond (c2, t2, f2) ->
      expr_equal c1 c2 && expr_equal t1 t2 && expr_equal f1 f2
  | _ -> false

let prop_parse_print_roundtrip e =
  (* Emit_c prints fully parenthesized, so parsing its output must give the
     same tree back *)
  let prog =
    [
      Ast.TFunc
        {
          Ast.f_ret = Ast.TInt;
          f_name = "probe";
          f_params =
            List.map
              (fun v -> { Ast.p_type = Ast.TInt; p_name = v })
              [ "a"; "b"; "x" ];
          f_body = Some [ Ast.SReturn (Some e) ];
        };
    ]
  in
  let printed = Emit_c.program prog in
  match Parser.parse printed with
  | [ Ast.TFunc { Ast.f_body = Some [ Ast.SReturn (Some e') ]; _ } ] ->
      expr_equal e e'
  | _ -> false
  | exception _ -> false

(* ---------------- instantiation preserves semantics ---------------- *)

let gen_hof_program =
  (* random arithmetic body for g(a, b, x); main partially applies g *)
  pair gen_pure_expr (pair (int_range 0 50) (pair (int_range 0 50) (int_range 0 50)))

let prop_instantiation_preserves (body, (va, (vb, vx))) =
  let prog =
    [
      Ast.TFunc
        {
          Ast.f_ret = Ast.TInt;
          f_name = "g";
          f_params =
            List.map
              (fun v -> { Ast.p_type = Ast.TInt; p_name = v })
              [ "a"; "b"; "x" ];
          f_body = Some [ Ast.SReturn (Some body) ];
        };
      Ast.TFunc
        {
          Ast.f_ret = Ast.TInt;
          f_name = "apply1";
          f_params =
            [
              { Ast.p_type = Ast.TFun ([ Ast.TInt ], Ast.TInt); p_name = "f" };
              { Ast.p_type = Ast.TInt; p_name = "x" };
            ];
          f_body =
            Some
              [
                Ast.SReturn
                  (Some
                     (Ast.mk
                        (Ast.Call
                           ( Ast.mk (Ast.Var "f"),
                             [ Ast.mk (Ast.Var "x") ] ))));
              ];
        };
      Ast.TFunc
        {
          Ast.f_ret = Ast.TInt;
          f_name = "main";
          f_params = [];
          f_body =
            Some
              [
                Ast.SReturn
                  (Some
                     (Ast.mk
                        (Ast.Call
                           ( Ast.mk (Ast.Var "apply1"),
                             [
                               Ast.mk
                                 (Ast.Call
                                    ( Ast.mk (Ast.Var "g"),
                                      [
                                        Ast.mk (Ast.Int va);
                                        Ast.mk (Ast.Int vb);
                                      ] ));
                               Ast.mk (Ast.Int vx);
                             ] ))));
              ];
        };
    ]
  in
  try
    let env = Typecheck.check prog in
    let st = Interp.make ~tyenv:env prog in
    let v1 = Interp.call st "main" [] in
    let fo = Instantiate.program env prog ~entries:[ "main" ] in
    let env2 = Typecheck.check fo in
    let st2 = Interp.make ~tyenv:env2 fo in
    let v2 = Interp.call st2 "main" [] in
    Instantiate.is_first_order fo && v1 = v2
  with Value.Skil_runtime_error _ ->
    (* e.g. division is absent from the generator, so this should not
       happen; treat any runtime error as a property failure *)
    false

let suite =
  [
    ( "properties",
      [
        qt "distribution partitions cover exactly" gen_dist
          prop_distribution_partitions;
        qt "region offsets bijective" gen_dist prop_region_offsets_bijective;
        qt "index iter matches offsets" gen_bounds
          prop_index_iter_matches_offsets;
        qt "allreduce sum"
          (pair gen_procs (list_size (return 8) (int_range (-50) 50)))
          prop_allreduce_sum;
        qt "scan prefix sums"
          (pair gen_procs (list_size (return 8) (int_range (-50) 50)))
          prop_scan_prefix;
        qt ~count:60 "map composition law" gen_array_setup
          prop_map_composition;
        qt ~count:60 "fold sum" gen_array_setup prop_fold_sum_fixed;
        qt ~count:60 "copy preserves fold" gen_array_setup
          prop_copy_then_fold_agrees;
        qt ~count:60 "permute rows" gen_permutation prop_permute_rows;
        qt ~count:60 "permute rows under cyclic schemes"
          gen_permutation_scheme prop_permute_rows_any_scheme;
        qt ~count:30 "gen_mult matches reference" gen_gen_mult
          prop_gen_mult_reference;
        qt ~count:10 "shortest paths triangle inequality"
          (triple (int_range 1 3) (int_range 2 10) (int_range 0 1000))
          prop_shortest_paths_triangle;
        qt ~count:20 "gauss residual small"
          (triple (int_range 1 4) (int_range 1 16) (int_range 0 1000))
          prop_gauss_residual;
        qt ~count:20 "simulation deterministic" gen_array_setup
          prop_simulation_deterministic;
        qt ~count:100 "parse/print roundtrip" gen_pure_expr
          prop_parse_print_roundtrip;
        qt ~count:60 "instantiation preserves semantics" gen_hof_program
          prop_instantiation_preserves;
      ] );
  ]
