let seed = 1996

let time_of ?collectives profile topology f =
  (Machine.run ?collectives ~cost:(Cost_model.make profile) ~topology f)
    .Machine.time

(* Every table/figure/claim below is regenerated from a batch of
   *independent* simulation cells: each thunk runs one self-contained
   [Machine.run] (no mutable state is shared between cells — topologies are
   immutable and workloads are pure hashes), so batches can be dispatched to
   a multicore pool.  Results come back in submission order, making the
   output bit-identical whatever [jobs] is. *)
let run_cells ~jobs thunks = Array.of_list (Pool.run ~jobs thunks)

(* ------------------------------------------------------------------ *)
(* Table 1: shortest paths on sqrtp x sqrtp tori, n ~ 200              *)

type sp_row = {
  sqrtp : int;
  sp_n : int;
  sp_skil : float;
  sp_dpfl : float option;
  sp_parix_old : float option;
}

let paper_table1 =
  [
    (2, Some 1524.22, 234.29, Some 259.49);
    (3, None, 107.69, None);
    (4, Some 387.23, 60.78, Some 65.79);
    (5, None, 39.56, None);
    (6, Some 185.13, 29.70, Some 31.53);
    (7, None, 21.83, None);
    (8, Some 98.76, 16.34, Some 16.92);
  ]

let sp_run ctx ~n =
  let weight = Workload.graph_weight ~seed ~n ~max_weight:100 in
  let a = Shortest_paths.run ctx ~n ~weight in
  Skeletons.destroy ctx a

let table1 ?(quick = false) ?(jobs = 1) () =
  let base_n = if quick then 36 else 200 in
  let sqrtps = if quick then [ 2; 3; 4 ] else [ 2; 3; 4; 5; 6; 7; 8 ] in
  let comparison_points = if quick then [ 2; 4 ] else [ 2; 4; 6; 8 ] in
  let rows =
    List.map
      (fun q ->
        let n = Shortest_paths.adjusted_n ~n:base_n ~q in
        (q, n, List.mem q comparison_points))
      sqrtps
  in
  let thunks =
    List.concat_map
      (fun (q, n, measured) ->
        let torus = Topology.torus2d ~width:q ~height:q () in
        let naive =
          Topology.torus2d ~embedding_optimized:false ~width:q ~height:q ()
        in
        [
          (fun () ->
            Some (time_of Cost_model.skil torus (fun ctx -> sp_run ctx ~n)));
          (fun () ->
            if measured then
              Some (time_of Cost_model.dpfl torus (fun ctx -> sp_run ctx ~n))
            else None);
          (fun () ->
            if measured then
              Some
                (time_of Cost_model.parix_c_old naive (fun ctx ->
                     ignore
                       (Parix_c.shortest_paths ctx ~n
                          ~weight:
                            (Workload.graph_weight ~seed ~n ~max_weight:100))))
            else None);
        ])
      rows
  in
  let res = run_cells ~jobs thunks in
  List.mapi
    (fun i (q, n, _) ->
      {
        sqrtp = q;
        sp_n = n;
        sp_skil = Option.get res.(3 * i);
        sp_dpfl = res.((3 * i) + 1);
        sp_parix_old = res.((3 * i) + 2);
      })
    rows

(* ------------------------------------------------------------------ *)
(* Table 2: Gaussian elimination without pivot search                  *)

type gauss_cell = {
  g_n : int;
  g_skil : float;
  g_dpfl : float option;
  g_parix : float;
}

type gauss_row = { grid : int * int; cells : gauss_cell list }

let paper_table2 =
  [
    ( (2, 2),
      [
        (64, 2.06, Some 6.17, 2.40);
        (128, 14.77, Some 6.52, 2.51);
        (256, 113.29, Some 6.65, 2.60);
        (384, 377.62, Some 6.69, 2.64);
      ] );
    ( (4, 4),
      [
        (64, 0.91, Some 4.82, 1.57);
        (128, 4.83, Some 5.73, 1.73);
        (256, 32.06, Some 6.22, 2.02);
        (384, 102.16, Some 6.40, 2.20);
        (512, 236.13, Some 6.48, 2.31);
        (640, 453.86, None, 2.38);
      ] );
    ( (8, 4),
      [
        (64, 0.85, Some 3.87, 1.25);
        (128, 3.49, Some 4.88, 1.24);
        (256, 19.42, Some 5.62, 1.45);
        (384, 58.03, Some 5.96, 1.65);
        (512, 129.89, Some 6.12, 1.78);
        (640, 244.77, Some 6.24, 1.90);
      ] );
    ( (8, 8),
      [
        (64, 0.85, Some 3.48, 1.04);
        (128, 2.94, Some 4.17, 0.94);
        (256, 13.57, Some 4.78, 1.03);
        (384, 37.03, Some 5.21, 1.15);
        (512, 78.71, Some 5.47, 1.26);
        (640, 143.28, Some 5.68, 1.37);
      ] );
  ]

let gauss_run ctx ~n =
  let matrix = Workload.gauss_matrix ~seed ~n in
  let b = Gauss.run ctx ~n ~matrix in
  Skeletons.destroy ctx b

(* One representative Table-2 cell re-run with structured tracing on: the
   unit behind --trace-out/--profile in bench/main.exe.
   Tracing never alters simulated clocks, so the returned makespan equals
   the table's corresponding (untraced) cell. *)
let traced_gauss_cell ?(quick = false) () =
  let n = if quick then 32 else 64 in
  let w, h = (2, 2) in
  ( n,
    (w, h),
    Machine.run ~trace:true ~cost:(Cost_model.make Cost_model.skil)
      ~topology:(Topology.mesh ~width:w ~height:h)
      (fun ctx -> gauss_run ctx ~n) )

(* The paper's measurement grid: the 2x2 network stops at n = 384 ("larger
   problem sizes could only be fitted into larger networks" — two n x (n+1)
   float arrays per 4 processors exceed 1 MB/node beyond that), and no DPFL
   figure is reported for (4x4, n = 640). *)
let full_cells =
  [
    ((2, 2), [ 64; 128; 256; 384 ]);
    ((4, 4), [ 64; 128; 256; 384; 512; 640 ]);
    ((8, 4), [ 64; 128; 256; 384; 512; 640 ]);
    ((8, 8), [ 64; 128; 256; 384; 512; 640 ]);
  ]

let dpfl_measured (w, h) n = not ((w, h) = (4, 4) && n = 640)

let quick_cells = [ ((2, 2), [ 32; 64 ]); ((4, 2), [ 32; 64 ]) ]

let table2 ?(quick = false) ?(jobs = 1) () =
  let grid_spec = if quick then quick_cells else full_cells in
  let flat_cells =
    List.concat_map
      (fun ((w, h), ns) -> List.map (fun n -> ((w, h), n)) ns)
      grid_spec
  in
  let thunks =
    List.concat_map
      (fun ((w, h), n) ->
        let topo = Topology.mesh ~width:w ~height:h in
        [
          (fun () ->
            Some (time_of Cost_model.skil topo (fun ctx -> gauss_run ctx ~n)));
          (fun () ->
            if dpfl_measured (w, h) n then
              Some (time_of Cost_model.dpfl topo (fun ctx -> gauss_run ctx ~n))
            else None);
          (fun () ->
            Some
              (time_of Cost_model.parix_c topo (fun ctx ->
                   ignore
                     (Parix_c.gauss ctx ~n
                        ~matrix:(Workload.gauss_matrix ~seed ~n)))));
        ])
      flat_cells
  in
  let res = run_cells ~jobs thunks in
  let celli = ref 0 in
  List.map
    (fun (grid, ns) ->
      let cells =
        List.map
          (fun n ->
            let i = !celli in
            incr celli;
            {
              g_n = n;
              g_skil = Option.get res.(3 * i);
              g_dpfl = res.((3 * i) + 1);
              g_parix = Option.get res.((3 * i) + 2);
            })
          ns
      in
      { grid; cells })
    grid_spec

let figure1 rows =
  let ns =
    List.sort_uniq compare
      (List.concat_map (fun r -> List.map (fun c -> c.g_n) r.cells) rows)
  in
  let series_for f =
    List.filter_map
      (fun n ->
        let points =
          List.filter_map
            (fun r ->
              let w, h = r.grid in
              let p = float_of_int (w * h) in
              match List.find_opt (fun c -> c.g_n = n) r.cells with
              | Some c -> Option.map (fun y -> (p, y)) (f c)
              | None -> None)
            rows
        in
        if points = [] then None
        else Some { Series.label = Printf.sprintf "n = %d" n; points })
      ns
  in
  let speedups =
    series_for (fun c -> Option.map (fun d -> d /. c.g_skil) c.g_dpfl)
  in
  let slowdowns = series_for (fun c -> Some (c.g_skil /. c.g_parix)) in
  (speedups, slowdowns)

(* ------------------------------------------------------------------ *)
(* Claim 5.1: equally optimized matmul, Skil vs C                      *)

type claim51_row = { m_n : int; m_skil : float; m_parix : float }

let claim51 ?(quick = false) ?(jobs = 1) () =
  let cases =
    if quick then [ (2, 32) ] else [ (4, 128); (4, 256); (8, 256); (8, 512) ]
  in
  let thunks =
    List.concat_map
      (fun (q, n) ->
        let torus = Topology.torus2d ~width:q ~height:q () in
        let af = Workload.float_matrix ~seed
        and bf = Workload.float_matrix ~seed:(seed + 9) in
        [
          (fun () ->
            time_of Cost_model.skil torus (fun ctx ->
                Skeletons.destroy ctx (Matmul.run ctx ~n ~a:af ~b:bf)));
          (fun () ->
            time_of Cost_model.parix_c torus (fun ctx ->
                ignore (Parix_c.matmul ctx ~n ~a:af ~b:bf)));
        ])
      cases
  in
  let res = run_cells ~jobs thunks in
  List.mapi
    (fun i (_q, n) ->
      { m_n = n; m_skil = res.(2 * i); m_parix = res.((2 * i) + 1) })
    cases

(* ------------------------------------------------------------------ *)
(* Claim 5.2: complete Gauss vs the no-pivot-search version            *)

type claim52_row = {
  c2_grid : int * int;
  c2_n : int;
  c2_partial : float;
  c2_full : float;
}

let claim52 ?(quick = false) ?(jobs = 1) () =
  let cases =
    if quick then [ ((2, 2), 32) ]
    else [ ((4, 4), 128); ((4, 4), 256); ((8, 4), 256); ((8, 8), 384) ]
  in
  let thunks =
    List.concat_map
      (fun ((w, h), n) ->
        let topo = Topology.mesh ~width:w ~height:h in
        let matrix = Workload.gauss_matrix_wild ~seed ~n in
        let run pivoting ctx =
          Skeletons.destroy ctx (Gauss.run ~pivoting ctx ~n ~matrix)
        in
        [
          (fun () -> time_of Cost_model.skil topo (run Gauss.No_pivot_search));
          (fun () -> time_of Cost_model.skil topo (run Gauss.Partial));
        ])
      cases
  in
  let res = run_cells ~jobs thunks in
  List.mapi
    (fun i ((w, h), n) ->
      {
        c2_grid = (w, h);
        c2_n = n;
        c2_partial = res.(2 * i);
        c2_full = res.((2 * i) + 1);
      })
    cases

(* ------------------------------------------------------------------ *)
(* Strong scaling                                                      *)

type scaling_row = {
  sc_procs : int;
  sc_time : float;
  sc_speedup : float;
  sc_efficiency : float;
}

let scaling ?(quick = false) ?(jobs = 1) () =
  let n = if quick then 32 else 128 in
  let weight = Workload.graph_weight ~seed ~n ~max_weight:100 in
  let qs = if quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  let thunks =
    List.map
      (fun q ->
        let torus = Topology.torus2d ~width:q ~height:q () in
        fun () ->
          time_of Cost_model.skil torus (fun ctx ->
              Skeletons.destroy ctx (Shortest_paths.run ctx ~n ~weight)))
      qs
  in
  let res = run_cells ~jobs thunks in
  let base = res.(0) (* qs always starts at q = 1 *) in
  List.mapi
    (fun i q ->
      let t = res.(i) in
      let p = q * q in
      {
        sc_procs = p;
        sc_time = t;
        sc_speedup = base /. t;
        sc_efficiency = base /. t /. float_of_int p;
      })
    qs

(* ------------------------------------------------------------------ *)
(* Fault-injection degradation: reliable transport under message loss  *)

type degradation_row = {
  dg_app : string;
  dg_drop : float;
  dg_time : float;
  dg_overhead : float;
  dg_dropped : int;
  dg_retried : int;
}

let drop_rates = [ 0.0; 0.05; 0.1; 0.2 ]

let degradation ?(quick = false) ?(jobs = 1) () =
  let gauss_n = if quick then 32 else 64 in
  let sp_n = if quick then 16 else 48 in
  let sp_weight = Workload.graph_weight ~seed ~n:sp_n ~max_weight:100 in
  let mesh = Topology.mesh ~width:2 ~height:2 in
  let torus = Topology.torus2d ~width:2 ~height:2 () in
  let apps =
    [
      ( "gauss 2x2",
        mesh,
        fun ctx -> gauss_run ctx ~n:gauss_n );
      ( "shpaths 2x2",
        torus,
        fun ctx ->
          Skeletons.destroy ctx (Shortest_paths.run ctx ~n:sp_n ~weight:sp_weight)
      );
    ]
  in
  let cell topo f rate () =
    let faults =
      if rate = 0.0 then None
      else
        Some
          {
            (Fault.none ~seed:1) with
            Fault.link = { Fault.no_link_faults with Fault.drop = rate };
          }
    in
    let r =
      Machine.run ?faults ~reliable:(rate > 0.0)
        ~cost:(Cost_model.make Cost_model.skil)
        ~topology:topo f
    in
    ( r.Machine.time,
      Stats.total_dropped r.Machine.stats,
      Stats.total_retried r.Machine.stats )
  in
  let thunks =
    List.concat_map
      (fun (_, topo, f) -> List.map (cell topo f) drop_rates)
      apps
  in
  let res = run_cells ~jobs thunks in
  let nrates = List.length drop_rates in
  List.concat
    (List.mapi
       (fun ai (name, _, _) ->
         let base, _, _ = res.(ai * nrates) in
         List.mapi
           (fun ri rate ->
             let t, dropped, retried = res.((ai * nrates) + ri) in
             {
               dg_app = name;
               dg_drop = rate;
               dg_time = t;
               dg_overhead = (t /. base) -. 1.0;
               dg_dropped = dropped;
               dg_retried = retried;
             })
           drop_rates)
       apps)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

type ablation = {
  ab_name : string;
  ab_baseline : string;
  ab_time_baseline : float;
  ab_variant : string;
  ab_time_variant : float;
}

let ablations ?(quick = false) ?(jobs = 1) () =
  (* communication-sensitive configuration: small partitions on a larger
     grid, so topology distance and overlap actually show up *)
  let q = if quick then 4 else 8 in
  let n = if quick then 16 else 64 in
  let weight = Workload.graph_weight ~seed ~n ~max_weight:100 in
  let torus = Topology.torus2d ~width:q ~height:q () in
  let sp profile topo () =
    time_of profile topo (fun ctx ->
        Skeletons.destroy ctx (Shortest_paths.run ctx ~n ~weight))
  in
  let sync_skil = { Cost_model.skil with Cost_model.sync_comm = true } in
  let gauss_n = if quick then 32 else 128 in
  let mesh = Topology.mesh ~width:q ~height:(if quick then 2 else 4) in
  let gauss_time profile () =
    time_of profile mesh (fun ctx -> gauss_run ctx ~n:gauss_n)
  in
  (* A Gauss-like triangular sweep (iteration k touches only rows >= k):
     with the paper's block distribution the live rows concentrate on the
     last processors, while the future-work cyclic layout keeps every sweep
     balanced.  Real elimination work is charged per live local row. *)
  let triangular scheme () =
    let nt = if quick then 48 else 192 in
    let m = nt + 1 in
    time_of Cost_model.skil mesh (fun ctx ->
        let a =
          Skeletons.create ctx ~scheme ~gsize:[| nt; m |]
            ~distr:Darray.Default (fun _ -> 0.0)
        in
        let me = Machine.self ctx in
        let tag = Machine.tags ctx 1 in
        let reg = (Darray.part a ~rank:me).Darray.region in
        for k = 0 to nt - 1 do
          let live = ref 0 in
          Distribution.region_iter reg (fun ix ->
              if ix.(1) = 0 && ix.(0) >= k then incr live);
          Machine.charge ctx Cost_model.Mapped ~ops:(!live * m)
            ~base:Calibration.gauss_elem_op;
          (* the pivot broadcast synchronizes every iteration *)
          Collectives.barrier ctx ~tag
        done;
        Skeletons.destroy ctx a)
  in
  let res =
    run_cells ~jobs
      [
        triangular Distribution.Cyclic;
        triangular Distribution.Block;
        sp Cost_model.skil torus;
        sp sync_skil torus;
        gauss_time Cost_model.skil;
        gauss_time Cost_model.dpfl;
      ]
  in
  [
    {
      ab_name = "cyclic distribution (triangular sweep)";
      ab_baseline = "block-cyclic rows (extension)";
      ab_time_baseline = res.(0);
      ab_variant = "block rows (paper)";
      ab_time_variant = res.(1);
    };
    {
      ab_name = "communication overlap (shpaths)";
      ab_baseline = "asynchronous sends";
      ab_time_baseline = res.(2);
      ab_variant = "synchronous sends";
      ab_time_variant = res.(3);
    };
    {
      ab_name = "translation by instantiation (gauss)";
      ab_baseline = "instantiated (Skil)";
      ab_time_baseline = res.(4);
      ab_variant = "closure-based (DPFL model)";
      ab_time_variant = res.(5);
    };
  ]

(* ------------------------------------------------------------------ *)
(* Collective algorithm crossovers (ours)                              *)

type coll_cell = {
  cc_kind : string;
  cc_topo : string;
  cc_p : int;
  cc_bytes : int;
  cc_algs : (string * float) list;
  cc_auto : float;
  cc_chosen : string;
}

type coll_app_row = { ca_app : string; ca_legacy : float; ca_auto : float }

(* One collective per run: tiny deterministic simulations whose makespans
   map the (algorithm, payload) cost surfaces the selection layer predicts
   over.  Independent of --quick on purpose — CI re-checks the recorded
   values under the quick quota, and a quota must not change them. *)
let coll_body kind ~bytes ctx =
  let tag = Machine.tags ctx 1 in
  match kind with
  | `Bcast -> ignore (Collectives.bcast ctx ~tag ~root:0 ~bytes 0)
  | `Allreduce ->
      ignore (Collectives.allreduce ctx ~tag ~bytes ( + ) (Machine.self ctx))
  | `Allgather ->
      ignore (Collectives.allgather ctx ~tag ~bytes (Machine.self ctx))
  | `Scan ->
      ignore (Collectives.scan ctx ~tag ~bytes ( + ) (Machine.self ctx))
  | `Barrier -> Collectives.barrier ctx ~tag

(* "kind[alg]" -> "alg" (the Stats label of the single collective run) *)
let chosen_of stats =
  match Stats.coll_alg_totals stats with
  | (label, _) :: _ -> (
      match (String.index_opt label '[', String.index_opt label ']') with
      | Some l, Some r when r > l + 1 -> String.sub label (l + 1) (r - l - 1)
      | _ -> label)
  | [] -> "?"

let coll_grid =
  let sizes = [ 256; 1024; 4096; 16384; 65536 ] in
  [
    ("bcast", `Bcast, "mesh4x4", `Mesh44,
     [ ("tree", Coll_alg.Tree); ("pipeline", Coll_alg.Pipeline);
       ("vandegeijn", Coll_alg.Vandegeijn) ], sizes);
    ("bcast", `Bcast, "mesh8x8", `Mesh88,
     [ ("tree", Coll_alg.Tree); ("pipeline", Coll_alg.Pipeline);
       ("vandegeijn", Coll_alg.Vandegeijn) ], sizes);
    ("allreduce", `Allreduce, "torus4x4", `Torus44,
     [ ("tree", Coll_alg.Tree); ("recdouble", Coll_alg.Recdouble);
       ("ring", Coll_alg.Ring) ], sizes);
    ("allreduce", `Allreduce, "mesh8x8", `Mesh88,
     [ ("tree", Coll_alg.Tree); ("recdouble", Coll_alg.Recdouble);
       ("ring", Coll_alg.Ring) ], sizes);
    ("allgather", `Allgather, "mesh4x4", `Mesh44,
     [ ("recdouble", Coll_alg.Recdouble); ("ring", Coll_alg.Ring) ],
     [ 64; 1024; 8192 ]);
    ("scan", `Scan, "mesh4x4", `Mesh44,
     [ ("tree", Coll_alg.Tree); ("linear", Coll_alg.Linear) ], [ 8; 4096 ]);
    ("barrier", `Barrier, "mesh8x8", `Mesh88,
     [ ("tree", Coll_alg.Tree); ("dissemination", Coll_alg.Dissemination) ],
     [ 0 ]);
  ]

let collectives_crossover ?(jobs = 1) () =
  let topo_of = function
    | `Mesh44 -> Topology.mesh ~width:4 ~height:4
    | `Mesh88 -> Topology.mesh ~width:8 ~height:8
    | `Torus44 -> Topology.torus2d ~width:4 ~height:4 ()
  in
  let cost = Cost_model.make Cost_model.skil in
  let cells =
    List.concat_map
      (fun (kname, kind, tname, topo_tag, algs, sizes) ->
        let topology = topo_of topo_tag in
        List.map
          (fun bytes ->
            let thunks =
              List.map
                (fun (_, a) () ->
                  ( (Machine.run ~collectives:(Coll_alg.Force a) ~cost
                       ~topology (coll_body kind ~bytes))
                      .Machine.time,
                    "" ))
                algs
              @ [
                  (fun () ->
                    let r =
                      Machine.run ~collectives:Coll_alg.Auto ~cost ~topology
                        (coll_body kind ~bytes)
                    in
                    (r.Machine.time, chosen_of r.Machine.stats));
                ]
            in
            let res = run_cells ~jobs thunks in
            let nalg = List.length algs in
            {
              cc_kind = kname;
              cc_topo = tname;
              cc_p = Topology.nprocs topology;
              cc_bytes = bytes;
              cc_algs =
                List.mapi (fun i (n, _) -> (n, fst res.(i))) algs;
              cc_auto = fst res.(nalg);
              cc_chosen = snd res.(nalg);
            })
          sizes)
      coll_grid
  in
  (* end-to-end: the paper's applications, legacy trees vs auto-selected
     algorithms.  Plain gauss is communication-matched (its pivot-row
     broadcasts sit below every crossover, so auto picks the trees and
     ties); pivoting gauss hits the small-allreduce recdouble win every
     iteration; Cannon's gathered result hits the allgather-vs-
     gather+broadcast win on a 32 KiB payload. *)
  let mesh44 = Topology.mesh ~width:4 ~height:4 in
  let torus44 = Topology.torus2d ~width:4 ~height:4 () in
  let gauss ctx =
    let n = 64 in
    Skeletons.destroy ctx
      (Gauss.run ctx ~n ~matrix:(Workload.gauss_matrix ~seed ~n))
  in
  let gauss_pivot ctx =
    let n = 64 in
    Skeletons.destroy ctx
      (Gauss.run ~pivoting:Gauss.Partial ctx ~n
         ~matrix:(Workload.gauss_matrix_wild ~seed ~n))
  in
  let matmul_global ctx =
    let n = 64 in
    let a = Workload.float_matrix ~seed
    and b = Workload.float_matrix ~seed:(seed + 9) in
    ignore (Parix_c.matmul_global ctx ~n ~a ~b)
  in
  let apps =
    [
      ("gauss-mesh4x4-n64", mesh44, Cost_model.skil, gauss);
      ("gauss-pivot-mesh4x4-n64", mesh44, Cost_model.skil, gauss_pivot);
      ("matmul-global-torus4x4-n64", torus44, Cost_model.parix_c,
       matmul_global);
    ]
  in
  let app_thunks =
    List.concat_map
      (fun (_, topology, profile, f) ->
        [
          (fun () -> (time_of profile topology f, ""));
          (fun () ->
            (time_of ~collectives:Coll_alg.Auto profile topology f, ""));
        ])
      apps
  in
  let app_res = run_cells ~jobs app_thunks in
  let app_rows =
    List.mapi
      (fun i (name, _, _, _) ->
        {
          ca_app = name;
          ca_legacy = fst app_res.(2 * i);
          ca_auto = fst app_res.((2 * i) + 1);
        })
      apps
  in
  (cells, app_rows)
