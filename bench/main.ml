(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 5) on the simulated Parsytec MC, prints them next to
   the published values, and times the simulator itself.

   Usage: main.exe [--quick] [--csv DIR] [--jobs N]
                   [--trace-out FILE] [--profile]
                   [--json FILE] [--check FILE] [--threshold X]
                   [table1|table2|figure1|claim51|claim52|ablations|
                    scaling|degradation|collectives|optimize|pdes|native|
                    bechamel|all]...

   [all] covers every table, figure and claim, the collective crossovers
   and skeleton fusion.  Everything it prints is simulated time, identical
   whatever [--jobs N] is ([--jobs] farms the independent simulation cells
   out to N domains, default all cores), and quick_all.expected pins the
   [--quick all] output byte for byte.  The collectives and optimize
   targets also assert the structural guarantees of what they print.

   [pdes], [native] and [bechamel] measure wall-clock, so they run only
   when named.  [bechamel] produces one list of cells, each of one kind
   (see [kind] below); [--json FILE] dumps them, and [--check FILE]
   compares every cell of a previous dump by the kind it records there,
   with [--threshold] (default 0.5) bounding the wall-clock cells.  It
   also asserts that the compiled engine beats the ast engine and, on
   hosts with at least 4 cores, that sharding the simulator and running
   natively pay off.  With [--quick], Bechamel uses a reduced per-cell
   quota.  A violated check exits 1; a bad command line exits 2. *)

(* ------------------------------------------------------------------ *)

let read path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let skil_source name =
  match
    List.find_opt Sys.file_exists
      [
        "../examples/skil/" ^ name;
        "examples/skil/" ^ name;
        "../../../examples/skil/" ^ name;
      ]
  with
  | Some p -> read p
  | None -> failwith ("cannot find examples/skil/" ^ name)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: wall-clock cost of regenerating one
   representative cell per table/figure. *)

let bechamel_tests () =
  let open Bechamel in
  let seed = 1996 in
  let torus2 = Topology.torus2d ~width:2 ~height:2 () in
  let mesh2 = Topology.mesh ~width:2 ~height:2 in
  let sp_cell () =
    let n = 32 in
    let weight = Workload.graph_weight ~seed ~n ~max_weight:100 in
    Experiments.time_of Cost_model.skil torus2 (fun ctx ->
        Skeletons.destroy ctx (Shortest_paths.run ctx ~n ~weight))
  in
  let gauss_cell pivoting () =
    let n = 32 in
    let matrix = Workload.gauss_matrix ~seed ~n in
    Experiments.time_of Cost_model.skil mesh2 (fun ctx ->
        Skeletons.destroy ctx (Gauss.run ~pivoting ctx ~n ~matrix))
  in
  let figure_cell () =
    (* one gauss cell under both comparators: the unit of work behind every
       Figure 1 point *)
    let n = 32 in
    let matrix = Workload.gauss_matrix ~seed ~n in
    let s =
      Experiments.time_of Cost_model.skil mesh2 (fun ctx ->
          Skeletons.destroy ctx (Gauss.run ctx ~n ~matrix))
    in
    let d =
      Experiments.time_of Cost_model.dpfl mesh2 (fun ctx ->
          Skeletons.destroy ctx (Gauss.run ctx ~n ~matrix))
    in
    d /. s
  in
  let degraded_cell () =
    (* one reliable-transport run under 20% message loss: the wall-clock
       cost of the fault-injection + retransmission machinery *)
    let n = 32 in
    let matrix = Workload.gauss_matrix ~seed ~n in
    let faults =
      {
        (Fault.none ~seed:1) with
        Fault.link = { Fault.no_link_faults with Fault.drop = 0.2 };
      }
    in
    (Machine.run ~faults ~reliable:true
       ~cost:(Cost_model.make Cost_model.skil)
       ~topology:mesh2
       (fun ctx -> Skeletons.destroy ctx (Gauss.run ctx ~n ~matrix)))
      .Machine.time
  in
  let matmul_cell () =
    let n = 32 in
    let a = Workload.float_matrix ~seed
    and b = Workload.float_matrix ~seed:7 in
    Experiments.time_of Cost_model.skil torus2 (fun ctx ->
        Skeletons.destroy ctx (Matmul.run ctx ~n ~a ~b))
  in
  (* the .skil front end: full parse → typecheck → instantiate → simulate
     pipeline under each execution engine (A/B of Spmd's ?engine) *)
  let gauss_src = skil_source "gauss.skil" in
  let shpaths_src = skil_source "shpaths.skil" in
  let mesh21 = Topology.mesh ~width:2 ~height:1 in
  let gauss_skil engine () =
    (Spmd.run_source ~engine ~topology:mesh21 gauss_src ~entry:"gauss"
       ~args:[ Value.VInt 16 ])
      .Machine.time
  in
  let shpaths_skil engine () =
    (Spmd.run_source ~engine ~topology:torus2 shpaths_src ~entry:"shpaths"
       ~args:[ Value.VInt 16 ])
      .Machine.time
  in
  [
    Test.make ~name:"table1_cell(shpaths-2x2-n32)"
      (Staged.stage (fun () -> ignore (sp_cell ())));
    Test.make ~name:"table2_cell(gauss-2x2-n32)"
      (Staged.stage (fun () -> ignore (gauss_cell Gauss.No_pivot_search ())));
    Test.make ~name:"figure1_point(gauss-skil+dpfl)"
      (Staged.stage (fun () -> ignore (figure_cell ())));
    Test.make ~name:"claim51_cell(matmul-2x2-n32)"
      (Staged.stage (fun () -> ignore (matmul_cell ())));
    Test.make ~name:"claim52_cell(gauss-pivoting)"
      (Staged.stage (fun () -> ignore (gauss_cell Gauss.Partial ())));
    Test.make ~name:"degradation_cell(gauss-2x2-drop0.2)"
      (Staged.stage (fun () -> ignore (degraded_cell ())));
    Test.make ~name:"skil_frontend(gauss-n16-ast)"
      (Staged.stage (fun () -> ignore (gauss_skil `Ast ())));
    Test.make ~name:"skil_frontend(gauss-n16-compiled)"
      (Staged.stage (fun () -> ignore (gauss_skil `Compiled ())));
    Test.make ~name:"skil_frontend(shpaths-n16-ast)"
      (Staged.stage (fun () -> ignore (shpaths_skil `Ast ())));
    Test.make ~name:"skil_frontend(shpaths-n16-compiled)"
      (Staged.stage (fun () -> ignore (shpaths_skil `Compiled ())));
  ]

(* ------------------------------------------------------------------ *)
(* Skeleton-fusion cells: every corpus app simulated under
   --optimize none and --optimize fuse.  Simulated makespans and charged
   operations, fully deterministic, so the golden pins them exactly. *)

type opt_cell = {
  oc_app : string;
  oc_none_ms : float;
  oc_fuse_ms : float;
  oc_none_ops : int;
  oc_fuse_ops : int;
  oc_identical : bool;  (* per-processor printed output and values agree *)
}

let optimize_apps =
  [
    ("gauss-n16", "gauss.skil", "gauss", [ Value.VInt 16 ], `Mesh (2, 1));
    ("shpaths-n16", "shpaths.skil", "shpaths", [ Value.VInt 16 ], `Torus (2, 2));
    ("matmul-n8", "matmul.skil", "matmul", [ Value.VInt 8 ], `Torus (2, 2));
    ("jacobi-n16", "jacobi.skil", "jacobi", [ Value.VInt 16 ], `Mesh (2, 2));
  ]

(* fusable pipelines the optimizer must strictly improve (ISSUE acceptance) *)
let optimize_must_improve = [ "gauss-n16"; "matmul-n8"; "jacobi-n16" ]

let optimize_cells () =
  List.map
    (fun (app, file, entry, args, topo) ->
      let topology =
        match topo with
        | `Mesh (w, h) -> Topology.mesh ~width:w ~height:h
        | `Torus (w, h) -> Topology.torus2d ~width:w ~height:h ()
      in
      let src = skil_source file in
      let go optimize =
        Spmd.run_source ~optimize ~trace:true ~topology src ~entry ~args
      in
      let ops r =
        let nprocs = Array.length r.Machine.values in
        let p =
          Profile.of_trace r.Machine.trace ~nprocs ~makespan:r.Machine.time
        in
        List.fold_left
          (fun acc s ->
            acc + s.Profile.ops_kernel + s.Profile.ops_mapped
            + s.Profile.ops_scalar)
          0 p.Profile.spans
      in
      let rn = go `None and rf = go `Fuse in
      let identical =
        Array.length rn.Machine.values = Array.length rf.Machine.values
        && Array.for_all2
             (fun a b ->
               a.Spmd.printed = b.Spmd.printed
               && Value.describe a.Spmd.value = Value.describe b.Spmd.value)
             rn.Machine.values rf.Machine.values
      in
      {
        oc_app = app;
        oc_none_ms = rn.Machine.time *. 1e3;
        oc_fuse_ms = rf.Machine.time *. 1e3;
        oc_none_ops = ops rn;
        oc_fuse_ops = ops rf;
        oc_identical = identical;
      })
    optimize_apps

let print_optimize cells =
  print_endline
    "== Skeleton fusion: simulated makespan and charged ops, none vs fuse ==";
  Printf.printf "%-14s %12s %12s %10s %10s %8s\n" "app" "none (ms)"
    "fuse (ms)" "none ops" "fuse ops" "ops";
  List.iter
    (fun c ->
      Printf.printf "%-14s %12.4f %12.4f %10d %10d %7.1f%%\n" c.oc_app
        c.oc_none_ms c.oc_fuse_ms c.oc_none_ops c.oc_fuse_ops
        (100.
        *. float_of_int (c.oc_none_ops - c.oc_fuse_ops)
        /. float_of_int (max 1 c.oc_none_ops)))
    cells;
  print_newline ()

(* Structural guarantees of the fusion pass, checked on this run's
   deterministic cells: fused output identical everywhere, never more
   charged ops or a longer makespan anywhere, and strictly fewer ops on
   the apps with fusable pipelines. *)
let check_optimize cells =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun c ->
      if not c.oc_identical then
        fail "optimize: fused %s output differs from unoptimized" c.oc_app;
      if c.oc_fuse_ops > c.oc_none_ops then
        fail "optimize: fuse charges more ops on %s (%d vs %d)" c.oc_app
          c.oc_fuse_ops c.oc_none_ops;
      if c.oc_fuse_ms > c.oc_none_ms then
        fail "optimize: fuse makespan worse on %s (%.4f vs %.4f ms)" c.oc_app
          c.oc_fuse_ms c.oc_none_ms;
      if List.mem c.oc_app optimize_must_improve
         && c.oc_fuse_ops >= c.oc_none_ops
      then
        fail "optimize: fuse must charge strictly fewer ops on %s (%d vs %d)"
          c.oc_app c.oc_fuse_ops c.oc_none_ops)
    cells;
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* Cells of the bechamel run.  A cell's kind decides its check against a
   baseline dump. *)

type kind =
  | Sim  (* simulated time: deterministic, so equal to the baseline *)
  | Wall  (* a Bechamel estimate: within the threshold of the baseline *)
  | Host  (* a host fact, or a wall clock that follows the core count:
              recorded only *)

type cell = { name : string; kind : kind; value : float }

let kind_names = [ (Sim, "sim"); (Wall, "wall"); (Host, "host") ]

let lookup cells name =
  List.find_map (fun c -> if c.name = name then Some c.value else None) cells

let cores = Domain.recommended_domain_count ()

(* [f ()] and the wall-clock milliseconds it took *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1e3)

(* ------------------------------------------------------------------ *)
(* Parallel-simulation (PDES) strong scaling: one p = 256 shortest-paths
   simulation at --sim-domains 1, 2 and 4.  The makespan at each shard
   count is a [Sim] cell, so each must equal the one-shard makespan the
   baseline records; the wall clock is a [Host] cell. *)

(* 16x16 torus = 256 simulated processors; n = 256 keeps one sequential
   run around a few wall-clock seconds, enough work for the shards to
   amortize their synchronisation. *)
let pdes_q, pdes_n = (16, 256)
let pdes_name = Printf.sprintf "pdes/shpaths-%dx%d-n%d" pdes_q pdes_q pdes_n
let pdes_domains = [ 1; 2; 4 ]
let pdes_cell d field = Printf.sprintf "%s/sd%d/%s" pdes_name d field

let pdes_cells () =
  let topology = Topology.torus2d ~width:pdes_q ~height:pdes_q () in
  let weight = Workload.graph_weight ~seed:1996 ~n:pdes_n ~max_weight:100 in
  List.concat_map
    (fun sim_domains ->
      let r, wall =
        timed (fun () ->
            Machine.run ~sim_domains
              ~cost:(Cost_model.make Cost_model.skil)
              ~topology
              (fun ctx ->
                Skeletons.destroy ctx
                  (Shortest_paths.run ctx ~n:pdes_n ~weight)))
      in
      [
        { name = pdes_cell sim_domains "makespan-ms"; kind = Sim;
          value = r.Machine.time *. 1e3 };
        { name = pdes_cell sim_domains "wall-ms"; kind = Host; value = wall };
      ])
    pdes_domains

let print_pdes cells =
  Printf.printf
    "== Parallel simulation: shpaths n=%d on %dx%d torus (p=%d), host \
     cores %d ==\n"
    pdes_n pdes_q pdes_q (pdes_q * pdes_q) cores;
  Printf.printf "%-12s %12s %14s %9s\n" "sim-domains" "wall (ms)"
    "makespan (s)" "speedup";
  let at d field = Option.get (lookup cells (pdes_cell d field)) in
  List.iter
    (fun d ->
      Printf.printf "%-12d %12.1f %14.6f %8.2fx\n" d (at d "wall-ms")
        (at d "makespan-ms" /. 1e3)
        (at 1 "wall-ms" /. at d "wall-ms"))
    pdes_domains;
  print_newline ()

(* With enough cores for the shards to run in parallel, sim-domains 4 must
   beat the one-shard run in wall-clock.  Narrower hosts skip the check:
   there every shard shares one core and only overhead would be
   measured. *)
let check_pdes cells =
  let wall d = lookup cells (pdes_cell d "wall-ms") in
  match (wall 1, wall 4) with
  | Some w1, Some w4 when cores >= 4 && w4 >= w1 ->
      [
        Printf.sprintf
          "pdes: sim-domains 4 (%.1f ms) not faster than sequential (%.1f \
           ms) on a %d-core host"
          w4 w1 cores;
      ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Native execution: the same compiled closures on real OCaml domains
   (shared-memory channels, no simulated clock) against the compiled
   simulator that is their oracle.  Values and printed output are pinned
   bit-identical by the test suite; here only the wall clock is measured,
   as [Host] cells.  One heavy cell per app (2x2 = 4 ranks, the largest
   grid shpaths' final print loop stays local on), native at 1/2/4 domains
   plus the simulator reference. *)

(* (app, file, entry, n, torus?, asserted): [asserted] marks the cell heavy
   enough for the cores-gated speedup guarantee — jacobi at n=256 is a few
   milliseconds of compute and only rides along as a data point. *)
let native_specs =
  [
    ("shpaths", "shpaths.skil", "shpaths", 192, true, true);
    ("jacobi", "jacobi.skil", "jacobi", 256, false, false);
  ]

(* domain count 0 is the compiled-simulator reference *)
let native_domains = [ 0; 1; 2; 4 ]

let native_cell app n d =
  Printf.sprintf "native/%s-n%d/%s/wall-ms" app n
    (if d = 0 then "sim" else Printf.sprintf "d%d" d)

let native_cells () =
  List.concat_map
    (fun (app, file, entry, n, torus, _) ->
      let src = skil_source file in
      let topology =
        if torus then Topology.torus2d ~width:2 ~height:2 ()
        else Topology.mesh ~width:2 ~height:2
      in
      List.map
        (fun d ->
          let engine, native_domains =
            if d = 0 then (`Compiled, None) else (`Native, Some d)
          in
          let _, wall =
            timed (fun () ->
                Spmd.run_source ~engine ?native_domains ~topology src ~entry
                  ~args:[ Value.VInt n ])
          in
          { name = native_cell app n d; kind = Host; value = wall })
        native_domains)
    native_specs

let print_native cells =
  Printf.printf
    "== Native execution: .skil programs on real domains (2x2 = 4 ranks), \
     host cores %d ==\n"
    cores;
  Printf.printf "%-16s %-12s %12s %9s\n" "app" "backend" "wall (ms)"
    "speedup";
  List.iter
    (fun (app, _, _, n, _, _) ->
      let wall d = Option.get (lookup cells (native_cell app n d)) in
      List.iter
        (fun d ->
          Printf.printf "%-16s %-12s %12.1f %8.2fx\n"
            (Printf.sprintf "%s n=%d" app n)
            (if d = 0 then "sim" else Printf.sprintf "native d=%d" d)
            (wall d) (wall 0 /. wall d))
        native_domains)
    native_specs;
  print_newline ()

(* The backend's raison d'etre, checked on hosts wide enough to show it:
   with 4 real cores, native at 4 domains must beat the compiled simulator
   (which runs all ranks on one core) on every asserted cell.  Narrower
   hosts skip the check — there native only adds channel overhead. *)
let check_native cells =
  List.filter_map
    (fun (app, _, _, n, _, asserted) ->
      let wall d = lookup cells (native_cell app n d) in
      match (wall 0, wall 4) with
      | Some sim, Some n4 when asserted && cores >= 4 && n4 >= sim ->
          Some
            (Printf.sprintf
               "native: %s at 4 domains (%.1f ms) not faster than the \
                compiled simulator (%.1f ms) on a %d-core host"
               app n4 sim cores)
      | _ -> None)
    native_specs

(* The compiled engine must beat the AST engine on both skil_frontend
   pairs, whatever the hardware (an earlier shpaths inversion, where
   compiled was *slower* than ast, can never silently return). *)
let check_engines cells =
  List.filter_map
    (fun prog ->
      let ast = Printf.sprintf "cells/skil_frontend(%s-ast)" prog in
      let compiled = Printf.sprintf "cells/skil_frontend(%s-compiled)" prog in
      match (lookup cells ast, lookup cells compiled) with
      | Some a, Some c when c >= a ->
          Some
            (Printf.sprintf
               "engine inversion: %s (%.3f ms) is not faster than %s (%.3f \
                ms)"
               compiled c ast a)
      | Some _, Some _ -> None
      | _ ->
          Some (Printf.sprintf "pair %s/%s missing from this run" ast compiled))
    [ "gauss-n16"; "shpaths-n16" ]

(* ------------------------------------------------------------------ *)
(* Baseline dumps: one object per kind, holding one ["name": value] line
   per cell at %.4f.  Hand-rolled on purpose — no JSON dependency, and the
   format is ours. *)

let write_cells file cells =
  let oc = open_out file in
  output_string oc "{";
  List.iteri
    (fun i (kind, label) ->
      let mine = List.filter (fun c -> c.kind = kind) cells in
      Printf.fprintf oc "%s\n  %S: {\n" (if i = 0 then "" else ",") label;
      List.iteri
        (fun j c ->
          Printf.fprintf oc "    %S: %.4f%s\n" c.name c.value
            (if j = List.length mine - 1 then "" else ","))
        mine;
      output_string oc "  }")
    kind_names;
  output_string oc "\n}\n";
  close_out oc

let read_baseline file =
  match open_in file with
  | exception Sys_error msg -> Error msg
  | ic ->
      let rec go kind acc =
        match String.trim (input_line ic) with
        | exception End_of_file -> Ok (List.rev acc)
        | line -> (
            match String.index_opt line ':' with
            | Some i when i >= 2 && line.[0] = '"' && line.[i - 1] = '"' -> (
                let name = String.sub line 1 (i - 2) in
                let rest =
                  String.trim
                    (String.sub line (i + 1) (String.length line - i - 1))
                in
                let rest =
                  if String.ends_with ~suffix:"," rest then
                    String.sub rest 0 (String.length rest - 1)
                  else rest
                in
                match (rest, kind, float_of_string_opt rest) with
                | "{", _, _ -> (
                    match List.find_opt (fun (_, l) -> l = name) kind_names with
                    | Some (k, _) -> go (Some k) acc
                    | None -> Error ("unknown kind " ^ name))
                | _, Some kind, Some value ->
                    go (Some kind) ({ name; kind; value } :: acc)
                | _, None, _ -> Error ("cell " ^ name ^ " is outside a kind")
                | _, _, None -> Error ("cell " ^ name ^ " has no number"))
            | _ -> go kind acc)
      in
      let cells =
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go None [])
      in
      if cells = Ok [] then Error "no cells" else cells

(* Every baseline cell, by its recorded kind, against this run. *)
let check_baseline ~threshold baseline cells =
  List.filter_map
    (fun b ->
      match (lookup cells b.name, b.kind) with
      | None, _ ->
          Some (Printf.sprintf "baseline cell %s missing from this run" b.name)
      | Some now, Sim ->
          let at = Printf.sprintf "%.4f" in
          if at now = at b.value then None
          else
            Some
              (Printf.sprintf "simulated cell %s is %s, baseline %s" b.name
                 (at now) (at b.value))
      | Some now, Wall ->
          let limit = b.value *. (1. +. threshold) in
          if now <= limit then None
          else
            Some
              (Printf.sprintf
                 "regression: %s is %.3f ms, baseline %.3f ms (limit %.3f)"
                 b.name now b.value limit)
      | Some _, Host -> None)
    baseline

(* Print every violated check and exit 1. *)
let die failures =
  List.iter (Printf.eprintf "check FAILED: %s\n") failures;
  Pool.shutdown ();
  exit 1

let require failures = if failures <> [] then die failures

(* Structural guarantees of the collective-selection layer, checked on the
   deterministic simulated cells of this run (no baseline needed): auto must
   be within 5% of the best fixed algorithm on every grid point, at least
   two kind/topology groups must exhibit a real algorithm crossover as the
   payload grows, and auto must not lose to the legacy trees end-to-end. *)
let check_collectives cells apps =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun c ->
      let best =
        List.fold_left
          (fun b (_, t) -> Float.min b t)
          infinity c.Experiments.cc_algs
      in
      if c.Experiments.cc_auto > best *. 1.05 then
        fail
          "collectives: auto %.3f ms not within 5%% of best fixed %.3f ms \
           on %s-%s-b%d"
          (c.Experiments.cc_auto *. 1e3)
          (best *. 1e3) c.Experiments.cc_kind c.Experiments.cc_topo
          c.Experiments.cc_bytes)
    cells;
  let groups = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let key = (c.Experiments.cc_kind, c.Experiments.cc_topo) in
      let best_name =
        fst
          (List.fold_left
             (fun (bn, bt) (n, t) -> if t < bt then (n, t) else (bn, bt))
             ("", infinity) c.Experiments.cc_algs)
      in
      Hashtbl.replace groups key
        (best_name :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
    cells;
  let crossovers =
    Hashtbl.fold
      (fun _ names acc ->
        if List.length (List.sort_uniq compare names) >= 2 then acc + 1
        else acc)
      groups 0
  in
  if crossovers < 2 then
    fail
      "collectives: only %d kind/topology groups show an algorithm crossover \
       (need >= 2)"
      crossovers;
  List.iter
    (fun a ->
      if a.Experiments.ca_auto > a.Experiments.ca_legacy then
        fail "collectives: auto (%.4f s) slower than legacy trees (%.4f s) on %s"
          a.Experiments.ca_auto a.Experiments.ca_legacy a.Experiments.ca_app)
    apps;
  List.rev !failures

let run_bechamel ~quick ~json ~check ~threshold () =
  print_endline "== Bechamel: wall-clock cost of one simulation per cell ==";
  let open Bechamel in
  let open Toolkit in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  (* --quick shrinks the per-cell time quota (CI guard); full runs keep the
     baseline-grade quota *)
  let cfg =
    if quick then
      Benchmark.cfg ~limit:20 ~quota:(Time.second 0.1) ~stabilize:false ()
    else
      Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let wall = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          match Analyze.OLS.estimates (Analyze.one ols instance raw) with
          | Some [ est ] ->
              wall := { name; kind = Wall; value = est /. 1e6 } :: !wall;
              Printf.printf "%-40s %10.3f ms/run\n%!" name (est /. 1e6)
          | Some _ | None -> Printf.printf "%-40s (no estimate)\n%!" name
          | exception _ -> Printf.printf "%-40s (analysis failed)\n%!" name)
        results)
    (List.map (fun t -> Test.make_grouped ~name:"cells" [ t ]) (bechamel_tests ()));
  (* the sharded simulator and the native engine, with the core count
     their wall clocks follow *)
  let rest =
    pdes_cells () @ native_cells ()
    @ [ { name = "host-cores"; kind = Host; value = float_of_int cores } ]
  in
  List.iter (fun c -> Printf.printf "%-52s %10.3f\n%!" c.name c.value) rest;
  print_newline ();
  let cells = List.rev_append !wall rest in
  Option.iter
    (fun file ->
      write_cells file cells;
      Printf.printf "bechamel cells written to %s\n\n" file)
    json;
  Option.iter
    (fun file ->
      let baseline =
        match read_baseline file with
        | Ok baseline -> baseline
        | Error msg ->
            die [ Printf.sprintf "cannot read baseline %s: %s" file msg ]
      in
      require
        (check_baseline ~threshold baseline cells
        @ check_engines cells @ check_pdes cells @ check_native cells);
      Printf.printf
        "check: %d cells of %s hold (simulated equal, wall-clock within \
         %.0f%%), compiled beats ast\n\n"
        (List.length baseline) file (threshold *. 100.))
    check

(* ------------------------------------------------------------------ *)

let targets =
  [ "table1"; "table2"; "figure1"; "claim51"; "claim52"; "ablations";
    "scaling"; "degradation"; "collectives"; "optimize"; "pdes"; "native";
    "bechamel"; "all" ]

let usage_error fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("main.exe: " ^ m);
      exit 2)
    fmt

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let rec extract_opt name = function
    | [ flag ] when flag = name -> failwith (name ^ " expects a value")
    | flag :: value :: rest when flag = name ->
        let v, r = extract_opt name rest in
        ((if v = None then Some value else v), r)
    | x :: rest ->
        let v, r = extract_opt name rest in
        (v, x :: r)
    | [] -> (None, [])
  in
  let csv_dir, args = extract_opt "--csv" args in
  let jobs_arg, args = extract_opt "--jobs" args in
  let json_file, args = extract_opt "--json" args in
  let check_file, args = extract_opt "--check" args in
  let threshold_arg, args = extract_opt "--threshold" args in
  let trace_out, args = extract_opt "--trace-out" args in
  let threshold =
    match threshold_arg with
    | None -> 0.5
    | Some s -> (
        match float_of_string_opt s with
        | Some t when t >= 0. -> t
        | Some _ | None ->
            failwith "--threshold expects a non-negative float (0.5 = +50%)")
  in
  let want_profile = List.mem "--profile" args in
  let args = List.filter (fun a -> a <> "--profile") args in
  let jobs =
    match jobs_arg with
    | None -> Pool.default_jobs ()
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> n
        | Some _ | None -> failwith "--jobs expects a positive integer")
  in
  let chosen = List.filter (fun a -> a <> "--quick") args in
  List.iter
    (fun t ->
      if not (List.mem t targets) then
        usage_error "unknown target %s (valid: %s)" t
          (String.concat " " targets))
    chosen;
  if not (List.mem "bechamel" chosen) then
    List.iter
      (fun (flag, v) ->
        if v <> None then usage_error "%s needs the bechamel target" flag)
      [ ("--json", json_file); ("--check", check_file);
        ("--threshold", threshold_arg) ];
  let chosen = if chosen = [] then [ "all" ] else chosen in
  let wants t = List.mem t chosen || List.mem "all" chosen in
  Printf.printf
    "Skil reproduction benchmarks (simulated Parsytec MC, T800 mesh)%s [jobs %d]\n\n"
    (if quick then " [quick]" else "")
    jobs;
  let t1_memo = ref None in
  let table1 () =
    match !t1_memo with
    | Some r -> r
    | None ->
        let r = Experiments.table1 ~quick ~jobs () in
        t1_memo := Some r;
        r
  in
  let t2_memo = ref None in
  let table2 () =
    match !t2_memo with
    | Some r -> r
    | None ->
        let r = Experiments.table2 ~quick ~jobs () in
        t2_memo := Some r;
        r
  in
  if wants "table1" then Report.print_table1 ~jobs ~quick ();
  if wants "table2" then Report.print_table2 (table2 ()) ~quick;
  if wants "figure1" then Report.print_figure1 (table2 ());
  if wants "claim51" then Report.print_claim51 ~jobs ~quick ();
  if wants "claim52" then Report.print_claim52 ~jobs ~quick ();
  if wants "ablations" then Report.print_ablations ~jobs ~quick ();
  if wants "scaling" then Report.print_scaling ~jobs ~quick ();
  if wants "degradation" then Report.print_degradation ~jobs ~quick ();
  (match csv_dir with
   | Some dir -> Report.write_csvs ~dir (table1 ()) (table2 ())
   | None -> ());
  if wants "collectives" then begin
    let cells, apps = Experiments.collectives_crossover ~jobs () in
    Report.print_collectives cells apps;
    require (check_collectives cells apps)
  end;
  if wants "optimize" then begin
    let cells = optimize_cells () in
    print_optimize cells;
    require (check_optimize cells)
  end;
  (* explicit-only: these measure wall-clock, which would break the
     byte-identity of [all]'s output, and Bechamel spends a fixed time
     quota per cell *)
  if List.mem "pdes" chosen then print_pdes (pdes_cells ());
  if List.mem "native" chosen then print_native (native_cells ());
  if List.mem "bechamel" chosen then
    run_bechamel ~quick ~json:json_file ~check:check_file ~threshold ();
  Report.print_traced_cell ?trace_out ~profile:want_profile ~quick ();
  Pool.shutdown ()
