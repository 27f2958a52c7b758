(* Rendering of the reproduced tables and figures for bench/main. *)

let fmt = Table.fmt_time
let ratio = Table.fmt_ratio
let opt = Table.fmt_opt

(* ------------------------------------------------------------------ *)

let print_table1 ?(jobs = 1) ~quick () =
  print_endline "== Table 1: shortest paths in graphs (n ~ 200) ==";
  if quick then
    print_endline "   (quick mode: n ~ 36, sqrt p in {2,3,4} — shapes only)";
  let rows = Experiments.table1 ~quick ~jobs () in
  let paper q =
    List.find_opt (fun (q', _, _, _) -> q' = q) Experiments.paper_table1
  in
  let body =
    List.map
      (fun r ->
        let q = r.Experiments.sqrtp in
        let dpfl_ratio =
          Option.map (fun d -> d /. r.Experiments.sp_skil) r.Experiments.sp_dpfl
        in
        let oldc_ratio =
          Option.map
            (fun c -> r.Experiments.sp_skil /. c)
            r.Experiments.sp_parix_old
        in
        let p_skil, p_dpfl_ratio, p_oldc_ratio =
          match paper q with
          | Some (_, dpfl, skil, oldc) when not quick ->
              ( fmt skil,
                opt (fun d -> ratio (d /. skil)) dpfl,
                opt (fun c -> ratio (skil /. c)) oldc )
          | _ -> ("-", "-", "-")
        in
        [
          string_of_int q ^ "x" ^ string_of_int q;
          string_of_int r.Experiments.sp_n;
          fmt r.Experiments.sp_skil;
          p_skil;
          opt ratio dpfl_ratio;
          p_dpfl_ratio;
          opt ratio oldc_ratio;
          p_oldc_ratio;
        ])
      rows
  in
  print_string
    (Table.render
       ~headers:
         [
           "procs"; "n"; "Skil(s)"; "[paper]"; "DPFL/Skil"; "[paper]";
           "Skil/oldC"; "[paper]";
         ]
       body);
  print_newline ()

(* ------------------------------------------------------------------ *)

let paper_gauss_cell grid n =
  match List.assoc_opt grid Experiments.paper_table2 with
  | None -> None
  | Some cells -> List.find_opt (fun (n', _, _, _) -> n' = n) cells

let print_table2_rows rows ~quick =
  List.iter
    (fun row ->
      let w, h = row.Experiments.grid in
      Printf.printf "-- network %dx%d (%d processors) --\n" w h (w * h);
      let body =
        List.map
          (fun c ->
            let skil = c.Experiments.g_skil in
            let dpfl_ratio =
              Option.map (fun d -> d /. skil) c.Experiments.g_dpfl
            in
            let p =
              if quick then None else paper_gauss_cell (w, h) c.Experiments.g_n
            in
            [
              string_of_int c.Experiments.g_n;
              fmt skil;
              opt (fun (_, s, _, _) -> fmt s) p;
              opt ratio dpfl_ratio;
              opt (fun (_, _, d, _) -> opt ratio d) p;
              ratio (skil /. c.Experiments.g_parix);
              opt (fun (_, _, _, r) -> ratio r) p;
            ])
          row.Experiments.cells
      in
      print_string
        (Table.render
           ~headers:
             [
               "n"; "Skil(s)"; "[paper]"; "DPFL/Skil"; "[paper]"; "Skil/C";
               "[paper]";
             ]
           body))
    rows

let print_table2 rows ~quick =
  print_endline "== Table 2: Gaussian elimination (no pivot search) ==";
  if quick then print_endline "   (quick mode: reduced sizes — shapes only)";
  print_table2_rows rows ~quick;
  print_newline ()

let print_figure1 rows =
  print_endline
    "== Figure 1: Skil vs DPFL (left) and Skil vs Parix-C (right) ==";
  let speedups, slowdowns = Experiments.figure1 rows in
  print_string
    (Series.plot ~title:"Figure 1 (left): relative speed-ups Skil vs DPFL"
       ~xlabel:"processors" ~ylabel:"speed-up" speedups);
  print_newline ();
  print_string
    (Series.plot ~title:"Figure 1 (right): relative slow-downs Skil vs C"
       ~xlabel:"processors" ~ylabel:"slow-down" slowdowns);
  print_newline ();
  print_endline "-- figure data (csv) --";
  print_endline "(left)";
  print_string (Series.to_csv speedups);
  print_endline "(right)";
  print_string (Series.to_csv slowdowns);
  print_newline ()

(* ------------------------------------------------------------------ *)

let print_claim51 ?(jobs = 1) ~quick () =
  print_endline
    "== Claim (section 5.1): equally optimized matmul, Skil vs Parix-C ==";
  print_endline
    "   paper: \"Skil times around 20% slower than direct C times\"";
  let rows = Experiments.claim51 ~quick ~jobs () in
  let body =
    List.map
      (fun r ->
        [
          string_of_int r.Experiments.m_n;
          fmt r.Experiments.m_skil;
          fmt r.Experiments.m_parix;
          ratio (r.Experiments.m_skil /. r.Experiments.m_parix);
        ])
      rows
  in
  print_string
    (Table.render ~headers:[ "n"; "Skil(s)"; "C(s)"; "Skil/C" ] body);
  print_newline ()

let print_claim52 ?(jobs = 1) ~quick () =
  print_endline
    "== Claim (section 5.2): complete gauss vs no-pivot-search version ==";
  print_endline "   paper: \"run-times about twice as long\"";
  let rows = Experiments.claim52 ~quick ~jobs () in
  let body =
    List.map
      (fun r ->
        let w, h = r.Experiments.c2_grid in
        [
          Printf.sprintf "%dx%d" w h;
          string_of_int r.Experiments.c2_n;
          fmt r.Experiments.c2_partial;
          fmt r.Experiments.c2_full;
          ratio (r.Experiments.c2_full /. r.Experiments.c2_partial);
        ])
      rows
  in
  print_string
    (Table.render
       ~headers:[ "procs"; "n"; "partial(s)"; "full(s)"; "full/partial" ]
       body);
  print_newline ()

let print_ablations ?(jobs = 1) ~quick () =
  print_endline "== Ablations: design choices called out in the paper ==";
  let rows = Experiments.ablations ~quick ~jobs () in
  let body =
    List.map
      (fun a ->
        [
          a.Experiments.ab_name;
          a.Experiments.ab_baseline;
          fmt a.Experiments.ab_time_baseline;
          a.Experiments.ab_variant;
          fmt a.Experiments.ab_time_variant;
          ratio
            (a.Experiments.ab_time_variant /. a.Experiments.ab_time_baseline);
        ])
      rows
  in
  print_string
    (Table.render
       ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Left ]
       ~headers:
         [ "ablation"; "baseline"; "metric"; "variant"; "metric"; "ratio" ]
       body);
  print_newline ()


let print_degradation ?(jobs = 1) ~quick () =
  print_endline
    "== Degradation under message loss (ours): reliable transport ==";
  print_endline
    "   (values are the fault-free values at every drop rate; only the\n\
    \    simulated clock degrades)";
  let rows = Experiments.degradation ~quick ~jobs () in
  let body =
    List.map
      (fun r ->
        [
          r.Experiments.dg_app;
          Printf.sprintf "%.2f" r.Experiments.dg_drop;
          fmt r.Experiments.dg_time;
          Printf.sprintf "+%.1f%%" (100.0 *. r.Experiments.dg_overhead);
          string_of_int r.Experiments.dg_dropped;
          string_of_int r.Experiments.dg_retried;
        ])
      rows
  in
  print_string
    (Table.render
       ~aligns:[ Table.Left ]
       ~headers:[ "app"; "drop"; "time(s)"; "overhead"; "dropped"; "retried" ]
       body);
  print_newline ()

let print_scaling ?(jobs = 1) ~quick () =
  print_endline "== Strong scaling (ours): shortest paths, fixed n ==";
  let rows = Experiments.scaling ~quick ~jobs () in
  let body =
    List.map
      (fun r ->
        [
          string_of_int r.Experiments.sc_procs;
          fmt r.Experiments.sc_time;
          ratio r.Experiments.sc_speedup;
          Printf.sprintf "%.0f%%" (100.0 *. r.Experiments.sc_efficiency);
        ])
      rows
  in
  print_string
    (Table.render ~headers:[ "procs"; "time(s)"; "speedup"; "efficiency" ]
       body);
  print_newline ()

(* machine-readable exports of the reproduced evaluation *)
let print_collectives cells apps =
  print_endline "== Collective algorithm crossovers (ours) ==";
  print_endline
    "   (deterministic simulated makespans of one collective per run;\n\
    \    auto picks per call from the topology/size cost model)";
  let ms t = Printf.sprintf "%.3f" (t *. 1e3) in
  let body =
    List.map
      (fun c ->
        let best_name, best_t =
          List.fold_left
            (fun (bn, bt) (n, t) -> if t < bt then (n, t) else (bn, bt))
            ("", infinity) c.Experiments.cc_algs
        in
        [
          c.Experiments.cc_kind;
          c.Experiments.cc_topo;
          string_of_int c.Experiments.cc_p;
          string_of_int c.Experiments.cc_bytes;
          String.concat "  "
            (List.map
               (fun (n, t) -> Printf.sprintf "%s %s" n (ms t))
               c.Experiments.cc_algs);
          Printf.sprintf "%s %s" best_name (ms best_t);
          ms c.Experiments.cc_auto;
          c.Experiments.cc_chosen;
        ])
      cells
  in
  print_string
    (Table.render
       ~aligns:[ Table.Left; Table.Left ]
       ~headers:
         [ "kind"; "topo"; "p"; "bytes"; "per-algorithm (ms)"; "best"; "auto (ms)"; "chosen" ]
       body);
  print_newline ();
  let app_body =
    List.map
      (fun r ->
        [
          r.Experiments.ca_app;
          fmt r.Experiments.ca_legacy;
          fmt r.Experiments.ca_auto;
          ratio (r.Experiments.ca_legacy /. r.Experiments.ca_auto);
        ])
      apps
  in
  print_string
    (Table.render
       ~aligns:[ Table.Left ]
       ~headers:[ "application"; "legacy trees(s)"; "auto(s)"; "speedup" ]
       app_body);
  print_newline ()

let write_csvs ~dir t1 t2 =
  let file name render =
    let oc = open_out (Filename.concat dir name) in
    output_string oc render;
    close_out oc
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "sqrtp,n,skil_s,dpfl_s,parix_old_s\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%.4f,%s,%s\n" r.Experiments.sqrtp
           r.Experiments.sp_n r.Experiments.sp_skil
           (opt (Printf.sprintf "%.4f") r.Experiments.sp_dpfl)
           (opt (Printf.sprintf "%.4f") r.Experiments.sp_parix_old)))
    t1;
  file "table1.csv" (Buffer.contents buf);
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "grid_w,grid_h,n,skil_s,dpfl_s,parix_s\n";
  List.iter
    (fun row ->
      let w, h = row.Experiments.grid in
      List.iter
        (fun c ->
          Buffer.add_string buf
            (Printf.sprintf "%d,%d,%d,%.4f,%s,%.4f\n" w h
               c.Experiments.g_n c.Experiments.g_skil
               (opt (Printf.sprintf "%.4f") c.Experiments.g_dpfl)
               c.Experiments.g_parix))
        row.Experiments.cells)
    t2;
  file "table2.csv" (Buffer.contents buf);
  let speedups, slowdowns = Experiments.figure1 t2 in
  file "figure1_left.csv" (Series.to_csv speedups);
  file "figure1_right.csv" (Series.to_csv slowdowns);
  Printf.printf "csv files written to %s\n\n" dir

(* ------------------------------------------------------------------ *)

(* Tracing is opt-in and re-runs its own cell, so the timed cells always
   execute with recording disabled: one representative Table-2 Gauss cell,
   written as a Chrome trace to [trace_out] and/or printed as a profile. *)
let print_traced_cell ?trace_out ~profile ~quick () =
  if trace_out <> None || profile then begin
    let n, (w, h), r = Experiments.traced_gauss_cell ~quick () in
    let nprocs = w * h in
    Printf.printf "== traced cell: gauss n=%d on %dx%d (%.4f s simulated) ==\n"
      n w h r.Machine.time;
    (match trace_out with
     | Some file ->
         let oc = open_out file in
         output_string oc (Profile.chrome_json r.Machine.trace ~nprocs);
         close_out oc;
         Printf.printf
           "chrome trace written to %s (open in chrome://tracing or \
            ui.perfetto.dev)\n"
           file
     | None -> ());
    if profile then
      Format.printf "%a@." Profile.pp
        (Profile.of_trace r.Machine.trace ~nprocs ~makespan:r.Machine.time);
    print_newline ()
  end
