(* repro — regenerate the paper's tables and figures (without the Bechamel
   micro-benchmarks; see bench/main.exe for those).

   Usage: repro.exe [--quick] [--jobs N] [--sim-domains N] [--trace-out FILE]
          [--profile]

   Independent simulation cells are dispatched to N domains (default: all
   cores); [--sim-domains] additionally shards the simulated machine inside
   each cell.  The output is bit-identical whatever either N is.  [--trace-out FILE]
   re-runs one representative Table-2 Gauss cell with structured tracing on
   and writes a Chrome trace_event JSON; [--profile] prints its per-skeleton
   / per-processor report instead (or as well). *)

let () =
  let argv = Array.to_list Sys.argv in
  let quick = List.mem "--quick" argv in
  let rec opt_of name = function
    | [ flag ] when flag = name -> failwith (name ^ " expects a value")
    | flag :: v :: _ when flag = name -> Some v
    | _ :: rest -> opt_of name rest
    | [] -> None
  in
  let jobs =
    match opt_of "--jobs" argv with
    | None -> Pool.default_jobs ()
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> n
        | Some _ | None -> failwith "--jobs expects a positive integer")
  in
  (match opt_of "--sim-domains" argv with
  | None -> ()
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> Experiments.sim_domains := n
      | Some _ | None -> failwith "--sim-domains expects a positive integer"));
  let trace_out = opt_of "--trace-out" argv in
  let want_profile = List.mem "--profile" argv in
  Printf.printf
    "Skil (HPDC '96) reproduction — simulated Parsytec MC%s [jobs %d%s]\n\n"
    (if quick then " [quick]" else "")
    jobs
    (if !Experiments.sim_domains > 1 then
       Printf.sprintf ", sim-domains %d" !Experiments.sim_domains
     else "");
  Report.print_table1 ~jobs ~quick ();
  let t2 = Experiments.table2 ~quick ~jobs () in
  Report.print_table2 t2 ~quick;
  Report.print_figure1 t2;
  Report.print_claim51 ~jobs ~quick ();
  Report.print_claim52 ~jobs ~quick ();
  Report.print_ablations ~jobs ~quick ();
  Report.print_traced_cell ?trace_out ~profile:want_profile ~quick ();
  Pool.shutdown ()
