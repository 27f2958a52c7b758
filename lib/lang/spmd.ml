type outcome = { value : Value.t; printed : string }
type engine = [ `Ast | `Compiled | `Native ]
type optimize = [ `None | `Fuse ]

(* A program carried through the whole translation pipeline — typecheck,
   instantiation, optimization, closure compilation — but not yet bound to
   a topology or machine options.  [Compile.program] is topology-independent
   (per-processor state is handed in at call time), so one handle serves
   any number of runs on any number of machines: this is what the service
   layer's compiled-program cache stores.  Everything inside is immutable
   after construction and safe to share across domains (compilation is
   eager — no lazy cells to force concurrently). *)
type prepared = {
  pprogram : Ast.program; (* post-instantiation/optimization *)
  ptyenv : Typecheck.env;
  pentry : string;
  pengine : engine;
  pcompiled : Compile.t option; (* Some iff pengine <> `Ast *)
}

let prepare_source ?(instantiate = true) ?(engine = `Compiled)
    ?(optimize = `None) source ~entry =
  let program = Parser.parse source in
  let tyenv = Typecheck.check program in
  let program, tyenv =
    if instantiate then begin
      let inst = Instantiate.program tyenv program ~entries:[ entry ] in
      (inst, Typecheck.check inst)
    end
    else (program, tyenv)
  in
  let program, tyenv =
    match optimize with
    | `None -> (program, tyenv)
    | `Fuse ->
        if not instantiate then
          invalid_arg
            "Spmd.prepare: --optimize fuse requires the instantiation pass \
             (the optimizer relies on first-order skeleton call sites)";
        (* re-check so the synthesized fused functions and hoisted
           declarations carry inst/struct annotations for the engines *)
        let opt = Optimize.program ~env:tyenv program in
        (opt, Typecheck.check opt)
  in
  let pcompiled =
    match engine with
    | `Ast -> None
    | `Compiled | `Native ->
        (* translate once; the closure code is shared by all processors
           (and, via the service cache, by all future runs) *)
        Some (Compile.program ~tyenv program)
  in
  { pprogram = program; ptyenv = tyenv; pentry = entry; pengine = engine;
    pcompiled }

let run_prepared ?cost ?trace ?faults ?reliable ?collectives ?sim_domains
    ?native_domains ?cancel ~topology p ~args =
  let { pprogram = program; ptyenv = tyenv; pentry = entry; _ } = p in
  let body ctx =
    let st = Interp.make ~backend:(`Par ctx) ~tyenv program in
    let value =
      match p.pcompiled with
      | None -> Interp.call st entry args
      | Some compiled -> Compile.call compiled st entry args
    in
    { value; printed = Interp.output st }
  in
  (match sim_domains with
  | Some d when d < 1 -> invalid_arg "Spmd.run: sim_domains must be >= 1"
  | _ -> ());
  match p.pengine with
  | `Ast | `Compiled ->
      if native_domains <> None then
        invalid_arg "Spmd.run: native_domains needs the native engine";
      Machine.run ?cost ?trace ?faults ?reliable ?collectives ?sim_domains
        ?cancel ~topology body
  | `Native ->
      (* the compiled engine's closures, executed with real parallelism on
         the Native backend — simulator-only options make no sense here *)
      if faults <> None then
        invalid_arg "Spmd.run: the native engine cannot inject faults";
      if reliable = Some true then
        invalid_arg
          "Spmd.run: the native engine has no Reliable transport (delivery \
           is shared memory)";
      if trace = Some true then
        invalid_arg "Spmd.run: the native engine records no trace";
      (match sim_domains with
      | Some d when d > 1 ->
          invalid_arg
            "Spmd.run: --sim-domains shards the simulator; use \
             native_domains with the native engine"
      | _ -> ());
      Machine.run_native ?cost ?collectives ?domains:native_domains ?cancel
        ~topology body

let run_source ?cost ?trace ?faults ?reliable ?collectives ?sim_domains
    ?native_domains ?cancel ?instantiate ?engine ?optimize ~topology source
    ~entry ~args =
  run_prepared ?cost ?trace ?faults ?reliable ?collectives ?sim_domains
    ?native_domains ?cancel ~topology
    (prepare_source ?instantiate ?engine ?optimize source ~entry)
    ~args

let render ?summary (r : outcome Machine.result) =
  let b = Buffer.create 256 in
  Array.iteri
    (fun i o ->
      if o.printed <> "" then Printf.bprintf b "[proc %d] %s\n" i o.printed)
    r.Machine.values;
  Option.iter
    (fun (engine, (cost : Cost_model.t)) ->
      let nprocs = Array.length r.Machine.values in
      (match engine with
      | `Native ->
          Printf.bprintf b "wall-clock time: %.4f s (native, %d processors)\n"
            r.Machine.time nprocs
      | `Ast | `Compiled ->
          Printf.bprintf b "simulated time: %.4f s (%s, %d processors)\n"
            r.Machine.time cost.profile.profile_name nprocs);
      Printf.bprintf b "%s\n"
        (Format.asprintf "%a" Stats.pp_summary r.Machine.stats))
    summary;
  Buffer.contents b
