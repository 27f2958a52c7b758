(* skilc — driver for the mini-Skil compiler: type-check, translate by
   instantiation, emit C, or execute (sequentially or on the simulated
   parallel machine). *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load path =
  let program = Parser.parse (read_file path) in
  let env = Typecheck.check program in
  (program, env)

(* Every syntax/type diagnostic is printed as [file:line:col: kind: message]
   (the conventional, editor-clickable shape); [?file] is the source being
   processed when one is in scope.  Classification and rendering live in
   {!Errclass} (lib/service), shared with the skild daemon: the process
   exit code is the class code, so a shell script can tell a type error (4)
   from a runtime error (6) from a stalled machine (7) — the same integers
   skild puts in its [code=] reply field. *)
let handle_errors ?file f =
  try f ()
  with e -> (
    match Errclass.of_exn ?file e with
    | Some (cls, msg) ->
        Printf.eprintf "%s\n" msg;
        exit (Errclass.code cls)
    | None -> raise e)

(* The EXIT STATUS of every command that runs [handle_errors]: the class
   codes, and cmdliner's success, usage-error and uncaught-exception codes
   (an exception no class covers). *)
let exits =
  List.map
    (fun c ->
      Cmd.Exit.info (Errclass.code c)
        ~doc:("on a failure of class $(b," ^ Errclass.name c ^ ")."))
    Errclass.[ Io; Invalid; Syntax; Type_err; Inst_err; Runtime; Stall ]
  @ List.filter
      (fun i -> Cmd.Exit.info_code i <> Cmd.Exit.some_error)
      Cmd.Exit.defaults

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.skil")

let entry_arg =
  Arg.(value & opt string "main" & info [ "entry" ] ~docv:"NAME"
         ~doc:"Entry function.")

let args_arg =
  Arg.(value & opt_all int [] & info [ "arg" ] ~docv:"INT"
         ~doc:"Integer argument for the entry function (repeatable).")

(* ---------------- check ---------------- *)

let check_cmd =
  let run file =
    handle_errors ~file (fun () ->
        let program, _ = load file in
        let funcs =
          List.filter_map
            (function
              | Ast.TFunc f when f.Ast.f_body <> None -> Some f.Ast.f_name
              | _ -> None)
            program
        in
        Printf.printf "%s: OK (%d functions: %s)\n" file (List.length funcs)
          (String.concat ", " funcs))
  in
  Cmd.v (Cmd.info "check" ~exits ~doc:"Parse and type-check a Skil program.")
    Term.(const run $ file_arg)

(* ---------------- instantiate ---------------- *)

let instantiate_cmd =
  let run file entry =
    handle_errors ~file (fun () ->
        let program, env = load file in
        let fo = Instantiate.program env program ~entries:[ entry ] in
        Printf.printf
          "instantiated %s from entry %s: %d first-order functions\n" file
          entry
          (List.length
             (List.filter (function Ast.TFunc _ -> true | _ -> false) fo));
        List.iter
          (function
            | Ast.TFunc f ->
                Printf.printf "  %s %s/%d\n"
                  (Ast.type_to_string f.Ast.f_ret)
                  f.Ast.f_name
                  (List.length f.Ast.f_params)
            | _ -> ())
          fo)
  in
  Cmd.v
    (Cmd.info "instantiate" ~exits
       ~doc:
         "Translate by instantiation and list the generated first-order \
          monomorphic functions.")
    Term.(const run $ file_arg $ entry_arg)

(* ---------------- emit-c ---------------- *)

(* The C emitter works on the unoptimized instantiated program: fused
   argument functions and array_create_const have no counterpart in
   skil_runtime.h, and the emitted C is compared against the historical
   compiler's shape. *)
let emit_cmd =
  let run file entry standalone args =
    handle_errors ~file (fun () ->
        let program, env = load file in
        let fo = Instantiate.program env program ~entries:[ entry ] in
        if standalone then
          print_string (Emit_c.standalone fo ~entry ~args)
        else print_string (Emit_c.program fo))
  in
  let standalone =
    Arg.(value & flag
         & info [ "standalone" ]
             ~doc:"Emit a complete single-processor C program (sequential \
                   skeleton runtime and a $(b,main) driver included) whose \
                   output matches $(b,run-par --width 1 --height 1) for the \
                   same $(b,--entry) and $(b,--arg)s; compile it with any C \
                   compiler, no skil_runtime needed.")
  in
  Cmd.v
    (Cmd.info "emit-c" ~exits
       ~doc:"Print the message-passing C the compiler back end would emit.")
    Term.(const run $ file_arg $ entry_arg $ standalone $ args_arg)

(* ---------------- runtime header ---------------- *)

let runtime_cmd =
  let run () = print_string Emit_c.runtime_header in
  Cmd.v
    (Cmd.info "runtime"
       ~doc:"Print skil_runtime.h, the interface of the parallel runtime \
             emitted C programs compile against.")
    Term.(const run $ const ())

(* ---------------- run (sequential) ---------------- *)

let run_cmd =
  let run file entry args =
    handle_errors ~file (fun () ->
        let program, env = load file in
        let st = Interp.make ~tyenv:env program in
        let v =
          Interp.call st entry (List.map (fun n -> Value.VInt n) args)
        in
        print_string (Interp.output st);
        match v with
        | Value.VUnit -> ()
        | v -> Printf.printf "=> %s\n" (Value.describe v))
  in
  Cmd.v
    (Cmd.info "run" ~exits
       ~doc:
         "Interpret a Skil program sequentially (skeleton calls are \
          rejected; use run-par).")
    Term.(const run $ file_arg $ entry_arg $ args_arg)

(* ---------------- run-par ---------------- *)

(* The value parsers are shared with the skild daemon's JOB header fields
   ({!Jobspec}): one vocabulary, both doors. *)
let of_jobspec_parser parse print =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (parse s)),
      fun ppf v -> Format.fprintf ppf "%s" (print v) )

let profile_conv =
  of_jobspec_parser Jobspec.profile_of_string Jobspec.profile_to_string

let engine_conv =
  of_jobspec_parser Jobspec.engine_of_string Jobspec.engine_to_string

let optimize_conv =
  of_jobspec_parser Jobspec.optimize_of_string Jobspec.optimize_to_string

let collectives_conv =
  of_jobspec_parser Coll_alg.mode_of_string Coll_alg.mode_to_string

let run_par_cmd =
  let run file entry args width height torus profile no_instantiate engine
      optimize trace_out want_profile faults_spec reliable collectives
      sim_domains native_domains =
    handle_errors ~file (fun () ->
        let prepared =
          Spmd.prepare_source ~instantiate:(not no_instantiate) ~engine
            ~optimize (read_file file) ~entry
        in
        let topology =
          if torus then Topology.torus2d ~width ~height ()
          else Topology.mesh ~width ~height
        in
        let nprocs = Topology.nprocs topology in
        let trace = trace_out <> None || want_profile in
        let faults =
          match faults_spec with
          | None -> None
          | Some spec -> (
              match Fault.parse spec with
              | Ok plan -> Some plan
              | Error msg ->
                  Printf.eprintf "--faults: %s\n" msg;
                  exit 2)
        in
        (match faults with
         | Some plan ->
             Printf.printf "fault plan: %s%s\n" (Fault.describe plan)
               (if reliable then " (reliable transport)" else "")
         | None -> ());
        let cost = Cost_model.make profile in
        let r =
          Spmd.run_prepared ~trace ?faults ~reliable ~collectives ~sim_domains
            ?native_domains ~cost ~topology prepared
            ~args:(List.map (fun n -> Value.VInt n) args)
        in
        print_string (Spmd.render ~summary:(engine, cost) r);
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
        if want_profile then
          Format.printf "%a@." Profile.pp
            (Profile.of_trace r.Machine.trace ~nprocs
               ~makespan:r.Machine.time))
  in
  let width =
    Arg.(value & opt int 2 & info [ "width" ] ~docv:"W"
           ~doc:"Processor grid width.")
  in
  let height =
    Arg.(value & opt int 2 & info [ "height" ] ~docv:"H"
           ~doc:"Processor grid height.")
  in
  let torus =
    Arg.(value & flag & info [ "torus" ]
           ~doc:"Use a torus virtual topology (default: mesh).")
  in
  let profile =
    Arg.(value
         & opt profile_conv Cost_model.skil
         & info [ "cost-profile" ] ~docv:"P"
             ~doc:"Cost profile: skil, parix-c, parix-c-old or dpfl.")
  in
  let no_instantiate =
    Arg.(value & flag & info [ "no-instantiate" ]
           ~doc:"Interpret the higher-order source directly instead of the \
                 instantiated first-order program.")
  in
  let engine =
    Arg.(value
         & opt engine_conv `Compiled
         & info [ "engine" ] ~docv:"E"
             ~doc:"Execution engine: $(b,compiled) (translate function \
                   bodies to closures once, the default), $(b,ast) (the \
                   reference tree-walking interpreter; bit-identical to \
                   compiled), or $(b,native) (the compiled closures \
                   executed with real parallelism on OCaml domains, as \
                   the simulated machine without its clock: wall-clock \
                   time instead of a simulated makespan, values and \
                   printed output identical to the simulator's; \
                   incompatible with --faults/--reliable/--trace-out/\
                   --profile and with --sim-domains above 1).")
  in
  let optimize =
    Arg.(value
         & opt optimize_conv `None
         & info [ "optimize" ] ~docv:"OPT"
             ~doc:"Optimization level: $(b,none) (the default; output, \
                   makespans, Stats and traces byte-identical to earlier \
                   releases) or $(b,fuse) (skeleton fusion: map/map and \
                   map-into-fold fusion, dead-copy elimination, \
                   constant-initialiser folding and loop-invariant \
                   broadcast/bound hoisting — value-identical results with \
                   fewer charged operations).  Requires the instantiation \
                   pass (incompatible with $(b,--no-instantiate)).")
  in
  let trace_out =
    Arg.(value
         & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Record a structured trace and write it to $(docv) as \
                   Chrome trace_event JSON (load in chrome://tracing or \
                   Perfetto).")
  in
  let want_profile =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Record a structured trace and print per-skeleton and \
                   per-processor metrics, the communication matrix and a \
                   critical-path estimate.")
  in
  let faults_spec =
    Arg.(value
         & opt (some string) None
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:"Inject deterministic faults from $(docv): comma-separated \
                   key=value fields, e.g. \
                   $(b,drop=0.1,dup=0.05,corrupt=0.02,delay=0.1x8,\
                   stall=2@0.01+0.005,crash=1@0.02,reboot=0.004,ckpt=on). \
                   A $(b,seed=)$(i,N) field keys the plan's PRNG (default \
                   1).  Replayable: the same spec reproduces the run \
                   bit-for-bit.")
  in
  let reliable =
    Arg.(value & flag
         & info [ "reliable" ]
             ~doc:"Run the machine's Reliable transport: sequence numbers, \
                   receiver-side dedup and ack/timeout/retransmit with \
                   capped exponential backoff, charged in simulated time. \
                   Under it, every program returns its fault-free values \
                   regardless of $(b,--faults) drop rates.")
  in
  let collectives =
    Arg.(value
         & opt collectives_conv Coll_alg.Legacy
         & info [ "collectives" ] ~docv:"ALG"
             ~doc:"Collective-algorithm mode: $(b,tree) (the seed's binomial \
                   trees, byte-identical to historical output, the default), \
                   $(b,auto) (pick per call from the topology/size cost \
                   model), or a forced algorithm: $(b,binomial), \
                   $(b,pipeline), $(b,vandegeijn), $(b,recdouble), \
                   $(b,ring), $(b,dissemination), $(b,linear).  A forced algorithm applies wherever it \
                   fits and falls back to auto selection elsewhere.")
  in
  let sim_domains =
    Arg.(value & opt int 1
         & info [ "sim-domains" ] ~docv:"N"
             ~doc:"Shard the simulated machine into $(docv) contiguous \
                   rank groups run on OCaml domains; a message between \
                   groups is posted to the receiving group, and every \
                   receive names its source, so no group waits on another \
                   except for data.  Output, simulated times, \
                   Stats and traces are bit-identical for every $(docv); \
                   only host wall-clock time changes.  Worker domains are \
                   borrowed from the shared pool and clamped to the host's \
                   cores.  $(docv) below 1 is an error with every engine.")
  in
  let native_domains =
    Arg.(value
         & opt (some int) None
         & info [ "native-domains" ] ~docv:"N"
             ~doc:"Native engine only (an error with the others): block \
                   the ranks into $(docv) \
                   contiguous groups, each a unit of real parallelism \
                   (default: one rank per group).  A message within a \
                   group goes straight to the receiver; one between \
                   groups is posted to the receiving group.  Worker \
                   domains are borrowed from the shared pool and clamped \
                   to the host's cores; the logical grouping is always \
                   honoured.")
  in
  Cmd.v
    (Cmd.info "run-par" ~exits
       ~doc:"Execute a Skil program on the simulated Parsytec machine, or \
             with real parallelism under $(b,--engine native).")
    Term.(const run $ file_arg $ entry_arg $ args_arg $ width $ height
          $ torus $ profile $ no_instantiate $ engine $ optimize
          $ trace_out $ want_profile $ faults_spec $ reliable $ collectives
          $ sim_domains $ native_domains)

let () =
  let doc = "the Skil compiler (HPDC '96 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "skilc" ~doc)
          [
            check_cmd; instantiate_cmd; emit_cmd; runtime_cmd; run_cmd;
            run_par_cmd;
          ]))
