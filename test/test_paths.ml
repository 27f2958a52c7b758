(* One path matrix (DESIGN.md section 8).  Translation by instantiation
   keeps a program's meaning, so every way this repository runs a Skil
   program must agree with a reference: each [corpus] row runs under each
   [setting] on the ast engine and on the setting's engine paths, which
   must equal ast byte for byte (sharded runs equal one shard); a setting
   must print and return what the default does; native runs must match
   the compiled simulator's values and counters.  [corpus] is the
   only table of example programs the tests run, and [source] the only
   reader of examples/skil; tests of one mechanism check their programs
   through [observe]. *)

(* ---------------- corpus ---------------- *)

(* the first of [dirs] holding [name]: tests run from _build/default/test
   under dune, and from the repository root by hand *)
let locate dirs name =
  let paths = List.map (fun d -> Filename.concat d name) dirs in
  match List.find_opt Sys.file_exists paths with
  | Some p -> p
  | None -> Alcotest.failf "cannot find %s" name

let examples () = locate [ "../examples"; "examples" ] "skil"
let goldens () = locate [ "."; "test" ] "golden"
let example file = Filename.concat (examples ()) file
let read path = In_channel.with_open_bin path In_channel.input_all
let source file = read (example file)

type row = {
  file : string;
  entry : string;
  args : int list;
  width : int;
  height : int;
  torus : bool;
  golden : string option;  (** the test/golden file of its default rendering *)
  auto_golden : string option;  (** ... of its rendering under [auto] *)
  cc : bool;  (** emit-c --standalone builds it; checked at 1x1 *)
}

let row ?(args = []) ?(torus = false) ?golden ?auto_golden ?(cc = false) file
    entry (width, height) =
  { file; entry; args; width; height; torus; golden; auto_golden; cc }

let corpus =
  [
    row "gauss.skil" "gauss" ~args:[ 16 ] (2, 2) ~golden:"gauss.out"
      ~auto_golden:"gauss_auto.out";
    row "shpaths.skil" "shpaths" ~args:[ 16 ] (2, 2) ~golden:"shpaths.out";
    row "matmul.skil" "matmul" ~args:[ 8 ] (2, 2) ~torus:true ~cc:true
      ~golden:"matmul.out" ~auto_golden:"matmul_auto.out";
    row "threshold.skil" "main" ~args:[ 8 ] (2, 1) ~golden:"threshold.out";
    row "quicksort.skil" "main" (2, 2) ~golden:"quicksort.out";
    row "jacobi.skil" "jacobi" ~args:[ 16 ] (2, 2) ~cc:true
      ~golden:"jacobi.out";
    row "gauss.skil" "gauss" ~args:[ 8 ] (2, 1);
    row "gauss.skil" "gauss" ~args:[ 8 ] (2, 2);
    row "shpaths.skil" "shpaths" ~args:[ 8 ] (2, 2) ~torus:true ~cc:true;
    row "matmul.skil" "matmul" ~args:[ 8 ] (2, 2);
  ]

(* the row's part of a skilc command line, after the file *)
let entry_flags r =
  "--entry" :: r.entry
  :: List.concat_map (fun n -> [ "--arg"; string_of_int n ]) r.args

let row_flags r =
  entry_flags r
  @ [ "--width"; string_of_int r.width; "--height"; string_of_int r.height ]
  @ if r.torus then [ "--torus" ] else []

let name r = String.concat " " (r.file :: row_flags r)

(* skilc's frontend output for a row, each with its test/golden file: the
   instantiated functions and the emitted C of the program's [golden] row,
   and the standalone C of a row [cc] builds *)
let frontend_goldens r =
  let base = Filename.remove_extension r.file in
  let file = Filename.concat "examples/skil" r.file in
  (if r.golden = None then []
   else
     [
       (base ^ "_instantiate.out", [ "instantiate"; file; "--entry"; r.entry ]);
       (base ^ "_emit_c.out", [ "emit-c"; file; "--entry"; r.entry ]);
     ])
  @
  if r.cc then
    [
      ( base ^ "_standalone.out",
        "emit-c" :: file :: "--standalone" :: entry_flags r );
    ]
  else []

let topology r =
  if r.torus then Topology.torus2d ~width:r.width ~height:r.height ()
  else Topology.mesh ~width:r.width ~height:r.height

(* the apps whose folds and broadcasts run as selectable collectives and
   whose map pipelines fuse *)
let pipelined = [ "gauss.skil"; "matmul.skil"; "jacobi.skil" ]

(* ---------------- one run, observed ---------------- *)

(* Everything [skilc run-par] takes that changes how a run goes. *)
type setup = {
  engine : Spmd.engine;
  instantiate : bool;
  optimize : Spmd.optimize;
  collectives : string;  (** a --collectives name *)
  profile : string;  (** a --cost-profile name *)
  faults : string option;  (** a --faults spec; seed 1 unless it says *)
  reliable : bool;
  sim_domains : int;
  native_domains : int option;
}

let default =
  { engine = `Compiled; instantiate = true; optimize = `None;
    collectives = "tree"; profile = "skil"; faults = None; reliable = false;
    sim_domains = 1; native_domains = None }

(* Everything observable about a run.  The --profile text and the Chrome
   trace are functions of the trace's records and the makespan, so runs
   compare the records and render them only to report. *)
type obs = {
  printed : string;  (** each rank's printed output *)
  values : string;  (** each rank's return value *)
  counters : string;  (** each rank's msgs, bytes, hop bytes, skeleton calls *)
  algs : string;  (** [Stats.coll_alg_totals] *)
  makespan : string;
  clocks : string;  (** each rank's other [Stats] fields *)
  ops : int;  (** charged ops over every span *)
  records :
    Trace.event list * Trace.message list * Trace.span list
    * Trace.fault_event list;
  profile : string Lazy.t;  (** the --profile text *)
  chrome : string Lazy.t;  (** the Chrome trace JSON *)
  rendering : string;  (** [Spmd.render]: what run-par prints *)
}

(* A run's observation, or the diagnostic it failed with. *)
type outcome = (obs, string) result

let ranks f a =
  String.concat "\n"
    (Array.to_list (Array.mapi (fun i x -> Printf.sprintf "[%d] %s" i (f x)) a))

let counts l =
  String.concat " " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) l)
let ok ~what = function Ok o -> o | Error m -> Alcotest.failf "%s: %s" what m
let fault_plan spec = ok ~what:"--faults" (Fault.parse spec)

(* [trace] (default true) records the simulated paths' trace; [cancel] is
   the run's cancel hook *)
let observe ?(topology = Topology.mesh ~width:2 ~height:2) ?(entry = "main")
    ?(args = []) ?(trace = true) ?cancel (s : setup) src : outcome =
  let profile = Jobspec.profile_of_string s.profile in
  let cost = Cost_model.make (ok ~what:"--cost-profile" profile) in
  let faults = Option.map fault_plan s.faults in
  let collectives =
    ok ~what:"--collectives" (Coll_alg.mode_of_string s.collectives)
  in
  match
    Spmd.run_source ~cost ~trace:(trace && s.engine <> `Native) ?cancel ?faults
      ~reliable:s.reliable ~collectives ~sim_domains:s.sim_domains
      ?native_domains:s.native_domains ~instantiate:s.instantiate
      ~engine:s.engine ~optimize:s.optimize ~topology src ~entry ~args
  with
  | exception e -> (
      match Errclass.of_exn e with Some (_, m) -> Error m | None -> raise e)
  | r ->
      let st = r.Machine.stats and t = r.Machine.trace in
      let nprocs = Topology.nprocs topology in
      Ok
        {
          printed = ranks (fun o -> o.Spmd.printed) r.Machine.values;
          values =
            ranks (fun o -> Value.describe o.Spmd.value) r.Machine.values;
          counters =
            ranks
              (fun (p : Stats.proc) ->
                Printf.sprintf "msgs %d bytes %d hop_bytes %d skeleton_calls %d"
                  p.msgs_sent p.bytes_sent p.hop_bytes p.skeleton_calls)
              st.Stats.procs;
          algs = counts (Stats.coll_alg_totals st);
          makespan = Printf.sprintf "%h (stats %h)" r.Machine.time st.makespan;
          clocks =
            ranks
              (fun (p : Stats.proc) ->
                Printf.sprintf
                  "compute %h wait %h overhead %h stall %h dropped %d retried \
                   %d acks %d recoveries %d collectives %d/%d %s"
                  p.compute_time p.comm_wait p.overhead_time p.stall_time
                  p.msgs_dropped p.msgs_retried p.acks_sent p.recoveries
                  p.coll_calls p.coll_bytes (counts p.coll_algs))
              st.procs;
          ops =
            List.fold_left
              (fun n sp ->
                n + sp.Trace.ops_kernel + sp.ops_mapped + sp.ops_scalar)
              0 (Trace.spans t);
          records = Trace.(events t, messages t, spans t, fault_events t);
          profile =
            lazy
              (Format.asprintf "%a@." Profile.pp
                 (Profile.of_trace t ~nprocs ~makespan:r.Machine.time));
          chrome = lazy (Profile.chrome_json t ~nprocs);
          rendering = Spmd.render ~summary:(s.engine, cost) r;
        }

let observe_row ?trace ?cancel s r =
  observe ~topology:(topology r) ~entry:r.entry ?trace ?cancel
    ~args:(List.map (fun n -> Value.VInt n) r.args)
    s (source r.file)

(* ---------------- agreement ---------------- *)

(* [Untraced]: all of [Bytes] but the trace and the ops it counts *)
type cls = Bytes | Untraced | Values | Counters

(* each field: the classes that compare it, its equality, its rendering *)
let fields =
  let all = [ Bytes; Untraced; Values; Counters ]
  and counted = [ Bytes; Untraced; Counters ]
  and exact = [ Bytes; Untraced ] in
  let text name classes f = (name, classes, (fun a b -> f a = f b), f) in
  [
    text "printed output" all (fun o -> o.printed);
    text "values" all (fun o -> o.values);
    text "message counters" counted (fun o -> o.counters);
    text "collective algorithms" counted (fun o -> o.algs);
    text "makespan" exact (fun o -> o.makespan);
    text "stats" exact (fun o -> o.clocks);
    text "charged ops" [ Bytes ] (fun o -> string_of_int o.ops);
    ( "trace", [ Bytes ], (fun a b -> a.records = b.records),
      fun o -> Lazy.force o.chrome );
    text "rendering" exact (fun o -> o.rendering);
  ]

(* where two renderings part, with some context *)
let first_difference a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  let i = go 0 in
  let around s =
    let from = max 0 (i - 40) in
    String.sub s from (min 120 (String.length s - from))
  in
  Printf.sprintf "at byte %d:\n  want ...%S...\n  got  ...%S..." i (around a)
    (around b)

(* [None] when [got] agrees with [want] in [cls], else what differs *)
let diff cls (want : outcome) (got : outcome) =
  match (want, got) with
  | Ok a, Ok b ->
      List.find_map
        (fun (field, classes, equal, show) ->
          if List.mem cls classes && not (equal a b) then
            Some (field ^ " differs " ^ first_difference (show a) (show b))
          else None)
        fields
  | Error a, Error b when a = b -> None
  | _ ->
      let show = function Ok o -> o.rendering | Error m -> "error: " ^ m in
      Some (Printf.sprintf "want\n%s\ngot\n%s" (show want) (show got))

(* two failed runs agree when their diagnostics are equal; callers that
   need a run to succeed check it with [ok] *)
let expect ~what cls want got =
  Option.iter (Alcotest.failf "%s: %s" what) (diff cls want got)

(* [expect] for QCheck properties over total programs: an error fails *)
let agrees cls want got =
  match (want, diff cls want got) with
  | Ok _, None -> true
  | Error m, _ -> QCheck2.Test.fail_reportf "error: %s" m
  | Ok _, Some d -> QCheck2.Test.fail_reportf "%s" d

(* ---------------- paths ---------------- *)

(* A path: its skilc run-par spelling, which also names it, and how it
   changes a setup. *)
type path = { flags : string list; set : setup -> setup }

let pname p = if p.flags = [] then "default" else String.concat " " p.flags
let path flags set = { flags; set }
let ast = path [ "--engine"; "ast" ] (fun s -> { s with engine = `Ast })

let compiled =
  path [ "--engine"; "compiled" ] (fun s -> { s with engine = `Compiled })

let sharded n =
  path [ "--sim-domains"; string_of_int n ] (fun s ->
      { s with sim_domains = n })

let native d =
  path
    [ "--engine"; "native"; "--native-domains"; string_of_int d ]
    (fun s -> { s with engine = `Native; native_domains = Some d })

let simulated = [ compiled ]

(* each path's run of setup [s] must agree with [reference] in [cls] *)
let against ~what cls reference run s =
  List.iter (fun p ->
      expect ~what:(what ^ ", " ^ pname p) cls reference (run (p.set s)))

(* Run setup [s] on the ast engine and on [engines]; each must equal ast
   byte for byte.  Returns the ast outcome. *)
let agree_engines ~what ?(engines = simulated) run s =
  let reference = run (ast.set s) in
  against ~what Bytes reference run s engines;
  reference

(* A setting moves simulated time, so a run under it must print and
   return what the default setting does. *)
type setting = {
  path : path;
  engines : path list;  (** run besides ast; listing ast again replays it *)
  fewer_ops : bool;
      (** charges no more ops than the default, fewer on [pipelined] apps *)
  sharded : bool;  (** also run at --sim-domains 2 and 4 *)
}

let fault_spec = "drop=0.15,dup=0.05,corrupt=0.05,delay=0.1x4"

let setting ?(engines = simulated) ?(fewer_ops = false) ?(sharded = false)
    flags set =
  { path = path flags set; engines; fewer_ops; sharded }

(* the reference of every other setting, and of the goldens *)
let default_setting = setting [] Fun.id ~sharded:true

(* other spellings of the default setting, checked through skilc *)
let default_spellings =
  [
    path [ "--optimize"; "none" ] (fun s -> { s with optimize = `None });
    path [ "--collectives"; "tree" ] (fun s -> { s with collectives = "tree" });
  ]

let no_instantiate =
  setting [ "--no-instantiate" ] (fun s -> { s with instantiate = false })

let fusion =
  setting [ "--optimize"; "fuse" ] ~fewer_ops:true (fun s ->
      { s with optimize = `Fuse })

let profiles =
  [
    setting [ "--cost-profile"; "parix-c" ] (fun s ->
        { s with profile = "parix-c" });
    setting [ "--cost-profile"; "dpfl" ] (fun s -> { s with profile = "dpfl" });
  ]

let fault_plans =
  [
    setting [ "--faults"; fault_spec; "--reliable" ] ~engines:(ast :: simulated)
      ~sharded:true (fun s ->
        { s with faults = Some fault_spec; reliable = true });
    setting [ "--faults"; "delay=0.2x6" ] (fun s ->
        { s with faults = Some "delay=0.2x6" });
  ]

let other_modes = List.filter (( <> ) default.collectives) Coll_alg.mode_names

let modes =
  List.map
    (fun m ->
      setting [ "--collectives"; m ] (fun s -> { s with collectives = m }))
    other_modes

let settings = (no_instantiate :: fusion :: profiles) @ fault_plans @ modes

(* ---------------- the matrix ---------------- *)

let test_corpus_complete () =
  let uncovered dir suffix covered =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f suffix && not (covered f))
  in
  Alcotest.(check (list string))
    "examples/skil programs with no row" []
    (uncovered (examples ()) ".skil" (fun f ->
         List.exists (fun r -> r.file = f) corpus));
  Alcotest.(check (list string))
    "test/golden files no row compares" []
    (uncovered (goldens ()) ".out" (fun f ->
         List.exists
           (fun r ->
             r.golden = Some f || r.auto_golden = Some f
             || List.mem_assoc f (frontend_goldens r))
           corpus))

let what r st = name r ^ ", " ^ pname st.path

(* A row's default-setting outcome on ast, once its engine paths have
   agreed with it and its rendering with the row's golden: checked by the
   first test that needs it, and its failure is every such test's. *)
let baseline =
  let check r =
    let base =
      agree_engines ~what:(what r default_setting)
        ~engines:default_setting.engines
        (fun s -> observe_row s r)
        default
    in
    let rendering = (ok ~what:(name r) base).rendering in
    Option.iter
      (fun g ->
        Alcotest.(check string)
          (name r ^ " = test/golden/" ^ g)
          (read (Filename.concat (goldens ()) g))
          rendering)
      r.golden;
    base
  in
  let table = List.map (fun r -> (r, lazy (check r))) corpus in
  fun r -> Lazy.force (List.assq r table)

(* rows x [sts] x engine paths, against ast and the default setting; a
   row's rendering under --collectives auto against its auto golden *)
let test_settings sts () =
  List.iter
    (fun r ->
      let base = baseline r in
      List.iter
        (fun st ->
          let what = what r st in
          let s = st.path.set default in
          let o =
            agree_engines ~what ~engines:st.engines
              (fun s -> observe_row s r)
              s
          in
          if st.path.flags = [ "--collectives"; "auto" ] then
            Option.iter
              (fun g ->
                Alcotest.(check string)
                  (what ^ " = test/golden/" ^ g)
                  (read (Filename.concat (goldens ()) g))
                  (ok ~what o).rendering)
              r.auto_golden;
          expect ~what:(what ^ " vs default") Values base o;
          let none = (ok ~what base).ops and fused = (ok ~what o).ops in
          let most = none - if List.mem r.file pipelined then 1 else 0 in
          if st.fewer_ops && fused > most then
            Alcotest.failf "%s: charged %d ops, the default %d" what fused none)
        sts)
    corpus

(* A charge of 9 nodes rounds differently under any other order of the
   meter's operands, and with the clock still at zero the difference
   reaches the makespan; on a running clock it is lost to rounding. *)
let meter_probe = "int main() { int x = 1 + 2 * 3 - 4 + 5; return x; }\n"

(* A simulated run without a trace charges each statement through the
   scalar meter (Machine.meter), and a cancel hook makes the meter poll
   it; a traced run charges through Machine.charge.  Each
   row's default setting, untraced and with a hook that never fires, must
   equal its traced run on every simulated path in all but the trace, and
   so must [meter_probe]. *)
let test_meter () =
  let check what traced run =
    List.iter
      (fun p ->
        let s = p.set default in
        List.iter
          (fun (how, cancel) ->
            expect
              ~what:(String.concat ", " [ what; pname p; how ])
              Untraced (traced s)
              (run ~trace:false ?cancel s))
          [ ("untraced", None); ("cancel hook", Some (fun () -> false)) ])
      (ast :: simulated)
  in
  List.iter
    (fun r ->
      check (name r) (fun _ -> baseline r) (fun ~trace ?cancel s ->
          observe_row ~trace ?cancel s r))
    corpus;
  let probe ~trace ?cancel s = observe ~trace ?cancel s meter_probe in
  check "the meter probe" (probe ~trace:true) probe

(* --sim-domains 2 and 4 against one shard, byte for byte *)
let test_sharded () =
  List.iter
    (fun r ->
      List.iter
        (fun st ->
          let s = st.path.set default and run s = observe_row s r in
          against ~what:(name r ^ ", " ^ pname st.path) Bytes (run s) run s
            [ sharded 2; sharded 4 ])
        (List.filter (fun st -> st.sharded) (default_setting :: settings)))
    corpus

(* Native under collective modes [ms], against the compiled simulator;
   under the default mode the multi-domain runs repeat, as their
   scheduling varies. *)
let test_native ms () =
  List.iter
    (fun r ->
      List.iter
        (fun m ->
          let what = Printf.sprintf "%s, collectives %s" (name r) m in
          let run s = observe_row s r in
          let s = { default with collectives = m } in
          let reference = run s in
          if
            (ok ~what reference).algs = ""
            && m <> default.collectives
            && List.mem r.file pipelined
          then Alcotest.failf "%s: no collective was selected" what;
          let repeats = if m = default.collectives then 5 else 1 in
          against ~what Counters reference run s
            (native 1
            :: List.concat (List.init repeats (fun _ -> [ native 2; native 4 ]))))
        ms)
    corpus

(* ---------------- through the built binaries ---------------- *)

let skilc () = locate [ "../bin"; "_build/default/bin" ] "skilc.exe"

(* stdout of a successful command *)
let command prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "%s failed:\n%s" (String.concat " " (prog :: args)) out

(* a rendering's [proc i] lines: all of it the native engine and
   standalone C print as the simulator does *)
let proc_lines s =
  String.split_on_char '\n' s
  |> List.filter_map (fun l ->
         if String.starts_with ~prefix:"[proc " l then Some (l ^ "\n")
         else None)
  |> String.concat ""

(* the exit code and output, both streams, of a command *)
let status prog args =
  let out = Filename.temp_file "skil_status" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command (Filename.quote_command prog args ~stdout:out ~stderr:out)
      in
      (code, read out))

(* emit-c --standalone, built with cc, prints the 1x1 run's lines; a
   program it cannot close (gauss.skil's plain typedef and its elemrec
   fold) fails with class invalid, exit code 2, naming the construct *)
let test_standalone_c () =
  let args =
    [ "emit-c"; example "gauss.skil"; "--standalone"; "--entry"; "gauss";
      "--arg"; "8" ]
  in
  let code, out = status (skilc ()) args in
  Alcotest.(check (pair int bool))
    "skilc emit-c --standalone gauss.skil: exit 2, names typedef elemrec"
    (2, true)
    (code, Test_machine.contains out "typedef elemrec");
  if Sys.command "cc --version > /dev/null 2>&1" <> 0 then
    prerr_endline "standalone C skipped: no cc on PATH"
  else
    List.iter
      (fun r ->
        if r.cc then begin
          let what = name r ^ " as standalone C at 1x1" in
          let c = Filename.temp_file "skil_standalone" ".c" in
          let exe = Filename.temp_file "skil_standalone" ".exe" in
          Fun.protect
            ~finally:(fun () -> List.iter Sys.remove [ c; exe ])
            (fun () ->
              Out_channel.with_open_bin c (fun oc ->
                  output_string oc
                    (command (skilc ())
                       ("emit-c" :: example r.file :: "--standalone"
                      :: entry_flags r)));
              ignore (command "cc" [ "-Wall"; "-o"; exe; c; "-lm" ]);
              let r1 = { r with width = 1; height = 1; torus = false } in
              Alcotest.(check string)
                what
                (proc_lines (ok ~what (observe_row default r1)).rendering)
                (command exe []))
        end)
      corpus

(* skilc instantiate, emit-c and emit-c --standalone print each row's
   frontend goldens byte for byte.  They run from the repository root, as
   CI runs them: instantiate names the file it read. *)
let test_frontend () =
  let exe = Filename.concat (Sys.getcwd ()) (skilc ()) in
  let root = Filename.dirname (Filename.dirname (examples ())) in
  List.iter
    (fun r ->
      List.iter
        (fun (g, args) ->
          let golden = read (Filename.concat (goldens ()) g) in
          let cwd = Sys.getcwd () in
          Sys.chdir root;
          let out =
            Fun.protect
              ~finally:(fun () -> Sys.chdir cwd)
              (fun () -> command exe args)
          in
          Alcotest.(check string)
            (String.concat " " ("skilc" :: args) ^ " = test/golden/" ^ g)
            golden out)
        (frontend_goldens r))
    corpus

(* Every path's run-par spelling through skilc.exe reproduces the
   in-process rendering (values only for native), the default's spellings
   on every row; the help page is whole. *)
let test_cli () =
  let help = command (skilc ()) [ "run-par"; "--help=plain" ] in
  let has = Test_machine.contains help in
  Alcotest.(check (list bool))
    "run-par --help has: a cmdliner error; the fault example; code 3"
    [ false; true; true ]
    [ has "cmdliner error"; has "stall=2@0.01+0.005,crash=1@0.02";
      has "3   on a failure of class syntax." ];
  let check r p =
    let s = p.set default in
    let args = ("run-par" :: example r.file :: row_flags r) @ p.flags in
    let what = String.concat " " ("skilc" :: args) in
    let o = ok ~what (observe_row s r) in
    if s.engine = `Native then
      Alcotest.(check string)
        what (proc_lines o.rendering)
        (proc_lines (command (skilc ()) args))
    else
      let header =
        match s.faults with
        | None -> ""
        | Some spec ->
            Printf.sprintf "fault plan: %s%s\n"
              (Fault.describe (fault_plan spec))
              (if s.reliable then " (reliable transport)" else "")
      in
      Alcotest.(check string)
        what
        (header ^ o.rendering ^ Lazy.force o.profile)
        (command (skilc ()) (args @ [ "--profile" ]))
  in
  List.iter
    (fun r -> List.iter (check r) (default_setting.path :: default_spellings))
    corpus;
  List.iter
    (check (List.find (fun r -> r.file = "jacobi.skil") corpus))
    ([ ast; compiled; sharded 2; sharded 4; native 1; native 2; native 4 ]
    @ List.map (fun st -> st.path) settings)

(* The matrix's cases.  Settings older than the matrix are reported by
   the tests that checked them before it: engines "corpus both engines"
   ([no_instantiate], and every row's default through [baseline]) and
   "cost profiles both engines" ([profiles]), optimize "corpus three-way,
   ops never worse" ([fusion]), native "corpus native vs simulator" (the
   default mode) and "collective modes native vs simulator"
   ([other_modes]). *)
let suite =
  [
    ( "paths",
      [
        Alcotest.test_case "corpus complete" `Quick test_corpus_complete;
        Alcotest.test_case "simulated paths" `Quick
          (test_settings (fault_plans @ modes));
        Alcotest.test_case "sharded paths" `Quick test_sharded;
        Alcotest.test_case "untraced and cancellable paths" `Quick test_meter;
        Alcotest.test_case "standalone C" `Quick test_standalone_c;
        Alcotest.test_case "skilc frontend goldens" `Quick test_frontend;
        Alcotest.test_case "skilc run-par spellings" `Quick test_cli;
      ] );
  ]
