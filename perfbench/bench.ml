(* perfbench: the repository benchmark.  One process runs one workload for
   a fixed time from a single load thread, checks every job against the
   Ast-engine reference, and prints every metric by name with its unit.
   The last line of standard output is the JSON result.  See README.md. *)

let now = Unix.gettimeofday
let nproc = Domain.recommended_domain_count ()

(* set-up processes per run; setup_s is the median of their times *)
let setup_children = 15

(* the usual time to start and reap [true] on the reference host (ms) *)
let true_ref_ms = 0.8

(* native jobs run every rank in one block on the calling domain.  With
   two blocks the native engine intermittently raises Machine.Stalled with
   no rank blocked (README.md gives the rates), and a benchmark workload
   must not fail. *)
let native_domains = 1

(* ---------------- metrics ---------------- *)

let end_to_end =
  [ ("setup_s", "s"); ("job_p50_ms", "ms"); ("job_tail_ms", "ms");
    ("jobs_per_s", "1/s"); ("sim_makespan_s", "sim_s"); ("peak_rss_mb", "MB") ]

let skeletons =
  [ "array_create"; "array_destroy"; "array_map"; "array_fold"; "array_copy";
    "array_broadcast_part"; "array_permute_rows"; "array_gen_mult" ]

(* Per-layer metrics with their units.  Every workload measures all of
   them: a layer its timed loop does not use is measured by one checked
   pass over the workload's distinct jobs after the timed window. *)
let per_layer =
  [ ("parser.parse_ms", "ms"); ("typecheck.check_ms", "ms");
    ("instantiate.program_ms", "ms"); ("compile.program_ms", "ms");
    ("spmd.prepare_source_ms", "ms");
    ("machine.run_ms", "ms"); ("machine.wall_us_per_msg", "us");
    ("machine.msgs", "count"); ("machine.bytes", "count");
    ("machine.skeleton_calls", "count"); ("machine.compute_sim_s", "sim_s");
    ("machine.wait_sim_s", "sim_s"); ("machine.overhead_sim_s", "sim_s") ]
  @ List.map (fun s -> ("skeleton." ^ s ^ ".sim_ms", "sim_ms")) skeletons
  @ [ ("collective.sim_ms", "sim_ms"); ("native.run_ms", "ms");
      ("native.wait_frac", "ratio"); ("native.us_per_msg", "us");
      ("service.queue_wait_ms", "ms"); ("service.exec_hit_ms", "ms");
      ("service.exec_cold_ms", "ms"); ("progcache.hit_ratio", "ratio");
      ("jobspec.cache_key_us", "us"); ("proto.request_us", "us");
      ("proto.reply_us", "us"); ("service.shed", "count");
      ("service.retried", "count"); ("service.err", "count") ]
  @ List.map (fun p -> ("job." ^ p ^ ".p50_ms", "ms")) Catalog.programs
  @ [ ("trace.overhead_pct", "%"); ("hostspeed.kernel_ms", "ms");
      ("raw.setup_s", "s"); ("raw.job_p50_ms", "ms"); ("raw.job_tail_ms", "ms");
      ("raw.jobs_per_s", "1/s") ]

let units = end_to_end @ per_layer

let measured : (string, float) Hashtbl.t = Hashtbl.create 64

let emit name v =
  if not (List.mem_assoc name units) then invalid_arg ("unknown metric " ^ name);
  Hashtbl.replace measured name v

let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* ---------------- host facts ---------------- *)

let commit () =
  (* the checkout need not be a git repository *)
  try
    let head = String.trim (Catalog.read ".git/HEAD") in
    if String.starts_with ~prefix:"ref: " head then
      String.trim
        (Catalog.read (".git/" ^ String.sub head 5 (String.length head - 5)))
    else head
  with _ -> "unknown"

let peak_rss_mb () =
  let line =
    List.find_opt
      (String.starts_with ~prefix:"VmHWM:")
      (String.split_on_char '\n' (Catalog.read "/proc/self/status"))
  in
  match line with
  | Some l ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
  | None -> 0.

(* peak_rss_mb is VmHWM once the timed loop has completed a fixed number
   of jobs, so it measures a fixed amount of work: over a fixed time a
   faster build completes more jobs, keeps more latency samples, and
   would read higher.  A run that completes fewer reads it at the end of
   its timed window. *)
let rss_jobs_apps = 96 (* 16 rounds *)
let rss_jobs_service = 16_000
let rss = ref None

let rss_check ~completed ~at =
  if !rss = None && completed >= at then begin
    rss := Some (peak_rss_mb ());
    Printf.printf "peak_rss_mb read after %d jobs\n" completed
  end

(* ---------------- set-up time ---------------- *)

(* setup_s: [setup_children] fresh processes of this executable each run
   the workload's set-up (--setup-only) and print "ready" when they would
   start the first timed job.  setup_s is the median time from spawning
   one to reading its "ready", so it covers process and runtime start,
   preparing every program, creating the service and growing the crew.
   Process start and page faults do not follow the kernel, so each time
   is scaled instead by the start of [true], timed just before it:
   [t *. true_ref_ms /. true_ms].  raw.setup_s is the unscaled median. *)
let setup_time workload =
  let one () =
    let exe = Sys.executable_name in
    let t_true = now () in
    let pid = Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout Unix.stderr in
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "bench: true failed");
    let t0 = now () in
    let ic =
      Unix.open_process_args_in exe [| exe; "--setup-only"; "--workload"; workload |]
    in
    let line = In_channel.input_line ic in
    let t1 = now () in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some "ready" -> (t1 -. t0, (t0 -. t_true) *. 1000.)
    | _ -> failwith "bench: a set-up process failed"
  in
  let runs = List.init setup_children (fun _ -> one ()) in
  emit "raw.setup_s" (Span.median (List.map fst runs));
  emit "setup_s" (Span.median (List.map (fun (t, ms) -> t *. true_ref_ms /. ms) runs));
  Printf.printf "setup: starting true took %.4f ms (median of %d; reference %g ms)\n"
    (Span.median (List.map snd runs)) setup_children true_ref_ms

(* ---------------- shared pieces ---------------- *)

module S = Span.Samples

let job_p50s : (string, S.t) Hashtbl.t = Hashtbl.create 8 (* untraced ms *)
let traced_ms : (string, S.t) Hashtbl.t = Hashtbl.create 8

let note tbl program ms =
  match Hashtbl.find_opt tbl program with
  | Some s -> S.add s ms
  | None ->
      let s = S.create () in
      S.add s ms;
      Hashtbl.replace tbl program s

(* [rates]: jobs per second over each round or window of the run.  Their
   median, not the run's mean, so a short burst of host noise moves it
   little.  [raw_lat] and [raw_rates] are the same unscaled, and [kernel]
   holds the run's kernel passes (ms). *)
let latency_metrics lat ~rates ~raw_lat ~raw_rates ~kernel =
  if !rss = None then begin
    rss := Some (peak_rss_mb ());
    print_endline "peak_rss_mb read at the end of the timed window"
  end;
  emit "job_p50_ms" (S.median lat);
  let v, pct, n = S.tail lat in
  emit "job_tail_ms" v;
  Printf.printf "job_tail_ms is p%g of %d samples\n" pct n;
  emit "jobs_per_s" (Span.median rates);
  Printf.printf "jobs_per_s is the median of %d windows\n" (List.length rates);
  emit "raw.job_p50_ms" (S.median raw_lat);
  (let v, _, _ = S.tail raw_lat in
   emit "raw.job_tail_ms" v);
  emit "raw.jobs_per_s" (Span.median raw_rates);
  let ks = S.sorted kernel in
  emit "hostspeed.kernel_ms" (Span.median_of_sorted ks);
  if Array.length ks > 0 then
    Printf.printf "hostspeed: %d kernel passes, median %.4f ms, range %.4f-%.4f ms (reference %g ms)\n"
      (Array.length ks) (Span.median_of_sorted ks) ks.(0) ks.(Array.length ks - 1)
      Hostspeed.ref_ms

(* job.<program>.p50_ms (other programs are printed), and the tracing
   overhead: traced minus untraced summed per-program medians, as a share
   of the untraced sum. *)
let program_metrics ~traced =
  let sum_p50 tbl =
    Hashtbl.fold
      (fun p l acc ->
        if Hashtbl.mem job_p50s p && Hashtbl.mem traced_ms p then acc +. S.median l
        else acc)
      tbl 0.
  in
  Hashtbl.iter
    (fun p l ->
      if List.mem p Catalog.programs then emit ("job." ^ p ^ ".p50_ms") (S.median l)
      else Printf.printf "job %s p50 %.4f ms\n" p (S.median l))
    job_p50s;
  if traced then begin
    let u = sum_p50 job_p50s and t = sum_p50 traced_ms in
    if u > 0. then emit "trace.overhead_pct" (100. *. (t -. u) /. u)
  end

(* Frontend phases, timed separately around each public entry point, and
   the untraced Spmd.prepare_source of the same source for comparison. *)
let frontend_metrics sources =
  Span.on := true;
  let samples =
    List.mapi
      (fun i (src, entry) ->
        let job = 1_000_000 + i in
        let prep () =
          let t0 = now () in
          ignore (Spmd.prepare_source src ~entry : Spmd.prepared);
          (now () -. t0) *. 1000.
        in
        let phases () =
          Span.record ~job "frontend" (fun () ->
              let p = Span.record ~job "parser.parse" (fun () -> Parser.parse src) in
              let env =
                Span.record ~job "typecheck.check" (fun () -> Typecheck.check p)
              in
              let inst =
                Span.record ~job "instantiate.program" (fun () ->
                    Instantiate.program env p ~entries:[ entry ])
              in
              let env =
                Span.record ~job "typecheck.check" (fun () -> Typecheck.check inst)
              in
              ignore
                (Span.record ~job "compile.program" (fun () ->
                     Compile.program ~tyenv:env inst)
                  : Compile.t))
        in
        (* alternate the order so neither side always runs warm *)
        let prep_ms =
          if i mod 2 = 0 then (
            phases ();
            prep ())
          else
            let ms = prep () in
            phases ();
            ms
        in
        (job, prep_ms))
      sources
  in
  Span.on := false;
  let phase name =
    let tbl = Span.per_job name in
    List.map (fun (job, _) -> Option.value (List.assoc_opt job tbl) ~default:0.) samples
  in
  let names =
    [ "parser.parse"; "typecheck.check"; "instantiate.program"; "compile.program" ]
  in
  let per_phase = List.map phase names in
  List.iter2 (fun n l -> emit (n ^ "_ms") (Span.median l)) names per_phase;
  let prep = List.map snd samples in
  emit "spmd.prepare_source_ms" (Span.median prep);
  let sums = List.fold_left (List.map2 ( +. )) (List.map (fun _ -> 0.) prep) per_phase in
  Printf.printf
    "frontend phases cover %.4f of the untraced Spmd.prepare_source (median \
     over %d sources)\n"
    (Span.median (List.map2 ( /. ) sums prep))
    (List.length prep)

(* A traced result's Profile.  Only the profile is kept, and a full
   collection runs before each traced job: a simulator trace of a
   full-size job holds hundreds of MB, and traces left for the GC to find
   pile up. *)
let profile ~nprocs (r : Spmd.outcome Machine.result) =
  Profile.of_trace r.Machine.trace ~nprocs ~makespan:r.Machine.time

(* Stats of one pass over distinct simulated jobs, as (untraced result,
   run ms), and the Profiles of one traced run of each. *)
let machine_metrics runs profiles =
  let sumi f = List.fold_left (fun a (r, _) -> a + f r.Machine.stats) 0 runs in
  let sumf f =
    List.fold_left
      (fun a (r, _) ->
        Array.fold_left (fun a p -> a +. f p) a r.Machine.stats.Stats.procs)
      0. runs
  in
  let msgs = sumi Stats.total_msgs in
  let run_ms = Span.sum (List.map snd runs) in
  emit "sim_makespan_s" (Span.sum (List.map (fun (r, _) -> r.Machine.time) runs));
  emit "machine.run_ms" run_ms;
  emit "machine.msgs" (float_of_int msgs);
  if msgs > 0 then emit "machine.wall_us_per_msg" (run_ms *. 1000. /. float_of_int msgs);
  emit "machine.bytes" (float_of_int (sumi Stats.total_bytes));
  emit "machine.skeleton_calls"
    (float_of_int
       (sumi (fun s ->
            Array.fold_left (fun a p -> a + p.Stats.skeleton_calls) 0 s.Stats.procs)));
  emit "machine.compute_sim_s" (sumf (fun p -> p.Stats.compute_time));
  emit "machine.wait_sim_s" (sumf (fun p -> p.Stats.comm_wait));
  emit "machine.overhead_sim_s" (sumf (fun p -> p.Stats.overhead_time));
  if profiles <> [] then begin
    let skel = Hashtbl.create 8 and coll = ref 0. in
    List.iter
      (fun (prof : Profile.t) ->
        List.iter
          (fun (s : Profile.per_span) ->
            let ms = s.Profile.time *. 1000. in
            match s.Profile.cat with
            | Trace.Collective -> coll := !coll +. ms
            | Trace.Skeleton ->
                Hashtbl.replace skel s.Profile.name
                  (ms +. Option.value (Hashtbl.find_opt skel s.Profile.name) ~default:0.))
          prof.Profile.spans)
      profiles;
    List.iter
      (fun s ->
        emit ("skeleton." ^ s ^ ".sim_ms")
          (Option.value (Hashtbl.find_opt skel s) ~default:0.))
      skeletons;
    emit "collective.sim_ms" !coll
  end

(* Native run time, time per message, and the share of rank time spent
   waiting, over one (ms, msgs, summed comm_wait s, ranks x wall s) per
   distinct job. *)
let native_metrics rows =
  let sum f = List.fold_left (fun a r -> a +. f r) 0. rows in
  let run_ms = sum (fun (ms, _, _, _) -> ms) in
  let msgs = sum (fun (_, m, _, _) -> m) in
  emit "native.run_ms" run_ms;
  if msgs > 0. then emit "native.us_per_msg" (run_ms *. 1000. /. msgs);
  let rank_s = sum (fun (_, _, _, r) -> r) in
  if rank_s > 0. then emit "native.wait_frac" (sum (fun (_, _, w, _) -> w) /. rank_s)

let comm_wait (r : Spmd.outcome Machine.result) =
  Array.fold_left (fun a p -> a +. p.Stats.comm_wait) 0. r.Machine.stats.Stats.procs

let reference_ok = ref true

let checked ~sim expected j r =
  if not (Catalog.check_result ~sim (List.assoc (Catalog.key j) expected) r) then
    reference_ok := false

(* One checked simulator pass over [jobs] outside the timed window:
   untraced (Stats, makespan) and, when [traced], with the simulator trace
   on (Profile). *)
let sim_pass ~traced jobs expected =
  let run ~trace j =
    let p = Spmd.prepare_source (Catalog.source j) ~entry:j.Catalog.entry in
    if trace then Gc.full_major ();
    let t0 = now () in
    let r = Spmd.run_prepared ~trace ~topology:(Catalog.topology j) p ~args:(Catalog.args j) in
    let ms = (now () -. t0) *. 1000. in
    checked ~sim:true expected j r;
    (r, ms)
  in
  let runs = List.map (run ~trace:false) jobs in
  let profiles =
    if traced then List.map (fun j -> profile ~nprocs:(Catalog.nprocs j) (fst (run ~trace:true j))) jobs
    else []
  in
  machine_metrics runs profiles

(* One checked native pass over [jobs] outside the timed window. *)
let native_pass jobs expected =
  native_metrics
    (List.map
       (fun j ->
         let p = Spmd.prepare_source ~engine:`Native (Catalog.source j) ~entry:j.Catalog.entry in
         let t0 = now () in
         let r =
           Spmd.run_prepared ~native_domains ~topology:(Catalog.topology j) p
             ~args:(Catalog.args j)
         in
         let wall = now () -. t0 in
         checked ~sim:false expected j r;
         ( wall *. 1000.,
           float_of_int (Stats.total_msgs r.Machine.stats),
           comm_wait r,
           float_of_int (Catalog.nprocs j) *. wall ))
       jobs)

(* ---------------- the service ---------------- *)

(* Buffered-channel IO for [Service.serve], as skild serves a socket. *)
let channel_io ic oc =
  let read_line () = try Some (input_line ic) with End_of_file -> None in
  let read_exact n = try Some (really_input_string ic n) with End_of_file -> None in
  let write line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  (read_line, read_exact, write)

(* A client connection over two pipes, served by [Service.serve] on its
   own thread.  A reply is stamped when the load thread reads it. *)
module Conn = struct
  type t = { oc : out_channel; ic : in_channel; th : Thread.t }

  let connect svc =
    let req_r, req_w = Unix.pipe ~cloexec:true () in
    let rep_r, rep_w = Unix.pipe ~cloexec:true () in
    let serve () =
      let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr rep_w in
      let read_line, read_exact, write = channel_io ic oc in
      Service.serve svc ~read_line ~read_exact ~write;
      close_out oc;
      close_in ic
    in
    let th = Thread.create serve () in
    { oc = Unix.out_channel_of_descr req_w; ic = Unix.in_channel_of_descr rep_r; th }

  let send t frame =
    output_string t.oc frame;
    flush t.oc

  let recv t =
    let line = input_line t.ic in
    (now (), line)

  (* QUIT answers the client's pending jobs before the connection ends *)
  let close t =
    send t "QUIT\n";
    Thread.join t.th;
    close_out t.oc;
    close_in t.ic
end

let spec_of ~engine (j : Catalog.job) ~id ~src =
  {
    Jobspec.default with
    Jobspec.id = string_of_int id;
    file = j.Catalog.program ^ ".skil";
    entry = j.Catalog.entry;
    args = j.Catalog.args;
    width = j.Catalog.width;
    height = j.Catalog.height;
    torus = j.Catalog.torus;
    engine;
    native_domains = (if engine = `Native then Some native_domains else None);
    src_bytes = String.length src;
  }

let frame spec src = Proto.render_job_header (Jobspec.to_kv spec) ^ "\n" ^ src ^ "\n"

type inflight = { ijob : Catalog.job; t_submit : float; itraced : bool }

(* One client's jobs: submitted by the load thread, checked on reply.
   Only a [timed] load adds to the job latency samples. *)
type load = {
  conn : Conn.t;
  engine : Spmd.engine;
  timed : bool;
  expected : (string * Catalog.expected) list;
  tally : Catalog.tally;
  inflight : (string, inflight) Hashtbl.t;
  lat : S.t;
  queue_wait : S.t;
  exec_hit : S.t;
  exec_cold : S.t;
  mutable next : int;
  mutable completed : int;
}

let new_load ~conn ~engine ~timed ~expected tally =
  {
    conn; engine; timed; expected; tally;
    inflight = Hashtbl.create 16;
    lat = S.create (); queue_wait = S.create ();
    exec_hit = S.create (); exec_cold = S.create ();
    next = 0; completed = 0;
  }

let submit l ~traced j src =
  let id = l.next in
  l.next <- id + 1;
  Span.on := traced;
  let spec = spec_of ~engine:l.engine j ~id ~src in
  let msg =
    Span.record ~job:id "proto.request" (fun () ->
        let m = frame spec src in
        (* the decoding the service does, timed from outside *)
        (if traced then
           match Proto.parse_request (Proto.render_job_header (Jobspec.to_kv spec)) with
           | Ok (Proto.Job kvs) -> ignore (Jobspec.of_kv kvs : (Jobspec.t, string) result)
           | _ -> failwith "bench: request does not parse back");
        m)
  in
  if traced then
    Span.record ~job:id "jobspec.cache_key" (fun () ->
        ignore (Jobspec.cache_key spec ~source:src : string));
  Span.on := false;
  Hashtbl.replace l.inflight (string_of_int id)
    { ijob = j; t_submit = now (); itraced = traced };
  Conn.send l.conn msg

let handle l (t_reply, line) =
  let t0 = now () in
  let reply = Proto.parse_reply line in
  let t1 = now () in
  let id =
    match reply with
    | Ok (Proto.Ok_reply r) -> r.id
    | Ok (Proto.Err_reply r) -> r.id
    | Error _ -> ""
  in
  match Hashtbl.find_opt l.inflight id with
  | None -> Catalog.count l.tally (Errclass.name Errclass.Internal)
  | Some f ->
      Hashtbl.remove l.inflight id;
      l.completed <- l.completed + 1;
      if l.timed then rss_check ~completed:l.completed ~at:rss_jobs_service;
      let job = int_of_string id in
      Span.on := f.itraced;
      Span.add ~job "proto.reply" ~t0 ~t1;
      Span.add ~job "service.job" ~t0:f.t_submit ~t1:t_reply;
      Span.on := false;
      let ms = (t_reply -. f.t_submit) *. 1000. in
      let prog = f.ijob.Catalog.program in
      if l.timed then
        if f.itraced then note traced_ms prog ms
        else begin
          S.add l.lat ms;
          note job_p50s prog ms
        end;
      match reply with
      | Ok (Proto.Ok_reply r) ->
          let e = List.assoc (Catalog.key f.ijob) l.expected in
          Catalog.count l.tally
            (if r.value = e.Catalog.value && r.output = e.Catalog.output then "ok"
             else "mismatch");
          S.add l.queue_wait (ms -. r.ms);
          S.add (if r.cache_hit then l.exec_hit else l.exec_cold) r.ms
      | Ok (Proto.Err_reply r) -> Catalog.count l.tally (Errclass.name r.cls)
      | Error _ -> Catalog.count l.tally (Errclass.name Errclass.Internal)

let drain l =
  while Hashtbl.length l.inflight > 0 do
    handle l (Conn.recv l.conn)
  done

let service_metrics l svc ~(base : Service.stats) =
  let st = Service.stats svc in
  emit "service.queue_wait_ms" (S.median l.queue_wait);
  emit "service.exec_hit_ms" (S.median l.exec_hit);
  emit "service.exec_cold_ms" (S.median l.exec_cold);
  let hits = st.Service.cache_hits - base.Service.cache_hits
  and misses = st.Service.cache_misses - base.Service.cache_misses in
  if hits + misses > 0 then
    emit "progcache.hit_ratio" (float_of_int hits /. float_of_int (hits + misses));
  emit "service.shed" (float_of_int (st.Service.shed - base.Service.shed));
  emit "service.retried" (float_of_int (st.Service.retried - base.Service.retried));
  emit "service.err" (float_of_int (st.Service.err - base.Service.err));
  let us name = List.map (fun (_, ms) -> ms *. 1000.) (Span.per_job name) in
  emit "jobspec.cache_key_us" (Span.median (us "jobspec.cache_key"));
  emit "proto.request_us" (Span.median (us "proto.request"));
  emit "proto.reply_us" (Span.median (us "proto.reply"))

let start_service () =
  let svc = Service.create ~config:Service.default_config () in
  (svc, Conn.connect svc)

let stop_service (svc, conn) =
  Conn.close conn;
  Service.shutdown svc

(* One checked pass of [jobs] through a service outside the timed window,
   one job at a time: each job's source first (a miss), then again (a
   hit). *)
let service_pass ~engine jobs expected =
  let svc, conn = start_service () in
  let l = new_load ~conn ~engine ~timed:false ~expected (Catalog.tally ()) in
  let base = Service.stats svc in
  List.iter
    (fun j ->
      let src = Catalog.source j in
      for _ = 1 to 2 do
        submit l ~traced:true j src;
        drain l
      done)
    jobs;
  if l.tally.Catalog.failed > 0 then reference_ok := false;
  service_metrics l svc ~base;
  stop_service (svc, conn)

(* ---------------- sim-apps and native-apps ---------------- *)

let apps_jobs = List.map fst Catalog.apps
let engine_of ~native = if native then `Native else `Compiled

let apps_setup ~native () =
  List.map
    (fun j ->
      ( Catalog.key j,
        Span.record "spmd.prepare_source" (fun () ->
            Spmd.prepare_source ~engine:(engine_of ~native) (Catalog.source j)
              ~entry:j.Catalog.entry) ))
    apps_jobs

let run_apps ~native ~rng ~seconds ~trace tally =
  let jobs = apps_jobs in
  let expected = List.map (fun j -> (Catalog.key j, Catalog.load j)) jobs in
  Span.on := trace;
  let prepared = Span.record "setup" (apps_setup ~native) in
  let round = List.concat_map (fun (j, w) -> List.init w (fun _ -> j)) Catalog.apps in
  let lat = S.create () and raw_lat = S.create () and kernel = S.create () in
  let first = Hashtbl.create 8 and profiles = Hashtbl.create 8 in
  let sim_trace_pct = ref [] in
  let waits = Hashtbl.create 8 (* program -> (comm_wait s, ranks x wall s) list *) in
  let job_id = ref 0 and rounds = ref 0 and rates = ref [] and raw_rates = ref [] in
  (* a kernel pass before the first job and after every job: each job is
     scaled by the mean of the passes on either side of it *)
  let k_prev = ref (Hostspeed.sample ()) in
  let t_start = now () in
  while now () -. t_start < seconds do
    (* in the traced run every other round records spans; untraced rounds
       give the per-program medians.  The simulator trace is on for the
       first traced run of each distinct job only, for its Profile. *)
    let traced = trace && !rounds mod 2 = 1 in
    Span.on := traced;
    let round_ms = ref 0. and round_raw_ms = ref 0. in
    List.iter
      (fun j ->
        let id = !job_id in
        incr job_id;
        rss_check ~completed:id ~at:rss_jobs_apps;
        let key = Catalog.key j and topology = Catalog.topology j in
        let p = List.assoc key prepared in
        let sim_trace = traced && (not native) && not (Hashtbl.mem profiles key) in
        if sim_trace then Gc.full_major ();
        let t0 = now () in
        let res =
          match
            Span.record ~job:id "spmd.run_prepared" (fun () ->
                if native then
                  Spmd.run_prepared ~native_domains ~topology p
                    ~args:(Catalog.args j)
                else
                  Spmd.run_prepared ~trace:sim_trace ~topology p ~args:(Catalog.args j))
          with
          | r -> Ok r
          | exception e -> Error e
        in
        let wall = now () -. t0 in
        let k_next = Hostspeed.sample () in
        let ms = Hostspeed.scale (wall *. 1000.) ((!k_prev +. k_next) /. 2.) in
        k_prev := k_next;
        if not traced then begin
          S.add kernel k_next;
          S.add raw_lat (wall *. 1000.);
          round_ms := !round_ms +. ms;
          round_raw_ms := !round_raw_ms +. (wall *. 1000.)
        end;
        let cls =
          match res with
          | Error e -> Catalog.class_of_exn e
          | Ok r ->
              if
                Span.record ~job:id "bench.check" (fun () ->
                    Catalog.check_result ~sim:(not native) (List.assoc key expected) r)
              then "ok"
              else "mismatch"
        in
        Catalog.count tally cls;
        let prog = j.Catalog.program in
        if sim_trace then begin
          match Hashtbl.find_opt job_p50s prog with
          | Some u -> sim_trace_pct := (100. *. (ms -. S.median u) /. S.median u) :: !sim_trace_pct
          | None -> ()
        end
        else if traced then note traced_ms prog ms
        else begin
          S.add lat ms;
          note job_p50s prog ms;
          match res with
          | Ok r ->
              if not (Hashtbl.mem first key) then Hashtbl.replace first key r;
              Hashtbl.replace waits prog
                ((comm_wait r, float_of_int (Catalog.nprocs j) *. wall)
                :: Option.value (Hashtbl.find_opt waits prog) ~default:[])
          | Error _ -> ()
        end;
        match res with
        | Ok r when sim_trace -> Hashtbl.replace profiles key (profile ~nprocs:(Catalog.nprocs j) r)
        | _ -> ())
      (Catalog.shuffle rng round);
    if not traced then begin
      let n = float_of_int (List.length round) in
      rates := (n *. 1000. /. !round_ms) :: !rates;
      raw_rates := (n *. 1000. /. !round_raw_ms) :: !raw_rates
    end;
    incr rounds
  done;
  Span.on := false;
  latency_metrics lat ~rates:!rates ~raw_lat ~raw_rates:!raw_rates ~kernel;
  program_metrics ~traced:trace;
  if native then begin
    native_metrics
      (List.filter_map
         (fun j ->
           let prog = j.Catalog.program in
           match (Hashtbl.find_opt first (Catalog.key j), Hashtbl.find_opt waits prog) with
           | Some r, Some w ->
               Some
                 ( S.median (Hashtbl.find job_p50s prog),
                   float_of_int (Stats.total_msgs r.Machine.stats),
                   Span.median (List.map fst w),
                   Span.median (List.map snd w) )
           | _ -> None)
         jobs);
    (* the simulator's view of the same jobs, outside the timed window *)
    sim_pass ~traced:trace jobs expected
  end
  else begin
    let runs =
      List.filter_map
        (fun j ->
          Option.map
            (fun r -> (r, S.median (Hashtbl.find job_p50s j.Catalog.program)))
            (Hashtbl.find_opt first (Catalog.key j)))
        jobs
    in
    machine_metrics runs (List.of_seq (Hashtbl.to_seq_values profiles));
    if !sim_trace_pct <> [] then
      Printf.printf
        "simulator trace: the first traced run of each job took %.1f%% longer than \
         the job's untraced median (median over %d jobs)\n"
        (Span.median !sim_trace_pct) (List.length !sim_trace_pct);
    if trace then native_pass jobs expected
  end;
  if trace then begin
    service_pass ~engine:(engine_of ~native) jobs expected;
    frontend_metrics
      (List.concat_map
         (fun j -> List.init 5 (fun _ -> (Catalog.source j, j.Catalog.entry)))
         jobs)
  end

(* ---------------- service-mix ---------------- *)

(* The traffic.  One connection keeps [window] jobs in flight, skilbench's
   default window per client.  A hot job is from skilbench's benign mix
   or from the corpus, each half the time.  One job in [cold_one_in] is
   cold, about the share of bench's skild cell (30 cold of 230 jobs).
   The service runs skild's default configuration, whose cache of 128
   programs a run's cold sources overflow many times. *)
let window = 8
let cold_one_in = 8
let segment = 0.5 (* seconds: one throughput window *)
let cold_kept = 64

let pick_hot rng =
  let l = if Random.State.bool rng then Catalog.skilbench else Catalog.corpus_hot in
  List.nth l (Random.State.int rng (List.length l))

let service_setup () =
  let svc, conn = start_service () in
  (* warm the compiled-program cache with the hot set *)
  List.iter
    (fun j ->
      let src = Catalog.source j in
      Conn.send conn (frame (spec_of ~engine:`Compiled j ~id:(-1) ~src) src);
      match Proto.parse_reply (snd (Conn.recv conn)) with
      | Ok (Proto.Ok_reply _) -> ()
      | _ -> failwith "service-mix: warm-up job failed")
    Catalog.hot;
  (svc, conn)

let run_service ~rng ~seconds ~trace tally =
  let expected = List.map (fun j -> (Catalog.key j, Catalog.load j)) Catalog.hot in
  let sources = List.map (fun j -> (Catalog.key j, Catalog.source j)) Catalog.hot in
  Span.on := trace;
  let svc, conn = Span.record "setup" service_setup in
  let base = Service.stats svc in
  let l = new_load ~conn ~engine:`Compiled ~timed:true ~expected tally in
  let cold_sources = ref [] and n_cold = ref 0 in
  let submit_next () =
    let id = l.next in
    let j = pick_hot rng in
    let src = List.assoc (Catalog.key j) sources in
    let cold = Random.State.int rng cold_one_in = 0 in
    let src =
      if not cold then src
      else
        (* a unique comment: same program, new cache key *)
        Printf.sprintf "/* cold %d %08x%08x */\n%s" id (Random.State.bits rng)
          (Random.State.bits rng) src
    in
    if cold then begin
      incr n_cold;
      if !n_cold <= cold_kept then cold_sources := (src, j.Catalog.entry) :: !cold_sources
    end;
    submit l ~traced:(trace && id mod 2 = 1) j src
  in
  (* The run is a sequence of segments.  Each keeps [window] jobs in
     flight for [segment] seconds and then drains the window; its rate is
     its completions over its length.  Between segments, while the
     window is empty, the kernel runs on this domain and on the service's
     worker at once (the jobs run on both), and a segment's latencies and
     rate are scaled by the mean of the passes on either side of it. *)
  let rates = ref [] and raw_rates = ref [] in
  let raw_lat = S.create () and kernel = S.create () in
  let k_prev = ref (Hostspeed.sample_crew ()) in
  let t_start = now () in
  while now () -. t_start < seconds do
    let done0 = l.completed and n0 = l.lat.S.n in
    let t_seg = now () in
    while now () -. t_seg < segment do
      while Hashtbl.length l.inflight < window do
        submit_next ()
      done;
      handle l (Conn.recv conn)
    done;
    drain l;
    let rate = float_of_int (l.completed - done0) /. (now () -. t_seg) in
    let k_next = Hostspeed.sample_crew () in
    let k = (!k_prev +. k_next) /. 2. in
    k_prev := k_next;
    S.add kernel k_next;
    for i = n0 to l.lat.S.n - 1 do
      S.add raw_lat l.lat.S.a.(i);
      l.lat.S.a.(i) <- Hostspeed.scale l.lat.S.a.(i) k
    done;
    raw_rates := rate :: !raw_rates;
    rates := (rate *. k /. Hostspeed.ref_ms) :: !rates
  done;
  latency_metrics l.lat ~rates:!rates ~raw_lat ~raw_rates:!raw_rates ~kernel;
  program_metrics ~traced:trace;
  Printf.printf "service-mix: %d cold sources, each distinct; the cache holds %d; window %d\n"
    !n_cold Service.default_config.Service.cache_cap window;
  if trace then service_metrics l svc ~base;
  stop_service (svc, conn);
  sim_pass ~traced:trace Catalog.hot expected;
  if trace then begin
    native_pass Catalog.hot expected;
    frontend_metrics
      (List.map (fun j -> (List.assoc (Catalog.key j) sources, j.Catalog.entry)) Catalog.hot
      @ List.rev !cold_sources)
  end

(* ---------------- reporting ---------------- *)

let print_outcomes (t : Catalog.tally) =
  let counts =
    List.map
      (fun c -> Printf.sprintf "%s=%d" c (Option.value (Hashtbl.find_opt t.Catalog.counts c) ~default:0))
      Catalog.classes
  in
  Printf.printf "outcomes: %s\n" (String.concat " " counts);
  Printf.printf "error_rate %.6f (%d failed of %d attempted)\n"
    (float_of_int t.Catalog.failed /. float_of_int (max 1 t.Catalog.attempted))
    t.Catalog.failed t.Catalog.attempted

let print_self_times () =
  Printf.printf "%-24s %8s %12s %12s\n" "span" "calls" "total ms" "self ms";
  List.iter
    (fun (name, n, tot, self) -> Printf.printf "%-24s %8d %12.3f %12.3f\n" name n tot self)
    (Span.self_times ())

(* Every metric of the run's kind is measured; a missing one is a defect
   of the benchmark, and the run fails without a result. *)
let finish ~trace (t : Catalog.tally) =
  let names = List.map fst (if trace then per_layer else end_to_end) in
  let rows =
    List.map
      (fun name ->
        let unit = List.assoc name units in
        match Hashtbl.find_opt measured name with
        | Some v ->
            Printf.printf "%-28s %16s %s\n" name (json_number v) unit;
            (name, v, unit)
        | None -> failwith ("bench: metric not measured: " ^ name))
      names
  in
  (* the other kind's metrics this run measured, e.g. the raw.* times *)
  List.iter
    (fun (name, unit) ->
      match Hashtbl.find_opt measured name with
      | Some v when not (List.mem name names) ->
          Printf.printf "%-28s %16s %s (not in the JSON)\n" name (json_number v) unit
      | _ -> ())
    units;
  let correct = t.Catalog.failed = 0 && !reference_ok && t.Catalog.attempted > 0 in
  Printf.printf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct t.Catalog.attempted t.Catalog.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} n (json_number v) u)
          rows));
  print_newline ()

(* ---------------- oracle ---------------- *)

let oracle ~write =
  let ok = ref true in
  List.iter
    (fun j ->
      let fresh = Catalog.to_file_string (Catalog.reference j) in
      let path = Catalog.oracle_path j in
      if write then Out_channel.with_open_bin path (fun oc -> output_string oc fresh)
      else if (try Catalog.read path with Sys_error _ -> "") <> fresh then begin
        ok := false;
        Printf.printf "differs: %s\n" path
      end;
      Printf.printf "%s %s\n%!" (if write then "wrote" else "checked") path)
    Catalog.all_jobs;
  !ok

(* ---------------- main ---------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let mode = ref `Run in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W sim-apps | native-apps | service-mix");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--write-oracle", Arg.Unit (fun () -> mode := `Write), " regenerate expected/ with the Ast engine");
      ("--self-test", Arg.Unit (fun () -> mode := `Check), " regenerate the references and diff them");
      ("--setup-only", Arg.Unit (fun () -> mode := `Setup), " run the workload's set-up, print ready, exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload W --seed N --seconds S --trace 0|1";
  let known = [ "sim-apps"; "native-apps"; "service-mix" ] in
  if !mode <> `Write && !mode <> `Check && not (List.mem !workload known) then begin
    prerr_endline ("bench: unknown workload " ^ !workload);
    exit 2
  end;
  match !mode with
  | `Write -> ignore (oracle ~write:true : bool)
  | `Check -> if not (oracle ~write:false) then exit 1
  | `Setup ->
      let ready () = print_endline "ready" in
      if !workload = "service-mix" then begin
        let s = service_setup () in
        ready ();
        stop_service s
      end
      else begin
        ignore (apps_setup ~native:(!workload = "native-apps") ());
        ready ()
      end
  | `Run ->
      if !trace <> 0 && !trace <> 1 then (prerr_endline "bench: --trace is 0 or 1"; exit 2);
      let traced = !trace = 1 in
      let tally = Catalog.tally () in
      Printf.printf "workload %s seed %d seconds %g trace %d\n%!" !workload !seed !seconds !trace;
      setup_time !workload;
      let rng = Random.State.make [| !seed |] in
      (match !workload with
      | "service-mix" -> run_service ~rng ~seconds:!seconds ~trace:traced tally
      | w -> run_apps ~native:(w = "native-apps") ~rng ~seconds:!seconds ~trace:traced tally);
      emit "peak_rss_mb" (Option.get !rss);
      Printf.printf "host: nproc %d, pool workers %d, ocaml %s, commit %s\n" nproc
        (Pool.worker_count ()) Sys.ocaml_version (commit ());
      print_outcomes tally;
      if traced then begin
        Printf.printf "%d spans recorded\n" (Span.count ());
        print_self_times ()
      end;
      finish ~trace:traced tally
