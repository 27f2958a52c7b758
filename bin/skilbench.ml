(* skilbench — load generator and protocol checker for the skild daemon.

   Opens N client connections, streams a windowed mix of jobs — valid
   skeleton programs, compute loops, type/syntax/runtime errors, and in
   [--hostile] mode stalling programs, deadline-doomed loops, grids too
   large to build, malformed headers, garbage lines, oversized sources,
   plus clients that vanish mid-job — and checks the daemon's contract
   from the outside:

   - every reply parses ({!Proto.parse_reply});
   - every job sent with an id is answered exactly once, with a reply
     class the job kind can legitimately produce;
   - valid parallel jobs return output byte-identical to an in-process
     [Spmd.run_source] of the same spec (the run-par equivalence);
   - the daemon stays responsive (PING -> PONG) after the storm.

   Prints jobs/sec and p50/p99 latency; exits nonzero on any violation. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Job corpus                                                          *)

(* a real skeleton pipeline: create, map, fold, print — communicates on
   every fold, so it exercises the collectives under the daemon *)
let par_src =
  "int conv(int v, Index ix) { return v; }\n\
   int sq(int v, Index ix) { return v * v; }\n\
   int addi(int a, int b) { return a + b; }\n\
   int init(Index ix) { return ix[0] + 1; }\n\
   int main() {\n\
  \  array<int> a;\n\
  \  a = array_create(1, {64}, {0}, {-1}, init, DISTR_DEFAULT);\n\
  \  array_map(sq, a, a);\n\
  \  print_int(array_fold(conv, addi, a));\n\
  \  array_destroy(a);\n\
  \  return 0;\n\
   }\n"

(* sequential compute loop, cost scaled by the argument: cheap for
   throughput jobs, effectively unbounded for deadline jobs *)
let loop_src =
  "int main(int n) {\n\
  \  int i;\n\
  \  int s;\n\
  \  s = 0;\n\
  \  for (i = 0; i < n; i = i + 1) { s = s + i % 7; }\n\
  \  return s;\n\
   }\n"

let type_err_src = "int main() { return \"not an int\"; }\n"
let syntax_err_src = "int main( { return 0; }\n"
let runtime_err_src = "int main() { return 1 / 0; }\n"

type kind =
  | Par (* skeleton job: expect OK, output checked *)
  | Compute (* loop with a small n: expect OK *)
  | Type_err
  | Syntax_err
  | Runtime_err
  | Stall (* par job under faults drop=1: quiescence or deadline *)
  | Doomed (* huge loop with a tiny deadline: expect deadline *)
  | Huge_grid (* par job on a 100000x100000 grid: invalid *)
  | Oversized (* src-bytes over the daemon's cap: badreq *)
  | Malformed (* unparseable header field: badreq, framed resync *)
  | Garbage (* not even a request line: anonymous badreq *)

let kind_name = function
  | Par -> "par"
  | Compute -> "compute"
  | Type_err -> "type-err"
  | Syntax_err -> "syntax-err"
  | Runtime_err -> "runtime-err"
  | Stall -> "stall"
  | Doomed -> "doomed"
  | Huge_grid -> "huge-grid"
  | Oversized -> "oversized"
  | Malformed -> "malformed"
  | Garbage -> "garbage"

(* reply classes each kind may legitimately produce ([`Ok] = OK reply);
   Overload is acceptable for anything that reaches admission — shedding
   at the door is correct behaviour under pressure *)
let acceptable kind (outcome : [ `Ok | `Cls of Errclass.t ]) =
  match (kind, outcome) with
  | (Par | Compute), `Ok -> true
  | Type_err, `Cls Errclass.Type_err -> true
  | Syntax_err, `Cls Errclass.Syntax -> true
  | Runtime_err, `Cls Errclass.Runtime -> true
  | Stall, `Cls (Errclass.Stall | Errclass.Deadline) -> true
  | Doomed, `Cls Errclass.Deadline -> true
  | Huge_grid, `Cls (Errclass.Invalid | Errclass.Overload) -> true
  | (Oversized | Malformed | Garbage), `Cls Errclass.Badreq -> true
  | ( (Par | Compute | Type_err | Syntax_err | Runtime_err | Stall | Doomed),
      `Cls Errclass.Overload ) ->
      true
  | _ -> false

let spec_of ~id ~kind ~engine ~doom_deadline_ms ~oversized_bytes =
  let d = Jobspec.default in
  let withsrc spec src =
    ({ spec with Jobspec.src_bytes = String.length src }, src)
  in
  match kind with
  | Par -> withsrc { d with Jobspec.id; engine } par_src
  | Compute ->
      withsrc { d with Jobspec.id; args = [ 1000 ]; width = 1; height = 1 }
        loop_src
  | Type_err -> withsrc { d with Jobspec.id } type_err_src
  | Syntax_err -> withsrc { d with Jobspec.id } syntax_err_src
  | Runtime_err ->
      withsrc { d with Jobspec.id; width = 1; height = 1 } runtime_err_src
  | Stall ->
      withsrc
        { d with Jobspec.id; faults = Some "drop=1.0"; deadline_ms = Some 5000 }
        par_src
  | Doomed ->
      withsrc
        {
          d with
          Jobspec.id;
          args = [ 1000000000 ];
          width = 1;
          height = 1;
          deadline_ms = Some doom_deadline_ms;
        }
        loop_src
  | Huge_grid ->
      withsrc
        { d with Jobspec.id; engine; width = 100000; height = 100000 }
        par_src
  | Oversized ->
      (* an honest frame whose declared (and real) body length exceeds the
         daemon's cap: tests the skip-and-reply path *)
      let src = String.make oversized_bytes 'x' in
      withsrc { d with Jobspec.id } src
  | Malformed | Garbage -> ({ d with Jobspec.id }, "")

(* ------------------------------------------------------------------ *)
(* One client connection                                               *)

type outcome_rec = { okind : kind; latency_ms : float; ok : bool }

type client_result = {
  sent : int;
  replies : int;
  oks : int;
  errs : int;
  outcomes : outcome_rec list;
  violations : string list;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let run_client ~cid ~path ~kinds ~engine ~doom_deadline_ms ~oversized_bytes
    ~window ~expected_par_output =
  let _fd, ic, oc = connect path in
  let outstanding : (string, kind * float) Hashtbl.t = Hashtbl.create 64 in
  let anon_expected = ref 0 in
  let violations = ref [] in
  let outcomes = ref [] in
  let sent = ref 0 and replies = ref 0 and oks = ref 0 and errs = ref 0 in
  let violate fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let record id outcome extra =
    incr replies;
    if id = "-" then begin
      (* anonymous badreq for a garbage line *)
      if !anon_expected > 0 && acceptable Garbage outcome then
        decr anon_expected
      else violate "client %d: unexpected anonymous reply" cid
    end
    else
      match Hashtbl.find_opt outstanding id with
      | None -> violate "client %d: reply for unknown or duplicate id %s" cid id
      | Some (kind, t_send) ->
          Hashtbl.remove outstanding id;
          let latency_ms = (Unix.gettimeofday () -. t_send) *. 1000. in
          let ok = outcome = `Ok in
          if not (acceptable kind outcome) then
            violate "client %d: %s job %s answered %s" cid (kind_name kind) id
              (match outcome with
              | `Ok -> "OK"
              | `Cls c -> "class=" ^ Errclass.name c);
          (match (kind, outcome, extra) with
          | Par, `Ok, Some output when output <> expected_par_output ->
              violate
                "client %d: par job %s output differs from direct run-par \
                 (%d vs %d bytes)"
                cid id (String.length output)
                (String.length expected_par_output)
          | _ -> ());
          outcomes := { okind = kind; latency_ms; ok } :: !outcomes
  in
  let read_reply () =
    match input_line ic with
    | exception End_of_file ->
        violate "client %d: connection closed with %d outstanding" cid
          (Hashtbl.length outstanding);
        false
    | line -> (
        match Proto.parse_reply line with
        | Error e ->
            incr replies;
            violate "client %d: unparseable reply (%s): %s" cid e line;
            true
        | Ok (Proto.Ok_reply { id; output; _ }) ->
            incr oks;
            record id `Ok (Some output);
            true
        | Ok (Proto.Err_reply { id; cls; _ }) ->
            incr errs;
            record id (`Cls cls) None;
            true)
  in
  let pending () = Hashtbl.length outstanding + !anon_expected in
  let send_one i kind =
    let id = Printf.sprintf "c%d-%d" cid i in
    (match kind with
    | Garbage ->
        output_string oc "HELLO SKILD\n";
        incr anon_expected
    | Malformed ->
        (* parseable kv line, hostile field value; the declared src-bytes
           frame a real body so the daemon can resync *)
        let body = "void main() {}\n" in
        Printf.fprintf oc "JOB id=%s width=banana src-bytes=%d\n%s\n" id
          (String.length body) body;
        Hashtbl.replace outstanding id (kind, Unix.gettimeofday ())
    | _ ->
        let spec, src =
          spec_of ~id ~kind ~engine ~doom_deadline_ms ~oversized_bytes
        in
        output_string oc (Proto.render_job_header (Jobspec.to_kv spec));
        output_char oc '\n';
        output_string oc src;
        output_char oc '\n';
        Hashtbl.replace outstanding id (kind, Unix.gettimeofday ()));
    flush oc;
    incr sent
  in
  (try
     List.iteri
       (fun i kind ->
         send_one i kind;
         while pending () >= window && read_reply () do
           ()
         done)
       kinds;
     while pending () > 0 && read_reply () do
       ()
     done
   with e -> violate "client %d: %s" cid (Printexc.to_string e));
  (try close_out oc with _ -> ());
  {
    sent = !sent;
    replies = !replies;
    oks = !oks;
    errs = !errs;
    outcomes = !outcomes;
    violations = List.rev !violations;
  }

(* a client that submits a long job and vanishes: the daemon must cancel
   the orphan and stay healthy; nothing to assert client-side *)
let run_vanisher ~path =
  match connect path with
  | exception _ -> ()
  | fd, _ic, oc ->
      let spec, src =
        spec_of ~id:"vanisher" ~kind:Doomed ~engine:`Compiled
          ~doom_deadline_ms:10000 ~oversized_bytes:0
      in
      (try
         output_string oc (Proto.render_job_header (Jobspec.to_kv spec));
         output_char oc '\n';
         output_string oc src;
         output_char oc '\n';
         flush oc
       with _ -> ());
      Thread.delay 0.05;
      (* abandon the connection without QUIT *)
      try Unix.close fd with _ -> ()

(* ------------------------------------------------------------------ *)
(* Mix and aggregation                                                 *)

let hostile_cycle =
  [
    Par; Compute; Type_err; Par; Syntax_err; Runtime_err; Par; Compute;
    Malformed; Garbage; Par; Doomed; Compute; Stall; Par; Compute;
    Huge_grid;
  ]

let benign_cycle = [ Par; Compute ]

let mix ~hostile ~jobs ~oversized =
  let cycle = if hostile then hostile_cycle else benign_cycle in
  let n = List.length cycle in
  let base = List.init jobs (fun i -> List.nth cycle (i mod n)) in
  if hostile && oversized then Oversized :: base else base

let percentile sorted p =
  match Array.length sorted with
  | 0 -> nan
  | n -> sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let main path jobs clients window hostile engine_s doom_deadline_ms
    oversized_bytes =
  let engine =
    match Jobspec.engine_of_string engine_s with
    | Ok e -> e
    | Error e ->
        prerr_endline ("skilbench: " ^ e);
        exit 2
  in
  (* the reference output a daemon par job must reproduce byte-for-byte *)
  let expected_par_output =
    let d = Jobspec.default in
    Spmd.render
      (Spmd.run_source ~engine ~topology:(Jobspec.topology d) par_src
         ~entry:"main" ~args:[])
  in
  let t0 = Unix.gettimeofday () in
  let vanishers =
    if hostile then
      List.init 2 (fun _ -> Thread.create (fun () -> run_vanisher ~path) ())
    else []
  in
  let slots = Array.make clients None in
  let threads =
    List.init clients (fun cid ->
        Thread.create
          (fun () ->
            slots.(cid) <-
              Some
                (run_client ~cid ~path
                   ~kinds:(mix ~hostile ~jobs ~oversized:(cid = 0))
                   ~engine ~doom_deadline_ms ~oversized_bytes ~window
                   ~expected_par_output))
          ())
  in
  List.iter Thread.join threads;
  List.iter Thread.join vanishers;
  let results =
    Array.to_list slots
    |> List.mapi (fun cid r ->
           match r with
           | Some r -> r
           | None ->
               {
                 sent = 0;
                 replies = 0;
                 oks = 0;
                 errs = 0;
                 outcomes = [];
                 violations = [ Printf.sprintf "client %d died" cid ];
               })
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let sent = sum (fun r -> r.sent)
  and replies = sum (fun r -> r.replies)
  and oks = sum (fun r -> r.oks)
  and errs = sum (fun r -> r.errs) in
  let violations = List.concat_map (fun r -> r.violations) results in
  let ok_latencies =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun o -> if o.ok then Some o.latency_ms else None)
          r.outcomes)
      results
    |> Array.of_list
  in
  Array.sort compare ok_latencies;
  (* the daemon must still answer after the storm *)
  let post_violations =
    match connect path with
    | exception e ->
        [ "post-storm connect failed: " ^ Printexc.to_string e ]
    | _fd, ic, oc -> (
        try
          output_string oc "PING\n";
          flush oc;
          let pong = input_line ic in
          output_string oc "STATS\n";
          flush oc;
          let stats = input_line ic in
          Printf.printf "%s\n" stats;
          output_string oc "QUIT\n";
          flush oc;
          (try close_out oc with _ -> ());
          if pong <> "PONG" then [ "post-storm PING answered " ^ pong ]
          else []
        with e -> [ "post-storm PING failed: " ^ Printexc.to_string e ])
  in
  let violations = violations @ post_violations in
  Printf.printf
    "skilbench: clients=%d sent=%d replies=%d ok=%d err=%d elapsed=%.2fs\n"
    clients sent replies oks errs elapsed;
  Printf.printf "skilbench: jobs/sec=%.1f\n"
    (float_of_int replies /. elapsed);
  if Array.length ok_latencies > 0 then
    Printf.printf "skilbench: p50=%.2fms p99=%.2fms\n"
      (percentile ok_latencies 0.50)
      (percentile ok_latencies 0.99);
  if violations = [] then begin
    print_endline "skilbench: PASS";
    exit 0
  end
  else begin
    List.iter (fun v -> Printf.printf "skilbench: VIOLATION: %s\n" v)
      violations;
    Printf.printf "skilbench: FAIL (%d violations)\n" (List.length violations);
    exit 1
  end

let path_arg =
  Arg.(required
       & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket of a running skild.")

let jobs_arg =
  Arg.(value & opt int 64
       & info [ "jobs" ] ~docv:"N" ~doc:"Jobs per client connection.")

let clients_arg =
  Arg.(value & opt int 4
       & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client connections.")

let window_arg =
  Arg.(value & opt int 8
       & info [ "window" ] ~docv:"N"
           ~doc:"Pipelined jobs outstanding per connection.")

let hostile_arg =
  Arg.(value & flag
       & info [ "hostile" ]
           ~doc:"Mix in malformed headers, garbage lines, oversized \
                 sources, stalling programs, deadline-doomed jobs, grids \
                 too large to build and clients that disconnect mid-job.")

let engine_arg =
  Arg.(value & opt string "compiled"
       & info [ "engine" ] ~docv:"E"
           ~doc:"Engine for the valid parallel jobs (ast, compiled, \
                 native).")

let doom_arg =
  Arg.(value & opt int 30
       & info [ "doom-deadline-ms" ] ~docv:"MS"
           ~doc:"Deadline given to the deadline-doomed jobs.")

let oversized_arg =
  Arg.(value & opt int ((1 lsl 20) + 1)
       & info [ "oversized-bytes" ] ~docv:"N"
           ~doc:"Body size of the oversized job; must exceed the daemon's \
                 --max-src-bytes.")

let () =
  let doc = "load generator and protocol checker for skild" in
  exit
    (Cmd.eval
       (Cmd.v (Cmd.info "skilbench" ~doc)
          Term.(const main $ path_arg $ jobs_arg $ clients_arg $ window_arg
                $ hostile_arg $ engine_arg $ doom_arg $ oversized_arg)))
