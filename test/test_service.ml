(* The skild service contract, tested in-process through a loopback
   client: crash isolation (no job input kills the service), exactly-once
   replies, run-par byte-equivalence (including through the compiled-
   program cache — a QCheck property over random programs), the cache's
   saving over a cold compile, deadline expiry, queue-full shedding,
   mid-job disconnect, graceful drain, and the wire protocol's
   round-trips. *)

let qt ?(count = 20) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:(fun s -> s) gen prop)

(* ------------------------------------------------------------------ *)
(* Loopback harness: a Service plus one attached client whose replies
   land in a polled queue.  Every test builds a fresh harness and shuts
   it down, so services never leak Pool sources into later suites. *)

type harness = {
  svc : Service.t;
  cl : Service.client;
  mx : Mutex.t;
  inbox : string Queue.t;
}

let harness ?(config = Service.default_config) () =
  let mx = Mutex.create () in
  let inbox = Queue.create () in
  let svc = Service.create ~config () in
  let write line =
    Mutex.lock mx;
    Queue.add line inbox;
    Mutex.unlock mx
  in
  let cl = Service.attach svc ~write in
  { svc; cl; mx; inbox }

let recv ?(timeout = 60.) h =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    Mutex.lock h.mx;
    let r = if Queue.is_empty h.inbox then None else Some (Queue.pop h.inbox) in
    Mutex.unlock h.mx;
    match r with
    | Some line -> line
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "no reply within timeout";
        Thread.delay 0.002;
        go ()
  in
  go ()

let reply h =
  match Proto.parse_reply (recv h) with
  | Ok r -> r
  | Error m -> Alcotest.failf "unparseable reply: %s" m

let submit ?(spec = Jobspec.default) h source =
  Service.submit h.svc h.cl ~spec ~source

(* (id, cache_hit, value, output) of an OK reply *)
let expect_ok h =
  match reply h with
  | Proto.Ok_reply { id; cache_hit; value; output; _ } ->
      (id, cache_hit, value, output)
  | Proto.Err_reply { cls; msg; _ } ->
      Alcotest.failf "expected OK, got ERR class=%s: %s" (Errclass.name cls)
        msg

(* (id, msg) of an ERR reply whose class must be [want] *)
let expect_err h want =
  match reply h with
  | Proto.Err_reply { id; cls; msg } ->
      Alcotest.(check string)
        "error class" (Errclass.name want) (Errclass.name cls);
      (id, msg)
  | Proto.Ok_reply { id; _ } ->
      Alcotest.failf "expected ERR class=%s, got OK id=%s" (Errclass.name want)
        id

(* ------------------------------------------------------------------ *)
(* Job corpus (mirrors bin/skilbench.ml)                               *)

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

let loop_src =
  "int main(int n) {\n\
  \  int i;\n\
  \  int s;\n\
  \  s = 0;\n\
  \  for (i = 0; i < n; i = i + 1) { s = s + i % 7; }\n\
  \  return s;\n\
   }\n"

let type_err_src = "int main() { return \"not an int\"; }\n"

(* What the service's OK reply must carry for [spec]/[source], computed by
   a direct in-process run — the run-par equivalence oracle. *)
let direct_run (spec : Jobspec.t) source =
  let r =
    Spmd.run_source ~engine:spec.Jobspec.engine ~instantiate:spec.instantiate
      ~optimize:spec.optimize ~collectives:spec.collectives
      ~cost:(Cost_model.make spec.profile)
      ~topology:(Jobspec.topology spec) source ~entry:spec.entry
      ~args:(List.map (fun n -> Value.VInt n) spec.args)
  in
  (Value.describe r.Machine.values.(0).Spmd.value, Spmd.render r)

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)

let test_runpar_equivalence () =
  let h = harness () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown h.svc)
    (fun () ->
      let spec = { Jobspec.default with Jobspec.id = "eq" } in
      submit ~spec h par_src;
      let id, hit, got_value, got_output = expect_ok h in
      let value, output = direct_run spec par_src in
      Alcotest.(check string) "id echoed" "eq" id;
      Alcotest.(check bool) "first run is a cache miss" false hit;
      Alcotest.(check string) "value" value got_value;
      Alcotest.(check string) "output byte-identical" output got_output)

let gen_cache_program =
  (* small total programs: int fold over a mapped array, randomised in
     size and arithmetic — every one must survive the cache round-trip *)
  let open QCheck2.Gen in
  int_range 2 9 >>= fun n ->
  int_range 1 5 >>= fun c ->
  oneofl [ "+"; "*" ] >>= fun op ->
  oneofl [ "a + b"; "min(a, b)"; "max(a, b)" ] >|= fun merge ->
  Printf.sprintf
    "int conv(int v, Index ix) { return v; }\n\
     int f(int v, Index ix) { return (v %s %d); }\n\
     int merge(int a, int b) { return %s; }\n\
     int init(Index ix) { return ix[0] + 1; }\n\
     int main() {\n\
    \  array<int> a;\n\
    \  a = array_create(1, {%d}, {0}, {-1}, init, DISTR_DEFAULT);\n\
    \  array_map(f, a, a);\n\
    \  print_int(array_fold(conv, merge, a));\n\
    \  array_destroy(a);\n\
    \  return 0;\n\
     }\n"
    op c merge n

let prop_cache_hit_identical src =
  (* a cache-hit run is byte-identical to the fresh compile-and-run of
     the same job, and both match a direct in-process run *)
  let h = harness () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown h.svc)
    (fun () ->
      submit ~spec:{ Jobspec.default with Jobspec.id = "cold" } h src;
      let _, cold_hit, cold_value, cold_output = expect_ok h in
      submit ~spec:{ Jobspec.default with Jobspec.id = "hot" } h src;
      let _, hot_hit, hot_value, hot_output = expect_ok h in
      let value, output = direct_run Jobspec.default src in
      (not cold_hit) && hot_hit
      && cold_value = value
      && hot_value = value
      && cold_output = output
      && hot_output = output)

let test_error_classes_and_diagnostics () =
  let h = harness () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown h.svc)
    (fun () ->
      (* the client-chosen file name prefixes the position verbatim *)
      submit
        ~spec:{ Jobspec.default with Jobspec.id = "t"; file = "myjob.skil" }
        h type_err_src;
      let _, msg = expect_err h Errclass.Type_err in
      if not (String.length msg > 11 && String.sub msg 0 11 = "myjob.skil:")
      then Alcotest.failf "diagnostic lost its file:line:col prefix: %s" msg;
      submit ~spec:{ Jobspec.default with Jobspec.id = "s" } h
        "int main( { return 0; }\n";
      ignore (expect_err h Errclass.Syntax);
      (* a literal OCaml cannot convert is a syntax error at the literal *)
      List.iter
        (fun (lit, what) ->
          submit
            ~spec:{ Jobspec.default with Jobspec.id = "l"; file = "lit.skil" }
            h (Test_lang.literal_src lit);
          Alcotest.(check string) ("literal " ^ lit)
            (Printf.sprintf "lit.skil:2:11: lexical error: %s: %s" what lit)
            (snd (expect_err h Errclass.Syntax)))
        Test_lang.unconvertible_literals;
      (* a diagnostic with no source position names only the file *)
      let spec = { Jobspec.default with Jobspec.id = "e"; entry = "nosuch" } in
      submit ~spec:{ spec with file = "myjob.skil" } h par_src;
      Alcotest.(check string) "unpositioned diagnostic"
        "myjob.skil: not instantiable: entry function nosuch not found"
        (snd (expect_err h Errclass.Inst_err));
      (* loop control outside a loop is a type error, not an internal one *)
      submit ~spec:{ Jobspec.default with Jobspec.id = "c" } h
        "void main() { continue; }\n";
      ignore (expect_err h Errclass.Type_err);
      submit
        ~spec:{ Jobspec.default with Jobspec.id = "r"; width = 1; height = 1 }
        h "int main() { return 1 / 0; }\n";
      ignore (expect_err h Errclass.Runtime);
      (* and the service is still alive for real work after all of that *)
      submit ~spec:{ Jobspec.default with Jobspec.id = "ok" } h par_src;
      ignore (expect_ok h))

(* Bad indices in skeleton calls reach clients with their own classes,
   not [internal]: a non-local element read is a runtime error, a
   broadcast root outside the array an invalid argument. *)
let test_bad_indices_classified () =
  let h = harness () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown h.svc)
    (fun () ->
      let spec id = { Jobspec.default with Jobspec.id; width = 2; height = 1 } in
      submit ~spec:(spec "get") h
        (Test_lang.bad_index_src "print_int(array_get_elem(a, {7, 0}))");
      ignore (expect_err h Errclass.Runtime);
      submit ~spec:(spec "bcast") h
        (Test_lang.bad_index_src "array_broadcast_part(a, {2, 0})");
      ignore (expect_err h Errclass.Invalid))

(* skild's [native-domains=] header field is rejected on the simulator
   engines, not ignored. *)
let test_native_fields_rejected () =
  let h = harness () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown h.svc)
    (fun () ->
      List.iter
        (fun spec ->
          submit ~spec h par_src;
          let line = recv h in
          if not (Test_machine.contains line "class=invalid code=2") then
            Alcotest.failf "%s: expected class=invalid code=2, got %s"
              spec.Jobspec.id line)
        [
          { Jobspec.default with Jobspec.id = "nd"; native_domains = Some 2 };
          {
            Jobspec.default with
            Jobspec.id = "ast";
            engine = `Ast;
            native_domains = Some 2;
          };
        ])

(* A grid over Topology.max_procs is an invalid job, not an internal error
   after the host ran out of memory, and the service answers the next
   job. *)
let test_huge_grid_invalid () =
  let h = harness () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown h.svc)
    (fun () ->
      submit
        ~spec:
          {
            Jobspec.default with
            Jobspec.id = "huge";
            width = 100000;
            height = 100000;
          }
        h par_src;
      let huge_id, _ = expect_err h Errclass.Invalid in
      Alcotest.(check string) "huge grid id" "huge" huge_id;
      submit ~spec:{ Jobspec.default with Jobspec.id = "next" } h par_src;
      let next_id, _, _, _ = expect_ok h in
      Alcotest.(check string) "answered after it" "next" next_id)

let test_stall_classified () =
  let h = harness () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown h.svc)
    (fun () ->
      submit
        ~spec:
          { Jobspec.default with Jobspec.id = "st"; faults = Some "drop=1.0" }
        h par_src;
      ignore (expect_err h Errclass.Stall))

let test_deadline_expiry_then_liveness () =
  let h = harness () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown h.svc)
    (fun () ->
      submit
        ~spec:
          {
            Jobspec.default with
            Jobspec.id = "doom";
            args = [ 1000000000 ];
            width = 1;
            height = 1;
            deadline_ms = Some 30;
          }
        h loop_src;
      let doom_id, _ = expect_err h Errclass.Deadline in
      Alcotest.(check string) "doomed id" "doom" doom_id;
      (* the worker the doomed job occupied is free again *)
      submit ~spec:{ Jobspec.default with Jobspec.id = "after" } h par_src;
      let after_id, _, _, _ = expect_ok h in
      Alcotest.(check string) "alive after reap" "after" after_id;
      let s = Service.stats h.svc in
      Alcotest.(check bool) "watchdog reaped it" true (s.Service.reaped >= 1))

let test_queue_full_shed_exactly_once () =
  let config =
    { Service.default_config with Service.workers = 1; queue_cap = 2 }
  in
  let h = harness ~config () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown h.svc)
    (fun () ->
      (* one job that hogs the worker until its deadline, two that fill
         the queue, and a tail that must be shed at the door *)
      let n = 10 in
      submit
        ~spec:
          {
            Jobspec.default with
            Jobspec.id = "hog";
            args = [ 1000000000 ];
            width = 1;
            height = 1;
            deadline_ms = Some 300;
          }
        h loop_src;
      for i = 1 to n - 1 do
        submit
          ~spec:{ Jobspec.default with Jobspec.id = Printf.sprintf "j%d" i }
          h par_src
      done;
      let seen = Hashtbl.create 16 in
      let shed = ref 0 and ok = ref 0 and deadline = ref 0 in
      for _ = 1 to n do
        (match reply h with
        | Proto.Ok_reply { id; _ } ->
            incr ok;
            Hashtbl.replace seen id (1 + Option.value ~default:0 (Hashtbl.find_opt seen id))
        | Proto.Err_reply { id; cls; _ } ->
            (match cls with
            | Errclass.Overload -> incr shed
            | Errclass.Deadline -> incr deadline
            | c -> Alcotest.failf "unexpected class %s" (Errclass.name c));
            Hashtbl.replace seen id (1 + Option.value ~default:0 (Hashtbl.find_opt seen id)))
      done;
      Alcotest.(check int) "every submission answered once" n
        (Hashtbl.length seen);
      Hashtbl.iter
        (fun id k ->
          if k <> 1 then Alcotest.failf "id %s answered %d times" id k)
        seen;
      Alcotest.(check bool) "overload shedding happened" true (!shed >= 1);
      Alcotest.(check bool) "the hog hit its deadline" true (!deadline = 1);
      Alcotest.(check int) "the rest ran to OK" (n - 1 - !shed) !ok)

(* The compiled-program cache's reason to exist: a hit costs less service
   time than a cold compile.  Thirty sources made distinct by a comment
   each pay parse + typecheck + instantiate + compile; thirty submissions
   of one source hit the cache after the first.  Every job is answered OK,
   exactly once.  The medians compare wall-clock, but they lie far apart
   (about 0.05 against 0.2 ms). *)
let test_cache_hit_cheaper_than_cold () =
  let n = 30 in
  let h = harness () in
  let seen = Hashtbl.create (2 * n) in
  let cold = ref [] and hit = ref [] in
  Fun.protect
    ~finally:(fun () -> Service.shutdown h.svc)
    (fun () ->
      for i = 1 to n do
        submit
          ~spec:{ Jobspec.default with Jobspec.id = Printf.sprintf "cold%d" i }
          h
          (Printf.sprintf "/* cold %d */\n%s" i par_src)
      done;
      for i = 1 to n do
        submit
          ~spec:{ Jobspec.default with Jobspec.id = Printf.sprintf "hit%d" i }
          h par_src
      done;
      for _ = 1 to 2 * n do
        match reply h with
        | Proto.Ok_reply { id; cache_hit; ms; _ } ->
            if Hashtbl.mem seen id then Alcotest.failf "id %s answered twice" id;
            Hashtbl.add seen id ();
            if cache_hit then hit := ms :: !hit else cold := ms :: !cold
        | Proto.Err_reply { id; cls; msg } ->
            Alcotest.failf "job %s: ERR class=%s: %s" id (Errclass.name cls) msg
      done);
  (* shutdown drained the service, so every reply has been written *)
  Alcotest.(check int) "nothing after the last answer" 0
    (Mutex.protect h.mx (fun () -> Queue.length h.inbox));
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  if !hit = [] then Alcotest.fail "no cache hits";
  let cold_ms = median !cold and hit_ms = median !hit in
  if not (hit_ms < cold_ms) then
    Alcotest.failf
      "cache-hit run (%.3f ms) not cheaper than cold compile+run (%.3f ms)"
      hit_ms cold_ms

let test_disconnect_mid_job () =
  let h = harness () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown h.svc)
    (fun () ->
      submit
        ~spec:
          {
            Jobspec.default with
            Jobspec.id = "gone";
            args = [ 1000000000 ];
            width = 1;
            height = 1;
          }
        h loop_src;
      (* let it start, then vanish *)
      Thread.delay 0.05;
      Service.detach h.svc h.cl;
      Service.drain h.svc;
      let s = Service.stats h.svc in
      Alcotest.(check int) "accepted" 1 s.Service.accepted;
      Alcotest.(check int) "answered (into the void)" 1
        (s.Service.ok + s.Service.err);
      Alcotest.(check int) "reply was undeliverable" 1 s.Service.dropped;
      Alcotest.(check int) "nothing left running" 0 s.Service.running_now)

let test_drain_answers_then_rejects () =
  let h = harness () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown h.svc)
    (fun () ->
      submit ~spec:{ Jobspec.default with Jobspec.id = "a" } h par_src;
      submit ~spec:{ Jobspec.default with Jobspec.id = "b" } h par_src;
      Service.drain h.svc;
      (* both accepted jobs were answered before drain returned *)
      ignore (expect_ok h);
      ignore (expect_ok h);
      submit ~spec:{ Jobspec.default with Jobspec.id = "late" } h par_src;
      let late_id, _ = expect_err h Errclass.Draining in
      Alcotest.(check string) "late id" "late" late_id;
      let s = Service.stats h.svc in
      Alcotest.(check int) "drain leaves nothing queued" 0 s.Service.queued_now;
      Alcotest.(check int) "drain leaves nothing running" 0
        s.Service.running_now;
      Alcotest.(check int) "drain leaves nothing delayed" 0
        s.Service.delayed_now)

let test_oversized_rejected () =
  let config = { Service.default_config with Service.max_src_bytes = 64 } in
  let h = harness ~config () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown h.svc)
    (fun () ->
      submit ~spec:{ Jobspec.default with Jobspec.id = "big" } h
        (String.make 65 'x');
      let big_id, _ = expect_err h Errclass.Badreq in
      Alcotest.(check string) "oversized id" "big" big_id;
      (* a fitting job still goes through *)
      submit
        ~spec:
          { Jobspec.default with Jobspec.id = "fits"; width = 1; height = 1 }
        h "int main() { return 7; }\n";
      ignore (expect_ok h))

let test_native_token_contention () =
  (* with a single native token, concurrent native jobs must still all be
     answered OK — excess ones back off and retry rather than failing *)
  let config = { Service.default_config with Service.max_native = 1 } in
  let h = harness ~config () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown h.svc)
    (fun () ->
      for i = 1 to 3 do
        submit
          ~spec:
            {
              Jobspec.default with
              Jobspec.id = Printf.sprintf "n%d" i;
              engine = `Native;
            }
          h par_src
      done;
      for _ = 1 to 3 do
        ignore (expect_ok h)
      done;
      let s = Service.stats h.svc in
      Alcotest.(check int) "all answered" 3 (s.Service.ok + s.Service.err))

(* ------------------------------------------------------------------ *)
(* Wire protocol round-trips                                           *)

let gen_bytes = QCheck2.Gen.(string_size ~gen:char (int_range 0 64))

let prop_escape_roundtrip s = Proto.unescape (Proto.escape s) = Ok s

let test_reply_roundtrip () =
  let check r =
    match Proto.parse_reply (Proto.render_reply r) with
    | Ok r' when r = r' -> ()
    | Ok _ -> Alcotest.failf "reply round-trip changed %s" (Proto.render_reply r)
    | Error m -> Alcotest.failf "reply round-trip failed: %s" m
  in
  check
    (Proto.Ok_reply
       {
         id = "a b%c";
         cache_hit = true;
         engine = "compiled";
         ms = 1.25;
         value = "int 42";
         output = "[proc 0] 1\n[proc 1] 2\n";
       });
  check
    (Proto.Err_reply
       {
         id = "-";
         cls = Errclass.Stall;
         msg = "myjob.skil:3:1: stalled: 4 procs blocked\nproc 0: recv";
       })

(* The JOB header a client builds with [Jobspec.to_kv] asks for the spec
   it was built from, every collectives mode included ("tree" is the
   legacy mode, "binomial" the forced binomial tree), and a field skild
   does not know is an error, not ignored. *)
let test_jobspec_roundtrip () =
  List.iter
    (fun name ->
      match Coll_alg.mode_of_string name with
      | Ok m ->
          Alcotest.(check string) ("mode " ^ name) name
            (Coll_alg.mode_to_string m)
      | Error e -> Alcotest.fail e)
    Coll_alg.mode_names;
  let spec =
    {
      Jobspec.id = "j 1";
      file = "job.skil";
      entry = "gauss";
      args = [ 64; -2 ];
      width = 4;
      height = 3;
      torus = true;
      engine = `Native;
      optimize = `Fuse;
      instantiate = false;
      collectives = Coll_alg.Force Coll_alg.Tree;
      profile = Cost_model.parix_c;
      faults = Some "drop=0.1,seed=7";
      reliable = true;
      sim_domains = 2;
      native_domains = Some 3;
      deadline_ms = Some 500;
      retries = Some 0;
      src_bytes = 123;
    }
  in
  Alcotest.(check (list string))
    "every field off its default"
    [
      "id"; "file"; "entry"; "args"; "width"; "height"; "torus"; "engine";
      "optimize"; "instantiate"; "collectives"; "profile"; "faults";
      "reliable"; "sim-domains"; "native-domains"; "deadline-ms"; "retries";
      "src-bytes";
    ]
    (List.map fst (Jobspec.to_kv spec));
  if Jobspec.of_kv (Jobspec.to_kv spec) <> Ok spec then
    Alcotest.failf "of_kv (to_kv spec) <> Ok spec: %s"
      (String.concat " "
         (List.map (fun (k, v) -> k ^ "=" ^ v) (Jobspec.to_kv spec)));
  (* fields of options that no longer exist *)
  List.iter
    (fun (k, v) ->
      match Jobspec.of_kv [ (k, v); ("src-bytes", "0") ] with
      | Ok _ -> Alcotest.failf "%s=%s accepted" k v
      | Error m ->
          Alcotest.(check string) ("unknown key " ^ k) ("unknown field " ^ k) m)
    [ ("chan-cap", "4"); ("specialize", "0"); ("fault-seed", "7") ]

let suite =
  [
    ( "service",
      [
        Alcotest.test_case "OK reply matches a direct run-par" `Quick
          test_runpar_equivalence;
        qt ~count:15 "cache-hit run byte-identical to fresh compile-and-run"
          gen_cache_program prop_cache_hit_identical;
        Alcotest.test_case "error classes + verbatim diagnostics" `Quick
          test_error_classes_and_diagnostics;
        Alcotest.test_case "bad skeleton indices classified" `Quick
          test_bad_indices_classified;
        Alcotest.test_case "native-only fields rejected on the simulator"
          `Quick test_native_fields_rejected;
        Alcotest.test_case "huge grid classified invalid" `Quick
          test_huge_grid_invalid;
        Alcotest.test_case "total message loss classified as stall" `Quick
          test_stall_classified;
        Alcotest.test_case "deadline expiry, then the service lives on" `Quick
          test_deadline_expiry_then_liveness;
        Alcotest.test_case "queue-full shedding, every job answered once"
          `Quick test_queue_full_shed_exactly_once;
        Alcotest.test_case "client disconnect mid-job" `Quick
          test_disconnect_mid_job;
        Alcotest.test_case "drain answers the accepted, rejects the late"
          `Quick test_drain_answers_then_rejects;
        Alcotest.test_case "oversized source rejected at the door" `Quick
          test_oversized_rejected;
        Alcotest.test_case "native-token contention retries to OK" `Quick
          test_native_token_contention;
        qt ~count:200 "percent-escape round-trips all byte strings" gen_bytes
          prop_escape_roundtrip;
        Alcotest.test_case "reply lines round-trip" `Quick test_reply_roundtrip;
        Alcotest.test_case "JOB header fields round-trip" `Quick
          test_jobspec_roundtrip;
        Alcotest.test_case "cache hits cheaper than cold compiles" `Quick
          test_cache_hit_cheaper_than_cold;
      ] );
  ]
