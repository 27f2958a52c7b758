(* Tests for the native execution backend (Machine.run_native / --engine
   native): the simulator is the oracle for values and printed output, the
   raw Machine API is stressed directly for the parts the corpus cannot
   pin — recv_any exactly-once consumption, capacity-1 rings at full
   backpressure, and stall detection. *)

(* ---------------- corpus: native vs simulator ---------------- *)

(* Printed output, per-rank return values, the deterministic message
   counters and the collective-algorithm counts must match the simulator
   exactly; times, traces and the wait/compute stats are wall-clock under
   native and are NOT compared. *)
let check_values name rs rn =
  let nprocs = Array.length rs.Machine.values in
  Alcotest.(check int)
    (name ^ " nprocs") nprocs
    (Array.length rn.Machine.values);
  for i = 0 to nprocs - 1 do
    let os = rs.Machine.values.(i) and on = rn.Machine.values.(i) in
    Alcotest.(check string)
      (Printf.sprintf "%s printed[%d]" name i)
      os.Spmd.printed on.Spmd.printed;
    Alcotest.(check string)
      (Printf.sprintf "%s value[%d]" name i)
      (Value.describe os.Spmd.value)
      (Value.describe on.Spmd.value)
  done;
  Array.iteri
    (fun i ps ->
      let pn = Stats.proc rn.Machine.stats i in
      let g fld a b =
        Alcotest.(check int) (Printf.sprintf "%s %s[%d]" name fld i) a b
      in
      g "msgs" ps.Stats.msgs_sent pn.Stats.msgs_sent;
      g "bytes" ps.Stats.bytes_sent pn.Stats.bytes_sent;
      g "hop_bytes" ps.Stats.hop_bytes pn.Stats.hop_bytes;
      g "skeleton_calls" ps.Stats.skeleton_calls pn.Stats.skeleton_calls)
    rs.Machine.stats.Stats.procs;
  Alcotest.(check (list (pair string int)))
    (name ^ " collective algorithms")
    (Stats.coll_alg_totals rs.Machine.stats)
    (Stats.coll_alg_totals rn.Machine.stats)

let domain_counts = [ 1; 2; 4 ]

let test_corpus_native () =
  List.iter
    (fun (file, entry, args, topo) ->
      let src = Test_engines.source file in
      let topology = Test_engines.topology topo in
      let rs = Spmd.run_source ~engine:`Compiled ~topology src ~entry ~args in
      List.iter
        (fun d ->
          let rn =
            Spmd.run_source ~engine:`Native ~native_domains:d ~topology src
              ~entry ~args
          in
          check_values (Printf.sprintf "%s d=%d" file d) rs rn)
        domain_counts)
    Test_engines.corpus

(* The selecting collective modes run each algorithm's own message
   pattern, chosen from the run's [Coll_alg.net]; native must choose and
   send exactly what the simulator does under the same mode. *)
let test_collective_modes_native () =
  List.iter
    (fun (file, entry, args, topo) ->
      if List.mem file [ "gauss.skil"; "matmul.skil"; "jacobi.skil" ] then begin
        let src = Test_engines.source file in
        let topology = Test_engines.topology topo in
        List.iter
          (fun mode ->
            let collectives = Result.get_ok (Coll_alg.mode_of_string mode) in
            let rs =
              Spmd.run_source ~engine:`Compiled ~collectives ~topology src
                ~entry ~args
            in
            if Stats.coll_alg_totals rs.Machine.stats = [] then
              Alcotest.failf "%s %s: no selected collective was run" file mode;
            List.iter
              (fun d ->
                let rn =
                  Spmd.run_source ~engine:`Native ~collectives
                    ~native_domains:d ~topology src ~entry ~args
                in
                check_values (Printf.sprintf "%s %s d=%d" file mode d) rs rn)
              domain_counts)
          [ "auto"; "pipeline" ]
      end)
    Test_engines.corpus

(* ---------------- random programs: native vs simulator ---------------- *)

let qcheck_native =
  Test_specialize.qt ~count:30 "native matches simulator (random programs)"
    Test_specialize.gen_program (fun src ->
      let topology = Topology.mesh ~width:2 ~height:2 in
      let rs =
        Spmd.run_source ~engine:`Compiled ~topology src ~entry:"main"
          ~args:[]
      in
      List.for_all
        (fun d ->
          let rn =
            Spmd.run_source ~engine:`Native ~native_domains:d ~topology src
              ~entry:"main" ~args:[]
          in
          Array.for_all2
            (fun (os : Spmd.outcome) (on : Spmd.outcome) ->
              let ok =
                os.Spmd.printed = on.Spmd.printed
                && Value.describe os.Spmd.value = Value.describe on.Spmd.value
              in
              if not ok then
                QCheck2.Test.fail_reportf
                  "native (domains=%d) diverged from simulator:@.sim \
                   printed %S value %s@.native printed %S value %s"
                  d os.Spmd.printed
                  (Value.describe os.Spmd.value)
                  on.Spmd.printed
                  (Value.describe on.Spmd.value);
              ok)
            rs.Machine.values rn.Machine.values)
        domain_counts)

(* ---------------- recv_any farm: exactly-once consumption -------------- *)

(* A raw master/worker farm over the native machine: rank 0 hands one task
   at a time to each idle worker and collects results with recv_any.  Every
   sent task must come back exactly once, and each result must name the
   worker that actually sent it. *)
let test_farm_exactly_once () =
  let ntasks = 200 in
  let topology = Topology.mesh ~width:4 ~height:1 in
  let r =
    Machine.run_native ~topology (fun ctx ->
        let me = Machine.self ctx in
        let p = Machine.nprocs ctx in
        let task_tag = 1 and result_tag = 2 in
        if me = 0 then begin
          let next = ref 0 in
          let outstanding = ref 0 in
          let got = ref [] in
          let feed w =
            if !next < ntasks then begin
              Machine.send ctx ~dest:w ~tag:task_tag ~bytes:8 (Some !next);
              incr next;
              incr outstanding
            end
            else Machine.send ctx ~dest:w ~tag:task_tag ~bytes:1 None
          in
          for w = 1 to p - 1 do
            feed w
          done;
          while !outstanding > 0 do
            let src, ((task, worker) : int * int) =
              Machine.recv_any ctx ~tag:result_tag
            in
            got := (task, worker, src) :: !got;
            decr outstanding;
            feed src
          done;
          !got
        end
        else begin
          let rec serve () =
            match (Machine.recv ctx ~src:0 ~tag:task_tag : int option) with
            | Some task ->
                Machine.send ctx ~dest:0 ~tag:result_tag ~bytes:16 (task, me);
                serve ()
            | None -> ()
          in
          serve ();
          []
        end)
  in
  let got = r.Machine.values.(0) in
  Alcotest.(check int) "every task answered" ntasks (List.length got);
  List.iter
    (fun (_, worker, src) ->
      Alcotest.(check int) "result names its sender" src worker)
    got;
  let tasks = List.sort compare (List.map (fun (t, _, _) -> t) got) in
  Alcotest.(check (list int))
    "each task consumed exactly once"
    (List.init ntasks Fun.id)
    tasks

(* ---------------- capacity-1 rings: no deadlock under backpressure ----- *)

(* Every rank fires a burst of messages at its right neighbour BEFORE
   receiving anything, through rings that hold a single message: progress
   then depends entirely on the driver draining full rings into mailboxes
   and re-waking parked senders.  Runs at several domain counts so both the
   same-group and the cross-group parking paths are exercised. *)
let test_capacity_one_backpressure () =
  let k = 32 in
  let topology = Topology.mesh ~width:4 ~height:1 in
  List.iter
    (fun d ->
      let r =
        Machine.run_native ~chan_cap:1 ~domains:d ~topology (fun ctx ->
            let me = Machine.self ctx in
            let p = Machine.nprocs ctx in
            let right = (me + 1) mod p and left = (me + p - 1) mod p in
            for j = 0 to k - 1 do
              Machine.send ctx ~dest:right ~tag:7 ~bytes:8 ((me * 1000) + j)
            done;
            let sum = ref 0 in
            for _ = 1 to k do
              sum := !sum + (Machine.recv ctx ~src:left ~tag:7 : int)
            done;
            !sum)
      in
      Array.iteri
        (fun me sum ->
          let left = (me + 3) mod 4 in
          Alcotest.(check int)
            (Printf.sprintf "d=%d rank %d sum" d me)
            ((k * left * 1000) + (k * (k - 1) / 2))
            sum)
        r.Machine.values)
    domain_counts

(* ---------------- stall detection ---------------- *)

(* A receive no send can ever satisfy must raise Machine.Stalled (with the
   parked rank in the report), not hang the domains. *)
let test_stall_detected () =
  let topology = Topology.mesh ~width:2 ~height:1 in
  match
    Machine.run_native ~topology (fun ctx ->
        if Machine.self ctx = 0 then
          ignore (Machine.recv ctx ~src:1 ~tag:99 : int))
  with
  | _ -> Alcotest.fail "expected Machine.Stalled"
  | exception Machine.Stalled blocked ->
      Alcotest.(check bool)
        "rank 0 reported" true
        (List.exists (fun (p, _) -> p = 0) blocked)

(* ---------------- finished blocks vs the stall check ---------------- *)

(* Regression: a block that finished was marked done before the finished
   count included it, so the stall check on another domain could see every
   block idle or done while the run was still short of done, and raise
   [Stalled []] with no rank blocked.  The shrunk random program below hit
   it in about half of all batches of the random-program property. *)
let finish_race_src =
  {|
int init(Index ix) { return ix[0]; }
int f(int c, int elem, Index ix) { return elem + c; }
int conv(int elem, Index ix) { return elem; }
int merge(int a, int b) { return a + b; }
void main() {
  array<int> a;
  array<int> b;
  a = array_create(1, {2}, {0}, {-1}, init, DISTR_DEFAULT);
  b = array_create(1, {2}, {0}, {-1}, init, DISTR_DEFAULT);
  array_map(f(1), a, b);
  print_int(array_fold(conv, merge, b));
  array_destroy(a);
  array_destroy(b);
}
|}

let test_finish_race () =
  let topology = Topology.mesh ~width:2 ~height:2 in
  let p = Spmd.prepare_source ~engine:`Native finish_race_src ~entry:"main" in
  List.iter
    (fun d ->
      for i = 1 to 300 do
        let r = Spmd.run_prepared ~native_domains:d ~topology p ~args:[] in
        Array.iter
          (fun (o : Spmd.outcome) ->
            if o.Spmd.printed <> "3" then
              Alcotest.failf "domains=%d run %d printed %S" d i
                o.Spmd.printed)
          r.Machine.values
      done)
    [ 2; 4 ]

let suite =
  [
    ( "native",
      [
        Alcotest.test_case "corpus native vs simulator" `Quick
          test_corpus_native;
        Alcotest.test_case "collective modes native vs simulator" `Quick
          test_collective_modes_native;
        qcheck_native;
        Alcotest.test_case "finished blocks never read as stalled" `Quick
          test_finish_race;
        Alcotest.test_case "farm recv_any exactly-once" `Quick
          test_farm_exactly_once;
        Alcotest.test_case "capacity-1 backpressure" `Quick
          test_capacity_one_backpressure;
        Alcotest.test_case "stall detected" `Quick test_stall_detected;
      ] );
  ]
