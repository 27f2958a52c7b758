(* Tests for the native execution backend (Machine.run_native / --engine
   native): random programs against the simulator through the path
   matrix's agreement (test_paths.ml runs the corpus), and the raw Machine
   API for what the corpus cannot pin — bursts queued before any receive,
   sends to a rank that has returned, stall detection, the allocation of
   a run that sends nothing, and that a native run charges nothing. *)

(* ---------------- random programs: native vs simulator ---------------- *)

let qcheck_native =
  Test_specialize.qt ~count:30 "native matches simulator (random programs)"
    Test_specialize.gen_program (fun src ->
      let reference = Test_paths.observe Test_paths.default src in
      List.for_all
        (fun d ->
          Test_paths.agrees Counters reference
            (Test_paths.observe
               ((Test_paths.native d).set Test_paths.default)
               src))
        [ 1; 2; 4 ])

(* ---------------- bursts queued before any receive ---------------- *)

(* Every rank fires a burst of messages at its right neighbour BEFORE
   receiving anything: the whole burst waits in the receiver's mailbox.
   Runs at several domain counts so both the same-group delivery and the
   cross-group posts are exercised. *)
let test_bursts_before_receive () =
  let k = 32 in
  let topology = Topology.mesh ~width:4 ~height:1 in
  List.iter
    (fun d ->
      let r =
        Machine.run_native ~domains:d ~topology (fun ctx ->
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
    [ 1; 2; 4 ]

(* ---------------- sends to a rank that has returned ---------------- *)

(* Rank 1 returns without receiving, and rank 0 sends it eight messages:
   in one block they are left unread in rank 1's mailbox, and across two
   they are posted to rank 1's block, which runs no delivery once it has
   finished.  A send never waits on its receiver, so both ranks must
   return. *)
let test_sends_to_returned_rank () =
  let topology = Topology.mesh ~width:2 ~height:1 in
  List.iter
    (fun d ->
      let r =
        Machine.run_native ~domains:d ~topology (fun ctx ->
            if Machine.self ctx = 0 then begin
              for j = 1 to 8 do
                Machine.send ctx ~dest:1 ~tag:3 ~bytes:8 j
              done;
              8
            end
            else 0)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "d=%d both ranks return" d)
        [| 8; 0 |] r.Machine.values)
    [ 1; 2 ]

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

(* ---------------- the native engine charges nothing ---------------- *)

(* A native run is the simulator's machine without its clock: every
   charge only polls the cancel hook.  The corpus's first row, run
   natively at one rank per block and at two blocks, must leave every
   rank's compute and overhead time at zero, and its time is the wall
   clock, no later than the wall clock measured around the call. *)
let test_charges_nothing () =
  let r = List.hd Test_paths.corpus in
  List.iter
    (fun domains ->
      let t0 = Unix.gettimeofday () in
      let res =
        Spmd.run_source ~engine:`Native ?native_domains:domains
          ~topology:(Test_paths.topology r) (Test_paths.source r.file)
          ~entry:r.entry
          ~args:(List.map (fun n -> Value.VInt n) r.args)
      in
      let wall = Unix.gettimeofday () -. t0 in
      let what = Test_paths.name r ^ " --engine native" in
      Array.iteri
        (fun i (p : Stats.proc) ->
          if p.compute_time <> 0.0 || p.overhead_time <> 0.0 then
            Alcotest.failf "%s: rank %d charged compute %g s, overhead %g s"
              what i p.compute_time p.overhead_time)
        res.Machine.stats.Stats.procs;
      if res.Machine.time > wall then
        Alcotest.failf "%s: time %g s is later than the wall clock %g s" what
          res.Machine.time wall)
    [ None; Some 2 ]

(* ---------------- a run that sends nothing ---------------- *)

(* Every rank has a mailbox with a slot per source, 64 * 64 of them on an
   8x8 grid, and a source's channel is made at its first message.  A
   trivial 8x8 run at one block, which sends nothing, must allocate fewer
   than 8 words per (source, destination) pair. *)
let test_quiet_run_allocation () =
  let topology = Topology.mesh ~width:8 ~height:8 in
  let p =
    Spmd.prepare_source ~engine:`Native "int main() { return procId; }\n"
      ~entry:"main"
  in
  let words () =
    Gc.full_major ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  let r = Spmd.run_prepared ~native_domains:1 ~topology p ~args:[] in
  let allocated = words () -. before in
  Alcotest.(check (list string))
    "each rank returns its id"
    (List.init 64 string_of_int)
    (Array.to_list
       (Array.map (fun o -> Value.describe o.Spmd.value) r.Machine.values));
  let bound = 64. *. 64. *. 8. in
  if allocated >= bound then
    Alcotest.failf "an 8x8 run allocated %.0f words (bound %.0f)" allocated
      bound

let suite =
  [
    ( "native",
      [
        Alcotest.test_case "corpus native vs simulator" `Quick
          (Test_paths.test_native [ Test_paths.default.collectives ]);
        Alcotest.test_case "collective modes native vs simulator" `Quick
          (Test_paths.test_native Test_paths.other_modes);
        qcheck_native;
        Alcotest.test_case "finished blocks never read as stalled" `Quick
          test_finish_race;
        Alcotest.test_case "bursts sent before any receive" `Quick
          test_bursts_before_receive;
        Alcotest.test_case "sends to a rank that has returned" `Quick
          test_sends_to_returned_rank;
        Alcotest.test_case "stall detected" `Quick test_stall_detected;
        Alcotest.test_case "a run that sends nothing allocates little" `Quick
          test_quiet_run_allocation;
        Alcotest.test_case "the native engine charges nothing" `Quick
          test_charges_nothing;
      ] );
  ]
