(* The host's speed, from a fixed reference kernel timed between jobs.

   The shared host runs the same job 1.3-1.6x slower for seconds to
   minutes at a time, and CPU time tracks wall time, so the slowdown is
   the processor's, not descheduling.  The kernel measures it: hash-table
   lookups and indirect calls through a table of closures, none of the
   repository's code.  Its data is built once and a pass allocates
   nothing, so it triggers no collection and does not depend on the heap
   the jobs leave behind.  Of the kernels tried (a pointer chase through
   a 2 MB ring, short-lived allocation, this one) it followed the jobs'
   times most closely (README.md).

   A job's wall-clock time [t], between kernel passes that took [k0] and
   [k1] ms, is reported as [scale t ((k0 +. k1) /. 2.)]: what it would
   have taken when the kernel takes [ref_ms]. *)

let now = Unix.gettimeofday

(* the kernel's usual time on the reference host (2-vCPU Xeon VM) *)
let ref_ms = 2.0

let lookups = 30_000
let calls = 150_000

(* built when the program starts, before any domain reads them *)
let table =
  let h = Hashtbl.create 4096 in
  for i = 0 to 4095 do
    Hashtbl.replace h (i * 7919) (i lxor 0x5bd1)
  done;
  h

let closures =
  Array.init 16 (fun i ->
      if i mod 3 = 0 then fun x -> (x * (i + 3)) land 0xffff
      else if i mod 3 = 1 then fun x -> x + i
      else fun x -> (x lsr 1) lxor i)

let work () =
  let acc = ref 0 in
  for i = 1 to lookups do
    acc := !acc + Hashtbl.find table ((i land 4095) * 7919)
  done;
  for i = 1 to calls do
    acc := closures.(i land 15) !acc
  done;
  !acc

let sink = Atomic.make 0

(* One timed kernel pass on the calling domain, in ms. *)
let sample () =
  let t0 = now () in
  let v = work () in
  let ms = (now () -. t0) *. 1000. in
  ignore (Atomic.fetch_and_add sink v : int);
  ms

(* One pass on the calling domain and one on each crew worker, at once;
   the mean of their times.  The passes allocate nothing, so they never
   stop each other for a collection. *)
let sample_crew () =
  let n = 1 + Pool.worker_count () in
  let times = Pool.run ~jobs:n (List.init n (fun _ -> sample)) in
  List.fold_left ( +. ) 0. times /. float_of_int n

let scale t k = t *. ref_ms /. k
