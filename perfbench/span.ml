(* Wall-clock spans recorded on the benchmark's side of each layer call,
   kept in memory until the run ends, and the order statistics the
   benchmark reports.  Spans are recorded only from the load thread, so
   the open-span stack needs no lock. *)

let now = Unix.gettimeofday

type t = {
  id : int;
  name : string;
  job : int; (* -1: not part of a job *)
  parent : int; (* -1: a root span *)
  t0 : float;
  mutable t1 : float;
}

let on = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let open_span ~job name t0 =
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let s = { id = !next_id; name; job; parent; t0; t1 = t0 } in
  incr next_id;
  s

(* [record ~job name f] runs [f] inside a span when tracing is on. *)
let record ?(job = -1) name f =
  if not !on then f ()
  else begin
    let s = open_span ~job name (now ()) in
    stack := s.id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack;
        recorded := s :: !recorded)
      f
  end

(* A span whose ends were observed elsewhere (a reply that arrives on
   another domain). *)
let add ?(job = -1) name ~t0 ~t1 =
  if !on then begin
    let s = open_span ~job name t0 in
    s.t1 <- t1;
    recorded := s :: !recorded
  end

let dur_ms s = (s.t1 -. s.t0) *. 1000.
let count () = List.length !recorded

(* Summed duration (ms) of the spans called [name], grouped by job id,
   in order of first appearance. *)
let per_job name =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun s ->
      if s.name = name then begin
        if not (Hashtbl.mem tbl s.job) then order := s.job :: !order;
        Hashtbl.replace tbl s.job
          (dur_ms s +. Option.value (Hashtbl.find_opt tbl s.job) ~default:0.)
      end)
    (List.rev !recorded);
  List.rev_map (fun j -> (j, Hashtbl.find tbl j)) !order

(* Per span name: calls, total ms, and self ms (duration minus the part
   its direct children cover), by descending self time. *)
let self_times () =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (dur_ms s
          +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.))
    !recorded;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        dur_ms s -. Option.value (Hashtbl.find_opt children s.id) ~default:0.
      in
      let n, tot, sf =
        Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace by_name s.name (n + 1, tot +. dur_ms s, sf +. self))
    !recorded;
  Hashtbl.fold (fun name (n, tot, sf) acc -> (name, n, tot, sf) :: acc) by_name []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

(* ---------------- order statistics ---------------- *)

let median_of_sorted a =
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  median_of_sorted a

let sum = List.fold_left ( +. ) 0.

(* A growable buffer of samples.  A float array is unboxed, so a long
   run's latencies cost 8 bytes each and barely show in its peak RSS. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let a = Array.sub t.a 0 t.n in
    Array.sort Float.compare a;
    a

  let median t = median_of_sorted (sorted t)

  (* The highest of p50, p90 and p99 with at least ten samples beyond it,
     as (value, percentile, samples).  A fixed ladder keeps the percentile
     the same from run to run while the sample count varies.  It stops at
     p99: beyond it, on the reference host, the service-mix tail counts
     10-20 ms stalls whose number varies from run to run (README.md). *)
  let tail t =
    let a = sorted t in
    let n = t.n in
    let p =
      List.fold_left
        (fun best p ->
          if float_of_int n *. (1. -. (p /. 100.)) >= 10. then p else best)
        50. [ 90.; 99. ]
    in
    if n = 0 then (0., p, 0)
    else (a.(min (n - 1) (int_of_float (float_of_int n *. p /. 100.))), p, n)
end
