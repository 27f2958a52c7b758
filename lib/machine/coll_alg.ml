(* Collective-algorithm selection: a closed-form cost predictor per
   (kind, algorithm) built from the same latency/bandwidth coefficients the
   simulator charges, plus per-topology hop statistics.  [select] is a pure
   argmin over the candidate list, so every processor of an SPMD run makes
   the same choice from the same (topology, p, bytes) inputs.

   The predictors mirror the message patterns in Collectives exactly — same
   per-message cost alpha + hops * per_hop + bytes * per_byte, same stage
   counts — so predicted and simulated times track each other closely.  They
   only need to rank algorithms correctly: near a crossover the candidates
   are within a few percent of each other anyway, so a borderline pick is
   harmless. *)

type algorithm =
  | Tree (* binomial tree / recursive halving (the seed's pattern) *)
  | Pipeline (* segmented ring pipeline (bcast) *)
  | Vandegeijn (* binomial scatter + ring allgather (bcast) *)
  | Recdouble (* recursive doubling (allreduce); Bruck for allgather *)
  | Ring (* chunked ring pipeline (allreduce / allgather) *)
  | Dissemination (* dissemination barrier *)
  | Linear (* the seed's linear scan *)

type kind =
  | Bcast
  | Allreduce
  | Allgather
  | Barrier
  | Scan

type mode = Legacy | Auto | Force of algorithm

let alg_name = function
  | Tree -> "tree"
  | Pipeline -> "pipeline"
  | Vandegeijn -> "vandegeijn"
  | Recdouble -> "recdouble"
  | Ring -> "ring"
  | Dissemination -> "dissemination"
  | Linear -> "linear"

let kind_name = function
  | Bcast -> "bcast"
  | Allreduce -> "allreduce"
  | Allgather -> "allgather"
  | Barrier -> "barrier"
  | Scan -> "scan"

let mode_names =
  [ "auto"; "tree"; "binomial"; "pipeline"; "vandegeijn"; "recdouble";
    "ring"; "dissemination"; "linear" ]

(* "tree" is the legacy mode: the seed's exact code paths, byte-identical
   output.  "binomial" forces the same binomial message patterns through
   the selecting framework, with algorithm-labelled spans and collective
   stats.  Its simulated times differ: the selecting modes combine values
   after the pattern, every rank applying the reduction's merge p - 1
   times, and a Skil merge function charges simulated time (gauss n=64 on
   4x4: 4.5873 s under "tree", 4.6028 s under "binomial"). *)
let mode_of_string = function
  | "auto" -> Ok Auto
  | "tree" -> Ok Legacy
  | "binomial" -> Ok (Force Tree)
  | "pipeline" -> Ok (Force Pipeline)
  | "vandegeijn" -> Ok (Force Vandegeijn)
  | "recdouble" -> Ok (Force Recdouble)
  | "ring" -> Ok (Force Ring)
  | "dissemination" -> Ok (Force Dissemination)
  | "linear" -> Ok (Force Linear)
  | s ->
      Error
        (Printf.sprintf "unknown collectives mode %s (expected one of %s)" s
           (String.concat ", " mode_names))

(* The inverse of [mode_of_string]: [Force Tree] is "binomial", since
   "tree" names [Legacy]. *)
let mode_to_string = function
  | Legacy -> "tree"
  | Auto -> "auto"
  | Force Tree -> "binomial"
  | Force a -> alg_name a

(* ------------------------------------------------------------------ *)
(* Network summary: cost coefficients + topology hop statistics        *)

type net = {
  p : int;
  alpha : float; (* send_overhead + recv_overhead + msg_latency *)
  ovh2 : float; (* send_overhead + recv_overhead *)
  recv_ovh : float;
  per_hop : float;
  per_byte : float;
  hop_next : float;
      (* mean hops rank -> rank+1: a ring pattern's dependence chain wraps
         the whole ring, so it pays every edge's hop cost — the mean, not
         the worst edge, is what each step costs on average *)
  hop_pow2 : int array;
      (* hop_pow2.(k) = max hops rank -> rank + 2^k: a binomial round's
         critical path does go through the worst edge of that round *)
}

let rounds_of p =
  let r = ref 0 and v = ref 1 in
  while !v < p do
    incr r;
    v := 2 * !v
  done;
  !r

let net_of topo ~latency ~per_hop ~per_byte ~send_ovh ~recv_ovh =
  let p = Topology.nprocs topo in
  let max_dist d =
    let m = ref 0 in
    for i = 0 to p - 1 do
      m := max !m (Topology.hops topo i ((i + d) mod p))
    done;
    !m
  in
  let mean_next () =
    let s = ref 0 in
    for i = 0 to p - 1 do
      s := !s + Topology.hops topo i ((i + 1) mod p)
    done;
    float_of_int !s /. float_of_int p
  in
  {
    p;
    alpha = send_ovh +. recv_ovh +. latency;
    ovh2 = send_ovh +. recv_ovh;
    recv_ovh;
    per_hop;
    per_byte;
    hop_next = (if p > 1 then mean_next () else 0.0);
    hop_pow2 = Array.init (rounds_of p) (fun k -> max_dist (1 lsl k));
  }

(* ------------------------------------------------------------------ *)

let candidates = function
  | Bcast -> [ Tree; Pipeline; Vandegeijn ]
  | Allreduce -> [ Tree; Recdouble; Ring ]
  | Allgather -> [ Recdouble; Ring ]
  | Barrier -> [ Dissemination; Tree ]
  | Scan -> [ Tree; Linear ]

let stagef net h b =
  net.alpha +. (h *. net.per_hop) +. (float_of_int b *. net.per_byte)

let stage net h b = stagef net (float_of_int h) b

(* One binomial-tree traversal: ceil(log2 p) sequential stages, the stage at
   round k jumping a vrank distance of 2^k. *)
let sum_tree net b =
  Array.fold_left (fun acc h -> acc +. stage net h b) 0.0 net.hop_pow2

let chunk_of p b = max 1 ((b + p - 1) / p)

(* Segment count for the pipelined broadcast: balance the fill term
   (p-1) * seg * per_byte against the drain term (S-1) * ovh2, with segments
   no smaller than 32 bytes and at most 64 of them.  Shared by the predictor
   and the implementation so the model stays honest. *)
let pipeline_plan net ~bytes =
  if bytes <= 32 || net.p <= 2 then (1, max bytes 0)
  else begin
    let s_star =
      sqrt
        (float_of_int ((net.p - 1) * bytes) *. net.per_byte /. net.ovh2)
    in
    let s = int_of_float (Float.round s_star) in
    let s = min 64 (max 1 (min s (bytes / 32))) in
    let seg = (bytes + s - 1) / s in
    let s = (bytes + seg - 1) / seg in
    (s, seg)
  end

let is_pow2 p = p land (p - 1) = 0

let predict net kind ~bytes alg =
  let p = net.p in
  if p <= 1 then 0.0
  else
    let b = max bytes 0 in
    match (kind, alg) with
    | Bcast, Tree -> sum_tree net b
    | Allreduce, Tree -> 2.0 *. sum_tree net b
    | Barrier, Tree -> 2.0 *. sum_tree net 0
    | Barrier, Dissemination -> sum_tree net 0
    | Bcast, Pipeline ->
        let s, seg = pipeline_plan net ~bytes:b in
        (float_of_int (p - 1) *. stagef net net.hop_next seg)
        +. (float_of_int (s - 1) *. net.ovh2)
    | Bcast, Vandegeijn ->
        (* recursive-halving scatter (the root's first send carries half the
           payload), then a ring allgather of the p chunks *)
        let c = chunk_of p b in
        let k = Array.length net.hop_pow2 in
        let scatter = ref 0.0 in
        for i = 1 to k do
          scatter :=
            !scatter +. stage net net.hop_pow2.(k - i) (max c (b lsr i))
        done;
        !scatter +. (float_of_int (p - 1) *. stagef net net.hop_next c)
    | Allreduce, Recdouble ->
        let kfloor =
          if is_pow2 p then Array.length net.hop_pow2
          else Array.length net.hop_pow2 - 1
        in
        let core = ref 0.0 in
        for k = 0 to kfloor - 1 do
          core := !core +. stage net net.hop_pow2.(k) b
        done;
        !core
        +. (if is_pow2 p then 0.0 else 2.0 *. stagef net net.hop_next b)
    | Allreduce, Ring ->
        let c = chunk_of p b in
        2.0 *. float_of_int (p - 1) *. stagef net net.hop_next c
    | Allgather, Ring -> float_of_int (p - 1) *. stagef net net.hop_next b
    | Allgather, Recdouble ->
        (* Bruck: round k moves min(2^k, p - 2^k) items *)
        let t = ref 0.0 and k = ref 1 in
        let i = ref 0 in
        while !k < p do
          t := !t +. stage net net.hop_pow2.(!i) (min !k (p - !k) * b);
          k := 2 * !k;
          incr i
        done;
        !t
    | Scan, Tree -> sum_tree net b
    | Scan, Linear -> float_of_int (p - 1) *. stagef net net.hop_next b
    | _ -> infinity

let select net kind ~bytes =
  match candidates kind with
  | [] -> invalid_arg "Coll_alg.select: no candidates"
  | first :: rest ->
      let best = ref first and best_t = ref (predict net kind ~bytes first) in
      List.iter
        (fun a ->
          let t = predict net kind ~bytes a in
          if t < !best_t then begin
            best := a;
            best_t := t
          end)
        rest;
      !best

(* A forced algorithm applies wherever it is a candidate for the kind;
   elsewhere (forcing [pipeline] says nothing about a reduce) selection
   falls back to the model. *)
let force net kind ~bytes alg =
  if List.mem alg (candidates kind) then alg else select net kind ~bytes
