(* The benchmark's jobs: pinned Skil sources, the distinct jobs each
   workload runs, their reference outputs, and outcome classification. *)

type job = {
  program : string; (* source stem under skil/ *)
  entry : string;
  args : int list;
  width : int;
  height : int;
  torus : bool;
}

let dir = "perfbench"

let key j =
  String.concat "."
    ((j.program :: List.map string_of_int j.args)
    @ [ Printf.sprintf "%dx%d%s" j.width j.height (if j.torus then "t" else "") ])

let topology j =
  if j.torus then Topology.torus2d ~width:j.width ~height:j.height ()
  else Topology.mesh ~width:j.width ~height:j.height

let args j = List.map (fun n -> Value.VInt n) j.args
let nprocs j = j.width * j.height

let read path = In_channel.with_open_bin path In_channel.input_all
let source j = read (Filename.concat dir ("skil/" ^ j.program ^ ".skil"))

(* a corpus program: its entry is its name and it takes n *)
let corpus program n width height torus =
  { program; entry = program; args = [ n ]; width; height; torus }

(* sim-apps and native-apps: the paper's applications at full size, with
   each round's multiset of jobs.  The weights put the median latency in
   the middle of the jacobi cluster rather than in a gap between two
   programs. *)
let apps =
  [
    (corpus "gauss" 64 4 4 false, 1);
    (corpus "jacobi" 512 4 4 false, 2);
    (corpus "shpaths" 128 2 2 true, 1);
    (corpus "matmul" 64 4 4 true, 2);
  ]

(* service-mix: the hot set.  [skilbench] is skilbench's benign mix, its
   "par" and "compute" jobs with skilbench's specs; [corpus_hot] is the
   corpus programs at small n on a 2x2 grid. *)
let skilbench =
  [
    { program = "pipeline"; entry = "main"; args = []; width = 2; height = 2; torus = false };
    { program = "loop"; entry = "main"; args = [ 1000 ]; width = 1; height = 1; torus = false };
  ]

let corpus_hot =
  [
    corpus "gauss" 8 2 2 false;
    corpus "jacobi" 32 2 2 false;
    corpus "shpaths" 16 2 2 true;
    corpus "matmul" 16 2 2 true;
  ]

let hot = skilbench @ corpus_hot
let all_jobs = List.map fst apps @ hot

(* the four corpus programs every workload runs, one job.<p>.p50_ms each *)
let programs = [ "gauss"; "jacobi"; "shpaths"; "matmul" ]

(* A seeded permutation (Fisher-Yates). *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let k = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(k);
    a.(k) <- t
  done;
  Array.to_list a

(* ---------------- reference outputs ---------------- *)

type expected = { value : string; makespan : float; output : string }

(* Processor outputs exactly as [skilc run-par] and skild render them. *)
let render (r : Spmd.outcome Machine.result) =
  let b = Buffer.create 256 in
  Array.iteri
    (fun i (o : Spmd.outcome) ->
      if o.Spmd.printed <> "" then
        Buffer.add_string b (Printf.sprintf "[proc %d] %s\n" i o.Spmd.printed))
    r.Machine.values;
  Buffer.contents b

let of_result (r : Spmd.outcome Machine.result) =
  {
    value = Value.describe r.Machine.values.(0).Spmd.value;
    makespan = r.Machine.time;
    output = render r;
  }

let to_file_string e =
  Printf.sprintf "value %s\nmakespan %h\n%s" (Proto.escape e.value) e.makespan
    e.output

let of_file_string s =
  let line_end from = String.index_from s from '\n' in
  let l1 = line_end 0 in
  let l2 = line_end (l1 + 1) in
  let field prefix a b =
    let line = String.sub s a (b - a) in
    let pl = String.length prefix in
    if String.length line < pl || String.sub line 0 pl <> prefix then
      failwith ("oracle file: expected " ^ prefix);
    String.sub line pl (String.length line - pl)
  in
  let value =
    match Proto.unescape (field "value " 0 l1) with
    | Ok v -> v
    | Error e -> failwith ("oracle file: " ^ e)
  in
  {
    value;
    makespan = float_of_string (field "makespan " (l1 + 1) l2);
    output = String.sub s (l2 + 1) (String.length s - l2 - 1);
  }

let oracle_path j = Filename.concat dir ("expected/" ^ key j ^ ".out")

(* The reference: the Ast engine, the independent interpreter. *)
let reference j =
  of_result
    (Spmd.run_source ~engine:`Ast ~topology:(topology j) (source j)
       ~entry:j.entry ~args:(args j))

let load j = of_file_string (read (oracle_path j))

(* ---------------- outcomes ---------------- *)

(* Every outcome is one class: ok, an output mismatch, an Errclass name
   (shed jobs are [overload]), or a run cancelled without a deadline. *)
let classes =
  "ok" :: "mismatch"
  :: List.map Errclass.name
       Errclass.
         [
           Io; Invalid; Syntax; Type_err; Inst_err; Runtime; Stall; Deadline;
           Overload; Draining; Badreq; Busy; Disconnect; Internal;
         ]
  @ [ "cancelled" ]

let class_of_exn = function
  | Machine.Stalled _ -> Errclass.name Errclass.Stall
  | Machine.Cancelled -> "cancelled"
  | e -> (
      match Errclass.of_exn e with
      | Some (c, _) -> Errclass.name c
      | None -> Errclass.name Errclass.Internal)

type tally = {
  counts : (string, int) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
}

let tally () = { counts = Hashtbl.create 16; attempted = 0; failed = 0 }

let count t cls =
  Hashtbl.replace t.counts cls
    (1 + Option.value (Hashtbl.find_opt t.counts cls) ~default:0);
  t.attempted <- t.attempted + 1;
  if cls <> "ok" then t.failed <- t.failed + 1

(* [sim]: the run was simulated, so its makespan must match exactly. *)
let check_result ~sim exp (r : Spmd.outcome Machine.result) =
  let got = of_result r in
  got.value = exp.value && got.output = exp.output
  && ((not sim) || Int64.equal (Int64.bits_of_float got.makespan)
                     (Int64.bits_of_float exp.makespan))
