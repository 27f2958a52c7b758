(* A fully-parsed job specification: everything `skilc run-par` takes on
   the command line, as a value both the CLI and the daemon build through
   the same string parsers — one vocabulary ("compiled", "fuse", "auto",
   "parix-c", ...) whichever door a job comes in. *)

type t = {
  id : string; (* client-chosen reply correlation id *)
  file : string; (* diagnostic source name for file:line:col positions *)
  entry : string;
  args : int list;
  width : int;
  height : int;
  torus : bool;
  engine : Spmd.engine;
  optimize : Spmd.optimize;
  instantiate : bool;
  collectives : Coll_alg.mode;
  profile : Cost_model.profile;
  faults : string option; (* raw spec, parsed per run by [fault_plan] *)
  reliable : bool;
  sim_domains : int;
  native_domains : int option;
  deadline_ms : int option; (* None: the service's default applies *)
  retries : int option; (* transient-failure retries; None: service default *)
  src_bytes : int; (* framing: source length following the JOB header *)
}

let default =
  {
    id = "-";
    file = "<job>";
    entry = "main";
    args = [];
    width = 2;
    height = 2;
    torus = false;
    engine = `Compiled;
    optimize = `None;
    instantiate = true;
    collectives = Coll_alg.Legacy;
    profile = Cost_model.skil;
    faults = None;
    reliable = false;
    sim_domains = 1;
    native_domains = None;
    deadline_ms = None;
    retries = None;
    src_bytes = 0;
  }

(* ------------------------------------------------------------------ *)
(* Shared string parsers (skilc's Arg.convs wrap these)                *)

let engine_of_string = function
  | "ast" -> Ok `Ast
  | "compiled" -> Ok `Compiled
  | "native" -> Ok `Native
  | s -> Error ("unknown engine " ^ s)

let engine_to_string = function
  | `Ast -> "ast"
  | `Compiled -> "compiled"
  | `Native -> "native"

let optimize_of_string = function
  | "none" -> Ok `None
  | "fuse" -> Ok `Fuse
  | s -> Error ("unknown optimization level " ^ s)

let optimize_to_string = function `None -> "none" | `Fuse -> "fuse"

let profiles =
  [
    ("skil", Cost_model.skil);
    ("parix-c", Cost_model.parix_c);
    ("parix-c-old", Cost_model.parix_c_old);
    ("dpfl", Cost_model.dpfl);
  ]

let profile_of_string s =
  match List.assoc_opt s profiles with
  | Some p -> Ok p
  | None -> Error ("unknown profile " ^ s)

(* The name [profile_of_string] reads, not the display name. *)
let profile_to_string p =
  match List.find_opt (fun (_, q) -> q = p) profiles with
  | Some (name, _) -> name
  | None -> p.Cost_model.profile_name

let bool_of_string = function
  | "1" | "true" | "on" | "yes" -> Ok true
  | "0" | "false" | "off" | "no" -> Ok false
  | s -> Error ("expected a boolean, got " ^ s)

(* ------------------------------------------------------------------ *)
(* Header fields -> spec                                               *)

let int_field k v =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s: expected an integer, got %s" k v)

let pos_field k v =
  match int_of_string_opt v with
  | Some n when n >= 1 -> Ok n
  | Some _ -> Error (Printf.sprintf "%s: must be >= 1" k)
  | None -> Error (Printf.sprintf "%s: expected an integer, got %s" k v)

let args_field v =
  if v = "" then Ok []
  else
    let parts = String.split_on_char ',' v in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
          match int_of_string_opt (String.trim p) with
          | Some n -> go (n :: acc) rest
          | None -> Error ("args: expected comma-separated integers, got " ^ v))
    in
    go [] parts

(* Apply one [key=value] header field.  Unknown keys are rejected — a
   daemon facing hostile input must not silently ignore what it does not
   understand. *)
let apply spec (k, v) =
  let ( let* ) = Result.bind in
  let lift r f = Result.map f r in
  let err e = Error (Printf.sprintf "%s: %s" k e) in
  match k with
  | "id" -> Ok { spec with id = v }
  | "file" -> Ok { spec with file = v }
  | "entry" -> Ok { spec with entry = v }
  | "args" -> lift (args_field v) (fun args -> { spec with args })
  | "width" -> lift (pos_field k v) (fun width -> { spec with width })
  | "height" -> lift (pos_field k v) (fun height -> { spec with height })
  | "torus" -> (
      match bool_of_string v with
      | Ok torus -> Ok { spec with torus }
      | Error e -> err e)
  | "engine" -> (
      match engine_of_string v with
      | Ok engine -> Ok { spec with engine }
      | Error e -> err e)
  | "optimize" -> (
      match optimize_of_string v with
      | Ok optimize -> Ok { spec with optimize }
      | Error e -> err e)
  | "instantiate" -> (
      match bool_of_string v with
      | Ok instantiate -> Ok { spec with instantiate }
      | Error e -> err e)
  | "collectives" -> (
      match Coll_alg.mode_of_string v with
      | Ok collectives -> Ok { spec with collectives }
      | Error e -> err e)
  | "profile" -> (
      match profile_of_string v with
      | Ok profile -> Ok { spec with profile }
      | Error e -> err e)
  | "faults" -> Ok { spec with faults = Some v }
  | "reliable" -> (
      match bool_of_string v with
      | Ok reliable -> Ok { spec with reliable }
      | Error e -> err e)
  | "sim-domains" ->
      lift (pos_field k v) (fun sim_domains -> { spec with sim_domains })
  | "native-domains" ->
      lift (pos_field k v) (fun d -> { spec with native_domains = Some d })
  | "deadline-ms" ->
      let* d = pos_field k v in
      Ok { spec with deadline_ms = Some d }
  | "retries" ->
      let* r = int_field k v in
      if r < 0 then err "must be >= 0" else Ok { spec with retries = Some r }
  | "src-bytes" ->
      let* n = int_field k v in
      if n < 0 then err "must be >= 0" else Ok { spec with src_bytes = n }
  | _ -> Error ("unknown field " ^ k)

let of_kv kvs =
  let rec go spec = function
    | [] -> Ok spec
    | kv :: rest -> ( match apply spec kv with
        | Ok spec -> go spec rest
        | Error _ as e -> e)
  in
  go default kvs

(* Round-trip: the header fields a client sends to request [spec].  Only
   non-default fields are emitted (src-bytes always, for framing). *)
let to_kv spec =
  let d = default in
  let add cond k v acc = if cond then (k, v) :: acc else acc in
  []
  |> add (spec.id <> d.id) "id" spec.id
  |> add (spec.file <> d.file) "file" spec.file
  |> add (spec.entry <> d.entry) "entry" spec.entry
  |> add (spec.args <> [])
       "args"
       (String.concat "," (List.map string_of_int spec.args))
  |> add (spec.width <> d.width) "width" (string_of_int spec.width)
  |> add (spec.height <> d.height) "height" (string_of_int spec.height)
  |> add spec.torus "torus" "1"
  |> add (spec.engine <> d.engine) "engine" (engine_to_string spec.engine)
  |> add (spec.optimize <> d.optimize) "optimize"
       (optimize_to_string spec.optimize)
  |> add (not spec.instantiate) "instantiate" "0"
  |> add
       (spec.collectives <> d.collectives)
       "collectives"
       (Coll_alg.mode_to_string spec.collectives)
  |> add
       (spec.profile.Cost_model.profile_name
       <> d.profile.Cost_model.profile_name)
       "profile" (profile_to_string spec.profile)
  |> add (spec.faults <> None) "faults" (Option.value spec.faults ~default:"")
  |> add spec.reliable "reliable" "1"
  |> add (spec.sim_domains <> d.sim_domains) "sim-domains"
       (string_of_int spec.sim_domains)
  |> add (spec.native_domains <> None) "native-domains"
       (match spec.native_domains with Some d -> string_of_int d | None -> "")
  |> add (spec.deadline_ms <> None) "deadline-ms"
       (match spec.deadline_ms with Some d -> string_of_int d | None -> "")
  |> add (spec.retries <> None) "retries"
       (match spec.retries with Some r -> string_of_int r | None -> "")
  |> add true "src-bytes" (string_of_int spec.src_bytes)
  |> List.rev

let topology spec =
  if spec.torus then Topology.torus2d ~width:spec.width ~height:spec.height ()
  else Topology.mesh ~width:spec.width ~height:spec.height

let fault_plan spec =
  match spec.faults with
  | None -> Ok None
  | Some raw -> (
      match Fault.parse raw with
      | Ok plan -> Ok (Some plan)
      | Error msg -> Error ("faults: " ^ msg))

(* The cache key folds in everything that changes the *prepared* handle
   (source, entry, engine, pipeline switches) and nothing that only changes
   a run (topology, faults, deadlines): one compiled program serves every
   machine shape. *)
let cache_key spec ~source =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            source;
            spec.entry;
            engine_to_string spec.engine;
            string_of_bool spec.instantiate;
            optimize_to_string spec.optimize;
          ]))
