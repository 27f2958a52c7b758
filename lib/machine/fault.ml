(* Deterministic fault plans for the simulated machine.

   Every probabilistic decision is a pure function of
   (seed, src, dst, tag, seq, attempt, category-salt): the plan carries no
   generator state, so any consumer may ask about any message in any order
   and always receive the same answer.  That is what makes fault runs
   exactly replayable and lets the reliable transport "look ahead" at the
   fate of future retransmission attempts without perturbing other draws. *)

type link_faults = {
  drop : float;
  dup : float;
  corrupt : float;
  delay : float;
  delay_factor : float;
}

type stall = { stall_at : float; stall_for : float }

type plan = {
  seed : int;
  link : link_faults;
  stalls : (int * stall) list;
  crashes : (int * float) list;
  reboot : float;
  checkpoint : bool;
}

type decision = {
  d_drop : bool;
  d_dup : bool;
  d_corrupt : bool;
  d_delay_factor : float;
}

let no_link_faults =
  { drop = 0.0; dup = 0.0; corrupt = 0.0; delay = 0.0; delay_factor = 1.0 }

let clean =
  { d_drop = false; d_dup = false; d_corrupt = false; d_delay_factor = 1.0 }

let none ~seed =
  {
    seed;
    link = no_link_faults;
    stalls = [];
    crashes = [];
    reboot = 4e-3;
    checkpoint = false;
  }

(* --- splittable counter-based PRNG ------------------------------------- *)

(* splitmix64 finalizer: a strong 64-bit mixing function.  We fold the key
   components into a state with the golden-ratio increment (as splitmix64's
   own stream step does) and finalize once per component, which decorrelates
   keys differing in a single field. *)

let golden = 0x9E3779B97F4A7C15L

let mix64 (z : int64) : int64 =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let hash_key ~seed ~key =
  let st = ref (mix64 (Int64.add (Int64.of_int seed) golden)) in
  Array.iter
    (fun k ->
      st := Int64.add !st golden;
      st := mix64 (Int64.logxor !st (Int64.of_int k)))
    key;
  !st

(* top 53 bits -> uniform float in [0, 1) *)
let uniform ~seed ~key =
  let h = hash_key ~seed ~key in
  let bits = Int64.shift_right_logical h 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

(* category salts keep the four draws for one message independent *)
let salt_drop = 0x01
let salt_dup = 0x02
let salt_corrupt = 0x03
let salt_delay = 0x04

let draw plan ~salt ~src ~dst ~tag ~seq ~attempt =
  uniform ~seed:plan.seed ~key:[| salt; src; dst; tag; seq; attempt |]

let decision plan ~src ~dst ~tag ~seq ~attempt =
  let l = plan.link in
  let d_drop =
    l.drop > 0.0 && draw plan ~salt:salt_drop ~src ~dst ~tag ~seq ~attempt < l.drop
  in
  let d_dup =
    (not d_drop) && l.dup > 0.0
    && draw plan ~salt:salt_dup ~src ~dst ~tag ~seq ~attempt < l.dup
  in
  let d_corrupt =
    (not d_drop) && l.corrupt > 0.0
    && draw plan ~salt:salt_corrupt ~src ~dst ~tag ~seq ~attempt < l.corrupt
  in
  let d_delay_factor =
    if
      l.delay > 0.0
      && draw plan ~salt:salt_delay ~src ~dst ~tag ~seq ~attempt < l.delay
    then l.delay_factor
    else 1.0
  in
  { d_drop; d_dup; d_corrupt; d_delay_factor }

(* --- spec parsing ------------------------------------------------------- *)

let parse_float what s =
  match float_of_string_opt s with
  | Some f when f >= 0.0 -> Ok f
  | _ -> Error (Printf.sprintf "invalid %s %S (want a non-negative number)" what s)

let parse_prob what s =
  match parse_float what s with
  | Ok f when f <= 1.0 -> Ok f
  | Ok _ -> Error (Printf.sprintf "invalid %s %S (want a probability in [0,1])" what s)
  | Error _ as e -> e

let parse_int what s =
  match int_of_string_opt s with
  | Some n when n >= 0 -> Ok n
  | _ -> Error (Printf.sprintf "invalid %s %S (want a non-negative integer)" what s)

(* "P@T" -> (proc, time); "P@T+D" -> (proc, time, dur) via k *)
let parse_at what s =
  match String.index_opt s '@' with
  | None -> Error (Printf.sprintf "invalid %s %S (want PROC@TIME...)" what s)
  | Some i ->
      let p = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      Result.bind (parse_int (what ^ " processor") p) (fun proc ->
          Ok (proc, rest))

let ( let* ) = Result.bind

let parse spec =
  let fields =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go acc = function
    | [] ->
        (* checkpoint defaults on exactly when crashes are scheduled, unless
           the spec said otherwise *)
        let acc =
          match acc with
          | p, None -> { p with checkpoint = p.crashes <> [] }
          | p, Some ck -> { p with checkpoint = ck }
        in
        Ok { acc with stalls = List.rev acc.stalls; crashes = List.rev acc.crashes }
    | field :: rest -> (
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "invalid fault field %S (want key=value)" field)
        | Some i ->
            let key = String.sub field 0 i in
            let v = String.sub field (i + 1) (String.length field - i - 1) in
            let plan, ck = acc in
            let* acc =
              match key with
              | "drop" ->
                  let* f = parse_prob "drop" v in
                  Ok ({ plan with link = { plan.link with drop = f } }, ck)
              | "dup" ->
                  let* f = parse_prob "dup" v in
                  Ok ({ plan with link = { plan.link with dup = f } }, ck)
              | "corrupt" ->
                  let* f = parse_prob "corrupt" v in
                  Ok ({ plan with link = { plan.link with corrupt = f } }, ck)
              | "delay" -> (
                  match String.index_opt v 'x' with
                  | None ->
                      let* f = parse_prob "delay" v in
                      Ok ({ plan with link = { plan.link with delay = f } }, ck)
                  | Some j ->
                      let p = String.sub v 0 j in
                      let fac = String.sub v (j + 1) (String.length v - j - 1) in
                      let* p = parse_prob "delay probability" p in
                      let* fac = parse_float "delay factor" fac in
                      Ok
                        ( {
                            plan with
                            link =
                              { plan.link with delay = p; delay_factor = fac };
                          },
                          ck ))
              | "stall" ->
                  let* proc, rest = parse_at "stall" v in
                  let* at, dur =
                    match String.index_opt rest '+' with
                    | None ->
                        Error
                          (Printf.sprintf
                             "invalid stall %S (want PROC@TIME+DURATION)" v)
                    | Some j ->
                        let t = String.sub rest 0 j in
                        let d =
                          String.sub rest (j + 1) (String.length rest - j - 1)
                        in
                        let* t = parse_float "stall time" t in
                        let* d = parse_float "stall duration" d in
                        Ok (t, d)
                  in
                  Ok
                    ( {
                        plan with
                        stalls =
                          (proc, { stall_at = at; stall_for = dur })
                          :: plan.stalls;
                      },
                      ck )
              | "crash" ->
                  let* proc, rest = parse_at "crash" v in
                  let* t = parse_float "crash time" rest in
                  Ok ({ plan with crashes = (proc, t) :: plan.crashes }, ck)
              | "reboot" ->
                  let* f = parse_float "reboot" v in
                  Ok ({ plan with reboot = f }, ck)
              | "seed" ->
                  let* n = parse_int "seed" v in
                  Ok ({ plan with seed = n }, ck)
              | "ckpt" | "checkpoint" -> (
                  match v with
                  | "on" | "true" | "1" -> Ok (plan, Some true)
                  | "off" | "false" | "0" -> Ok (plan, Some false)
                  | _ ->
                      Error
                        (Printf.sprintf "invalid ckpt %S (want on|off)" v))
              | _ -> Error (Printf.sprintf "unknown fault field %S" key)
            in
            go acc rest)
  in
  go (none ~seed:1, None) fields

let describe p =
  let b = Buffer.create 64 in
  let add fmt = Printf.ksprintf (fun s ->
      if Buffer.length b > 0 then Buffer.add_string b ", ";
      Buffer.add_string b s) fmt
  in
  let l = p.link in
  if l.drop > 0.0 then add "drop=%g" l.drop;
  if l.dup > 0.0 then add "dup=%g" l.dup;
  if l.corrupt > 0.0 then add "corrupt=%g" l.corrupt;
  if l.delay > 0.0 then add "delay=%gx%g" l.delay l.delay_factor;
  List.iter
    (fun (proc, s) -> add "stall=%d@%g+%g" proc s.stall_at s.stall_for)
    p.stalls;
  List.iter (fun (proc, t) -> add "crash=%d@%g" proc t) p.crashes;
  if p.crashes <> [] then add "reboot=%g" p.reboot;
  add "ckpt=%s" (if p.checkpoint then "on" else "off");
  add "seed=%d" p.seed;
  Buffer.contents b
