(** Job specification: everything [skilc run-par] takes on the command
    line, as a parsed value.  The CLI's [Arg.conv]s and the daemon's JOB
    header fields wrap the same string parsers here, so both doors speak
    one vocabulary and reject the same garbage. *)

type t = {
  id : string;  (** client-chosen reply correlation id (default ["-"]) *)
  file : string;
      (** diagnostic source name, prefixed to [file:line:col] positions *)
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
  faults : string option;
      (** a [--faults] spec, parsed per run; its [seed=] field keys the
          plan's PRNG (default 1) *)
  reliable : bool;
  sim_domains : int;
  native_domains : int option;
  deadline_ms : int option;  (** [None]: the service default applies *)
  retries : int option;  (** transient-failure retry budget *)
  src_bytes : int;  (** framing: source bytes following the JOB header *)
}

val default : t

(** {1 Shared string parsers} — wrapped by skilc's [Arg.conv]s *)

val engine_of_string : string -> (Spmd.engine, string) result
val engine_to_string : Spmd.engine -> string
val optimize_of_string : string -> (Spmd.optimize, string) result
val optimize_to_string : Spmd.optimize -> string
val profile_of_string : string -> (Cost_model.profile, string) result
val profile_to_string : Cost_model.profile -> string

(** {1 Wire mapping} *)

val of_kv : (string * string) list -> (t, string) result
(** Fold JOB header fields over {!default}.  Unknown keys and malformed
    values are errors — the daemon replies [badreq] rather than guessing. *)

val to_kv : t -> (string * string) list
(** The header fields requesting [t] (non-default fields only; [src-bytes]
    always).  [of_kv (to_kv t) = Ok t]. *)

(** {1 Derived run inputs} *)

val topology : t -> Topology.t

val fault_plan : t -> (Fault.plan option, string) result
(** Parse the raw [faults] spec (if any). *)

val cache_key : t -> source:string -> string
(** Digest over source, entry, engine and the pipeline switches — exactly
    the inputs of {!Spmd.prepare_source}, and nothing run-specific, so one
    cached handle serves every topology/fault/deadline combination. *)
