(* One error classification for the whole stack: `skilc run-par` exit codes
   and `skild` error-reply classes are the same table, so a shell script and
   a service client learn the same thing from a failure.  The renderings
   reuse skilc's historical diagnostic text verbatim (file:line:col
   positions included) — only the classification around them is new. *)

type t =
  | Io (* file/socket trouble: Sys_error *)
  | Invalid (* invalid option combination: Invalid_argument *)
  | Syntax (* lexer/parser diagnostics *)
  | Type_err (* Typecheck.Type_error *)
  | Inst_err (* Instantiate.Unsupported *)
  | Runtime (* Value.Skil_runtime_error *)
  | Stall (* Machine.Stalled: deadlock or starvation *)
  | Deadline (* service: wall-clock deadline exceeded, job reaped *)
  | Overload (* service: admission queue full, job shed *)
  | Draining (* service: shutting down, no new admissions *)
  | Badreq (* service: malformed or oversized request *)
  | Busy (* service: transient-contention retries exhausted *)
  | Disconnect (* service: client went away mid-job *)
  | Internal (* anything unclassified — a bug, but never a crash *)

(* Distinct small integers: process exit codes for skilc (1..7 plus the
   historical 2 for usage errors) and `code=` fields in skild replies.
   Frozen — tests and scripts match on them. *)
let code = function
  | Io -> 1
  | Invalid -> 2
  | Syntax -> 3
  | Type_err -> 4
  | Inst_err -> 5
  | Runtime -> 6
  | Stall -> 7
  | Deadline -> 8
  | Overload -> 9
  | Draining -> 10
  | Badreq -> 11
  | Busy -> 12
  | Disconnect -> 13
  | Internal -> 14

let name = function
  | Io -> "io"
  | Invalid -> "invalid"
  | Syntax -> "syntax"
  | Type_err -> "type"
  | Inst_err -> "instantiate"
  | Runtime -> "runtime"
  | Stall -> "stalled"
  | Deadline -> "deadline"
  | Overload -> "overload"
  | Draining -> "draining"
  | Badreq -> "badreq"
  | Busy -> "busy"
  | Disconnect -> "disconnect"
  | Internal -> "internal"

let of_name = function
  | "io" -> Some Io
  | "invalid" -> Some Invalid
  | "syntax" -> Some Syntax
  | "type" -> Some Type_err
  | "instantiate" -> Some Inst_err
  | "runtime" -> Some Runtime
  | "stalled" -> Some Stall
  | "deadline" -> Some Deadline
  | "overload" -> Some Overload
  | "draining" -> Some Draining
  | "badreq" -> Some Badreq
  | "busy" -> Some Busy
  | "disconnect" -> Some Disconnect
  | "internal" -> Some Internal
  | _ -> None

(* Classify an exception from the compile/run pipeline and render the exact
   diagnostic skilc prints for it.  [file] is the source name in scope (the
   job spec's [file] field in the service), prefixed to positions the
   frontend exceptions carry, so replies hand back `file:line:col:`
   verbatim.  Returns [None] for exceptions that need context this module
   does not have (e.g. {!Machine.Cancelled}, which the service maps to
   [Deadline] or [Disconnect] from the watchdog's recorded reason). *)
let of_exn ?file e =
  (* [line] 0 is no position: such a diagnostic names only the file *)
  let diag line col kind message =
    let pos = if line > 0 then [ Printf.sprintf "%d:%d" line col ] else [] in
    let where = String.concat ":" (Option.to_list file @ pos) in
    (if where = "" then "" else where ^ ": ") ^ kind ^ ": " ^ message
  in
  match e with
  | Lexer.Error { line; col; message } ->
      Some (Syntax, diag line col "lexical error" message)
  | Parser.Error { line; col; message } ->
      Some (Syntax, diag line col "syntax error" message)
  | Typecheck.Type_error { line; col; message } ->
      Some (Type_err, diag line col "type error" message)
  | Instantiate.Unsupported { line; message } ->
      Some (Inst_err, diag line 0 "not instantiable" message)
  | Value.Skil_runtime_error m -> Some (Runtime, "runtime error: " ^ m)
  | Darray.Local_access_violation { rank; index } ->
      Some
        ( Runtime,
          Format.asprintf
            "runtime error: element %a is not local to processor %d \
             (array_get_elem and array_put_elem reach local elements only)"
            Index.pp index rank )
  | Machine.Stalled blocked -> Some (Stall, Machine.stall_diagnostic blocked)
  | Invalid_argument m -> Some (Invalid, "error: " ^ m)
  | Sys_error m -> Some (Io, m)
  | _ -> None
