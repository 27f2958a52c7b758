(** Error classification shared by [skilc] exit codes and [skild] replies.

    One table maps every failure the compile/run pipeline can produce — and
    every failure the service layer adds (deadline, overload, drain,
    malformed request, disconnect) — to a stable name and a distinct small
    code.  [skilc run-par] exits with the code; [skild] replies
    [ERR ... class=<name> code=<code> ...] with the same classification, so
    shell scripts and service clients read failures identically. *)

type t =
  | Io
  | Invalid
  | Syntax
  | Type_err
  | Inst_err
  | Runtime
  | Stall
  | Deadline
  | Overload
  | Draining
  | Badreq
  | Busy
  | Disconnect
  | Internal

val code : t -> int
(** Distinct nonzero code, frozen: io 1, invalid 2 (the historical usage
    exit), syntax 3, type 4, instantiate 5, runtime 6, stalled 7, then the
    service-only classes 8..14. *)

val name : t -> string
val of_name : string -> t option

val of_exn : ?file:string -> exn -> (t * string) option
(** Classify a pipeline exception and render skilc's exact diagnostic for
    it ([file:line:col: kind: message] when the exception carries a
    position, that is a line above 0, and [file: kind: message] when it
    does not — the service hands positions back verbatim this way).
    [None] for exceptions whose class depends on context this module lacks
    ({!Machine.Cancelled} is [Deadline] or [Disconnect] depending on why
    the watchdog fired; anything unknown is the caller's [Internal]). *)
