(** Line-framed wire protocol of the skild daemon.

    Requests: [PING], [STATS], [QUIT], or [JOB key=value ...] followed by
    exactly [src-bytes] raw bytes of Skil source plus one ['\n'].  Replies:
    [PONG], [STATS ...], [OK ...] or [ERR ...] — always exactly one line
    per accepted job.  Values are percent-escaped so header and reply
    lines never contain raw spaces or newlines from payload data. *)

val escape : string -> string
(** Percent-escape: printable ASCII except ['%'] passes through; space,
    control bytes, ['%'] and non-ASCII become [%XX]. *)

val unescape : string -> (string, string) result

type request =
  | Ping
  | Stats_req
  | Quit
  | Job of (string * string) list
      (** header fields; the source body is framed separately by
          [src-bytes] *)

val parse_request : string -> (request, string) result
val render_job_header : (string * string) list -> string

type reply =
  | Ok_reply of {
      id : string;
      cache_hit : bool;
      engine : string;
      ms : float;  (** service time: compile (on a miss) + run, in ms *)
      value : string;  (** [Value.describe] of processor 0's return value *)
      output : string;
          (** the job's printed output rendered exactly as
              [skilc run-par] prints it (["[proc N] ..."] lines) *)
    }
  | Err_reply of { id : string; cls : Errclass.t; msg : string }

val render_reply : reply -> string
(** One line, no trailing newline. *)

val parse_reply : string -> (reply, string) result
(** Used by the load generator and the tests to assert every reply is
    well-formed. *)
