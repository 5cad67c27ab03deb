(** Blocking client for the [rgsminerd] protocol — used by the daemon's
    tests and usable as a library entry point.

    Every socket operation runs under a receive/send timeout
    ([SO_RCVTIMEO]/[SO_SNDTIMEO], default 30 s), translated into
    {!Protocol.Protocol_error} on expiry, so a caller can never hang on a
    wedged daemon — a property the CI watchdog relies on. *)

type t

val connect : ?timeout_s:float -> string -> t
(** [connect path] opens the daemon's Unix-domain socket at [path] and
    performs the hello exchange at {!Protocol.version}.
    @raise Unix.Unix_error when nothing listens at [path]
    @raise Protocol.Protocol_error when the daemon refuses the hello. *)

val submit : t -> Protocol.job_spec -> Protocol.response
(** Send a [Submit] and return the admission response (one of
    [Accepted]/[Overloaded]/[Duplicate]/[Rejected]). Result frames follow
    later — interleaved with other traffic — via {!next_response} or
    {!collect_job}. *)

val stats : t -> (string * int) list
(** One [Stats] round trip. Any streamed job frames that arrive before
    the [Stats_frame] are queued for later {!next_response} calls. *)

val ping : t -> bool
(** One [Ping]/[Pong] round trip; [false] on anything else. *)

val next_response : t -> Protocol.response option
(** Next frame from the daemon ([None] on clean EOF), consuming queued
    frames first. *)

val collect_job :
  t -> job_id:string -> (int list * int) list * Protocol.job_summary
(** Read frames until this job's [Job_done], accumulating its [Results]
    chunks in order; frames of other jobs are queued, not lost.
    @raise Protocol.Protocol_error on EOF before the job finished. *)

val close : t -> unit
(** Close the connection (abruptly, from the daemon's point of view —
    exactly what a vanished client looks like). Idempotent. *)
