(** Wire protocol of the [rgsminerd] mining daemon, version 3
    (FORMAT.md Appendix C).

    A connection starts with a 5-byte hello — the magic ["RGSD"] plus one
    version byte — sent by the client and echoed verbatim by the server.
    The daemon speaks exactly {!version}; a client asking for any other
    version gets its connection closed, which it observes as EOF during
    the handshake.
    After the hello, both directions carry {!Rgs_sequence.Wire} frames
    (a big-endian length and CRC-32, then the payload), the worker
    pipe's frames, read and written through a {!Rgs_sequence.Wire.conn}.

    A payload is a tagged varint codec: integer fields are zigzag
    varints, floats their IEEE-754 bits, and the decoder is total. A
    frame that fails the length guard, the CRC or decoding — an unknown
    tag, a truncated or overlong varint, a flag other than 0/1, a count
    past the bytes left, bytes left over — raises {!Protocol_error}, and
    the daemon sheds the offending connection instead of crashing.
    Values the types allow but a job may not have (a negative [min_sup],
    an empty target) decode, and {!Job.validate} rejects them with a
    typed [Rejected].

    Requests are client-to-server; a [Submit] is answered by an admission
    response ([Accepted] / [Overloaded] / [Duplicate] / [Rejected]) and
    later — asynchronously, possibly interleaved with other jobs' frames —
    by zero or more [Results] chunks and exactly one [Job_done]. *)

open Rgs_sequence

val magic : string
(** ["RGSD"]. *)

val version : int
(** The protocol version ([3]), the only one the daemon accepts. *)

exception Protocol_error of string
(** A malformed hello or frame, a CRC mismatch, an oversized frame, an
    undecodable payload, an EOF mid-frame, or a read timeout. It is
    {!Rgs_sequence.Wire.Frame_error} under the daemon's name, so a
    handler of either catches the frame errors of both. *)

type format = Seq_io.format = Tokens | Chars | Spmf  (** input formats *)

type db_source =
  | Inline of { format : format; text : string }
      (** the database travels in the request *)
  | File of { format : format; path : string }
      (** the daemon reads [path] (a path on the {e server's}
          filesystem) *)

type mode = All | Closed  (** as {!Miner.mode} *)

(** Answer mode of a job, pruned inside the DFS ({!Rgs_core.Query}). *)
type query_spec =
  | Q_all  (** every pattern *)
  | Q_target of int list
      (** only patterns containing this subsequence (event ids) *)
  | Q_top_k of int  (** the k best patterns by support *)

type job_spec = {
  job_id : string;
      (** client-chosen identity; names the job's durable checkpoint log,
          so resubmitting the same id resumes prior progress. Must match
          [[A-Za-z0-9._-]{1,64}]. *)
  db : db_source;
  min_sup : int;
  mode : mode;
  max_length : int option;
  max_gap : int option;  (** gap-constrained mining; checkpointed like any job *)
  deadline_s : float option;  (** per-job wall-clock budget, clamped server-side *)
  max_nodes : int option;  (** per-job DFS-node budget, clamped server-side *)
  max_words : int option;  (** per-job heap ceiling, clamped server-side *)
  query : query_spec;
      (** answer mode. The job's durable checkpoint is
          query-specific: resubmitting an id with a different query is a
          typed rejection, not a silent restart *)
  compress_delta : float option;
      (** δ ∈ [0,1]: post-mining δ-cover compression
          ({!Rgs_post.Compress}) — only representative patterns are
          streamed back *)
}

type request =
  | Submit of job_spec
  | Stats  (** answered with one [Stats_frame] — [GET /metrics] equivalent *)
  | Ping  (** answered with [Pong] *)

type job_summary = {
  job_id : string;
  outcome : string;  (** [Budget.to_string] of the run outcome *)
  stopped_by : string option;
      (** [None] for a natural finish; [Some "watchdog"] when the idle
          watchdog cancelled a stalled job, [Some "drain"] when a drain
          did *)
  quarantined : int;  (** poison roots excluded from the results *)
  total : int;  (** patterns streamed for this job *)
  elapsed_s : float;
  seq : int;  (** daemon-wide completion sequence number *)
}

type response =
  | Accepted of { job_id : string; position : int }
      (** admitted; [position] is the queue depth after enqueueing *)
  | Overloaded of { job_id : string; pending : int; capacity : int }
      (** load-shed: the bounded queue is full — retry later *)
  | Duplicate of { job_id : string }
      (** a job with this id is already queued or running *)
  | Rejected of { job_id : string; reason : string }
      (** invalid spec, unreadable database, draining daemon, ... *)
  | Results of { job_id : string; patterns : (int list * int) list; seq : int }
      (** one chunk of mined [(pattern events, support)] rows, in mining
          order; [seq] numbers the chunks of a job from 0 *)
  | Job_done of job_summary  (** terminal frame of a job *)
  | Stats_frame of (string * int) list
      (** current absolute metric readings ({!Metrics.dump} shape) *)
  | Pong
  | Error_frame of string  (** server-side protocol-level error report *)

val hello : string
(** The 5 hello bytes for {!version}. *)

val send_hello : Unix.file_descr -> unit
(** Write {!hello}. *)

val read_hello : Unix.file_descr -> bool
(** Read the 5-byte hello and compare it with {!hello}; [false] on
    mismatch or EOF. *)

val request_to_string : request -> string
val request_of_string : string -> request
val response_to_string : response -> string
val response_of_string : string -> response
(** The payload codecs, without the frame header. Encoding never raises;
    the encoding is canonical, so a payload that decodes re-encodes to
    the same bytes. The [of_string] direction raises {!Protocol_error}
    on an undecodable payload. *)

(** {1 Frames}

    One frame per message on a {!Rgs_sequence.Wire.conn}, built in place
    in its write buffer. *)

val send_request : Wire.conn -> request -> unit
val send_response : Wire.conn -> response -> unit
(** @raise Protocol_error above {!Rgs_sequence.Wire.max_frame_bytes}.
    @raise Unix.Unix_error on a broken connection (EPIPE et al). *)

val recv_response : Wire.conn -> response option
(** The next response; [None] on a clean EOF at a frame boundary.
    @raise Protocol_error on a torn frame, a CRC mismatch, an oversized
    length or an undecodable payload, and as ["read timeout"] when the
    descriptor's [SO_RCVTIMEO] expires, so a caller under timeout
    discipline can never hang. *)

val valid_job_id : string -> bool
(** [[A-Za-z0-9._-]{1,64}] — ids double as checkpoint file names. *)
