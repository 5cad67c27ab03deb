(** One shard worker process: the serving side of supervised sharded
    mining, and the message codecs shared with {!Supervisor}.

    A worker is a {e per-shard growth server with a small parent cache}.
    It maps a shared [.rgsdb] store (pages are shared with the
    supervisor and its sibling workers — the store layer was built for
    exactly this), builds its own inverted index, and then answers
    [Grow] requests: take the parent slice — shipped inline, or held in
    one of {!slots} slots from an earlier request — run one INSgrow pass
    (gap-constrained when the request says so), and reply with the grown
    part. The engine grows one parent by every frequent event, so a
    parent crosses the pipe once instead of once per event.

    The slots are the only state a worker keeps between requests, and
    the supervisor mirrors them exactly: it knows what it placed in each
    slot, forgets all of it when it spawns or restarts a worker, and
    always resends a failed request inline. A fresh incarnation
    therefore never receives a reference to a slot it does not hold; a
    request that names an empty slot anyway is answered [Failed], which
    takes the ordinary restart-and-resend path. Any request can still be
    replayed against a fresh incarnation, or computed in-process, with
    an identical answer.

    Frames use {!Rgs_sequence.Wire}'s length + CRC-32 header and
    connections (the daemon's too) over the worker's stdin/stdout (a
    socketpair, so the supervisor can arm [SO_RCVTIMEO] as its liveness
    deadline). Payloads are a tagged codec over [Wire]'s varints with a
    total decoder (FORMAT.md Appendix B). A heartbeat domain writes a
    [Heartbeat] frame every [heartbeat_ms] under the same writer mutex as
    replies, so a long INSgrow pass never looks like a hang.

    Fault injection ({!Rgs_core.Chaos} process plans) arrives via the
    {!Rgs_core.Chaos.worker_fault_env} environment variable; transient
    plans arm only when {!Rgs_core.Chaos.worker_restart_env} reports
    generation 0. *)

open Rgs_sequence
open Rgs_core

val wire_version : int
(** The frame codec's version ([2]; [1] was the [Marshal] codec). [Ready]
    carries it, and a worker speaking another version is refused at the
    handshake. *)

val slots : int
(** Parent slots per worker ([4]), reused least recently used first by
    the supervisor. *)

(** The parent slice of a [Grow] request. *)
type slice =
  | Inline of Support_set.t
      (** shipped with the request; the worker stores it in the slot *)
  | Held  (** the slice the worker already holds in the slot *)

(** Requests, supervisor → worker. *)
type to_worker =
  | Grow of {
      req : int;  (** request id, echoed in the reply *)
      event : Event.t;  (** the extension event *)
      gap : (int * int) option;
          (** [(min_gap, max_gap)]: use the gap-constrained growth
              ({!Rgs_core.Gap_constrained.grow}) instead of plain INSgrow *)
      slot : int;  (** in [[0, slots)] *)
      slice : slice;  (** this shard's slice of the parent *)
    }
  | Shutdown  (** drain and exit 0 (EOF on stdin means the same) *)

(** Replies and liveness, worker → supervisor. *)
type from_worker =
  | Ready of { lo : int; hi : int; digest : string }
      (** handshake: the shard range served and the mapped store's
          {!Rgs_sequence.Seqdb.content_digest} — the supervisor refuses a
          worker looking at different data. {!wire_version} travels with
          it on the wire. *)
  | Heartbeat  (** periodic liveness frame from the heartbeat domain *)
  | Grown of { req : int; part : Support_set.t }
      (** the grown part for request [req] *)
  | Failed of { req : int; reason : string }
      (** the request failed cleanly worker-side (an empty slot, a
          growth that raised); the supervisor treats it like a crash *)

(** {2 Payload codec}

    The frame payloads on their own, without the length + CRC header.
    Every field is non-negative. Decoding is total: any byte string
    either decodes to a message that {!encode_to_worker} /
    {!encode_from_worker} map back to the same bytes, or gives
    [Error reason]. *)

val encode_to_worker : to_worker -> string
(** @raise Invalid_argument on a negative field or a slot outside
    [[0, slots)]. *)

val decode_to_worker : string -> (to_worker, string) result
val encode_from_worker : from_worker -> string
val decode_from_worker : string -> (from_worker, string) result

(** {2 Connections}

    Each end of a worker pipe is a {!Rgs_sequence.Wire.conn}, whose
    reused buffers every frame on it goes through. Callers serialise
    writes: the worker under its writer mutex, the supervisor under the
    shard's lock. *)

val write_to_worker : Wire.conn -> to_worker -> unit
(** Supervisor side; adds the frame's bytes to
    {!Rgs_sequence.Metrics.worker_bytes_sent}.
    @raise Rgs_sequence.Wire.Frame_error on an oversized frame. *)

val read_to_worker : Wire.conn -> to_worker option
(** Worker side. [None] on clean EOF.
    @raise Rgs_sequence.Wire.Frame_error as {!read_from_worker}. *)

val write_from_worker : Wire.conn -> from_worker -> unit
(** Worker side. *)

val read_from_worker : Wire.conn -> from_worker option
(** Supervisor side; adds the frame's bytes to
    {!Rgs_sequence.Metrics.worker_bytes_received}. [None] on clean EOF.
    @raise Rgs_sequence.Wire.Frame_error on a torn, CRC-corrupt or
    undecodable frame (a [Ready] of another {!wire_version} included).
    @raise Rgs_sequence.Wire.Timeout when the descriptor's [SO_RCVTIMEO]
    expires. EOF, [Frame_error] and [Timeout] are the supervisor's
    three failure signals. *)

val write_corrupt_frame : Unix.file_descr -> unit
(** A well-formed header whose CRC is deliberately wrong — what the
    [Proc_corrupt] chaos site emits, and what protocol tests use to
    exercise the CRC guard. *)

val serve :
  ?heartbeat_ms:int ->
  ?input:Unix.file_descr ->
  ?output:Unix.file_descr ->
  store:string ->
  lo:int ->
  hi:int ->
  unit ->
  unit
(** Run the worker over [input]/[output] (default stdin/stdout) until
    [Shutdown], EOF, or a fatal supervisor-side disappearance (EPIPE /
    torn or undecodable request frame), serving growth requests for the
    inclusive 1-based sequence range [[lo, hi]] of the [.rgsdb] store at
    [store]. Sends [Ready] {e before} building the index so the
    handshake never races a slow build, heartbeats every [heartbeat_ms]
    (default 50) from a dedicated domain, and ignores SIGPIPE. This is
    [bin/rgsworker.ml]'s whole body; it lives here so tests can drive a
    worker in-process over a socketpair. *)

val log_src : Logs.src
(** The [rgs.worker] log source. *)
