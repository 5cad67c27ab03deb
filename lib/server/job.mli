(** One mining job inside the daemon: spec validation, server-side limit
    clamping, database loading, and the mutable lifecycle record shared
    between the event loop, the scheduler and the pool workers.

    A job's identity is its client-chosen [job_id]; the id also names the
    job's durable checkpoint log under the daemon's state directory, which
    is what makes resubmission after a crash, a disconnect or a drain a
    {e resume} rather than a restart. All mutable fields are guarded by
    the owning {!Scheduler}'s lock. *)

open Rgs_sequence
open Rgs_core

type limits = {
  max_deadline_s : float option;  (** ceiling on any job's deadline *)
  max_nodes : int option;  (** ceiling on any job's DFS-node budget *)
  max_words : int option;  (** ceiling on any job's heap budget *)
}
(** Server-wide clamps: a job may ask for less, never for more. [None]
    leaves that axis unlimited. *)

val no_limits : limits

type cancel_reason =
  | Disconnect  (** the client connection went away *)
  | Stalled  (** the idle watchdog saw no root progress *)
  | Drain  (** a graceful drain cancelled the job *)

val cancel_reason_name : cancel_reason -> string
(** ["disconnect"] / ["watchdog"] / ["drain"] — the [stopped_by] wire
    value. *)

type t = {
  spec : Protocol.job_spec;
  client : int;  (** owning connection id *)
  mutable budget : Budget.t option;
      (** set by the worker at job start ({!start_budget}) — deadlines are
          relative to start, not admission *)
  mutable cancel_reason : cancel_reason option;
  mutable last_nodes : int;  (** watchdog: budget nodes at last scan *)
  mutable last_progress_at : float;  (** watchdog: time of last advance *)
}

val create : client:int -> Protocol.job_spec -> t

val validate : Protocol.job_spec -> (unit, string) result
(** Static spec checks: well-formed job id, [min_sup >= 1], non-negative
    limits and [max_gap] (so a hostile gap never reaches
    {!Gap_constrained.strategy}'s [Invalid_argument]), a well-formed
    query (non-empty target of non-negative event ids, [top_k >= 1]) and
    [compress_delta] within [[0, 1]]. A malformed query is a typed
    rejection the client sees as {!Protocol.Rejected}, never a dropped
    connection. *)

val query_of : Protocol.job_spec -> Query.t
(** The in-DFS answer mode for the spec's wire-level query. *)

val clamp : limits -> Protocol.job_spec -> Protocol.job_spec
(** Apply the server-wide ceilings: each requested limit is reduced to the
    ceiling, and an unrequested limit becomes the ceiling itself. *)

val budget_of : Protocol.job_spec -> Budget.t
(** Fresh per-job budget from the (clamped) spec limits. Call at job
    start: the deadline is absolute from creation time. *)

val config_of :
  ?shards:int ->
  ?shard_dispatch:Shard_merge.dispatch ->
  Protocol.job_spec ->
  Miner.config
(** The {!Miner} config for the spec, its [max_gap] included —
    {e without} budget limits (the daemon passes the explicit per-job
    budget instead). [shards] and [shard_dispatch] come together from
    the daemon's [--shard-workers] {!Supervisor}, not from the wire
    spec: its worker processes serve the per-shard growths, and job
    output and checkpoints are identical either way.
    @raise Invalid_argument on values {!validate} would reject. *)

val load_db : Protocol.job_spec -> (Seqdb.t, string) result
(** Materialise the job's database: parse the inline text, or read and
    parse the server-side file. Parsing is strict — a malformed database
    is a typed rejection, not a silently smaller input. A [File] path
    ending in [.rgsdb] is opened as a mapped binary store instead of
    parsed (its [format] field is ignored); opened stores are cached per
    path, so every job on one corpus shares a single read-only mapping. *)

val preload_store : string -> (Seqdb.t, string) result
(** Open a [.rgsdb] store eagerly, verifying every section payload CRC
    (not just the open-time framing checks), and seed the {!load_db}
    cache with it. The daemon runs this on each [--store] path at startup
    so a corrupt store fails the boot, not the first job. *)

val checkpoint_path : state_dir:string -> string -> string
(** [checkpoint_path ~state_dir job_id] — the job's durable log,
    [state_dir/job-<id>.ckpt]. Only called with {!Protocol.valid_job_id}
    ids, which cannot traverse directories. *)
