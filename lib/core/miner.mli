(** High-level mining facade: the one way to run a mine.

    Builds the inverted index ({!Inverted_index.build}), picks the {!Engine} strategy ({!Gsgrow},
    {!Clogsgrow} or {!Gap_constrained}), mines, and presents results.
    Example programs, the CLI and the daemon use it; {!Engine.run} under a
    strategy is the lower-level way in, reporting {!Engine.stats}.

    Every run is the root pool: one {!Engine.run} per size-1 root on
    {!Parallel_miner.run_pool} with a {!Query} collector per root, one
    sequential retry for crashed roots, and the answer read off the run's
    {!Query.board}. A sequential run is the pool with one domain,
    claiming roots in answer order.

    Resilience: a config may carry runtime limits (wall-clock deadline,
    DFS-node budget, GC heap-words ceiling). The miners stop cooperatively
    when a limit is hit and the report always carries the patterns mined so
    far plus an explicit {!Budget.outcome}. *)

open Rgs_sequence

type mode =
  | All  (** GSgrow: every frequent pattern *)
  | Closed  (** CloGSgrow: closed frequent patterns only *)

type config = {
  min_sup : int;
  mode : mode;
  query : Query.t;
      (** answer mode, pruned inside the DFS ({!Query}): everything
          (default), only patterns containing a target subsequence, or the
          k best by support. [Targeted] answers keep DFS order. [Top_k]
          answers are the first [k] patterns by support, ties broken by
          DFS arrival with the roots visited in descending single-event
          support, and come in that order, whatever the domains,
          checkpoint or resume ({!Query}) *)
  max_length : int option;  (** bound on pattern length *)
  max_patterns : int option;  (** output budget; truncates the DFS *)
  max_gap : int option;
      (** gap-constrained mining ({!Gap_constrained}): sound greedy lower
          bound, mines all patterns — [mode] is ignored. Combines with
          [domains], [query] and a checkpoint *)
  domains : int option;
      (** mine in parallel with this many domains on the root pool, in
          every mode including [max_gap] and every query; incompatible
          with [max_patterns] *)
  shards : int option;
      (** run every instance growth shard-by-shard over this many balanced
          database shards, served by [shard_dispatch], and merge
          ({!Shard_merge}) — output identical by construction, in every
          mode including checkpoint/resume. Requires [shard_dispatch] *)
  shard_dispatch : Shard_merge.dispatch option;
      (** where the per-shard grown parts are computed: a supervisor
          ([Rgs_server.Supervisor]) supplies a closure that ships slices
          to isolated worker processes, falling back in-process on
          failure — output identical either way. Requires [shards] *)
  deadline_s : float option;
      (** wall-clock budget in seconds; on expiry the run stops with
          [Deadline_exceeded] and partial results *)
  max_nodes : int option;
      (** DFS-node budget; on exhaustion the run stops with [Truncated] *)
  max_words : int option;
      (** GC heap-words ceiling; on excess the run stops with
          [Memory_limit] *)
}

val config :
  ?mode:mode ->
  ?query:Query.t ->
  ?max_length:int ->
  ?max_patterns:int ->
  ?max_gap:int ->
  ?domains:int ->
  ?shards:int ->
  ?shard_dispatch:Shard_merge.dispatch ->
  ?deadline_s:float ->
  ?max_nodes:int ->
  ?max_words:int ->
  min_sup:int ->
  unit ->
  config
(** Defaults: [mode = Closed], [query = All], sequential,
    unsharded, no bounds.
    @raise Invalid_argument when [min_sup < 1], a limit is negative, the
    query is invalid ({!Query.validate}), a top-k query is combined with
    [max_patterns], [domains < 1], [shards < 1], or one of [shards] and
    [shard_dispatch] is given without the other. *)

type report = {
  results : Mined.t list;
      (** in DFS order (canonical root order); support-descending for
          [Top_k] *)
  truncated : bool;  (** [true] iff [outcome <> Completed] *)
  outcome : Budget.outcome;  (** why the run ended *)
  elapsed_s : float;
  quarantined : int;
      (** poison roots excluded from [results]: quarantined this run after
          crashing twice, or skipped on resume because a prior run
          quarantined them. *)
}

val mine_indexed :
  ?budget:Budget.t ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?retry_quarantined:bool ->
  ?trace:Trace.t ->
  config ->
  Inverted_index.t ->
  report
(** Mines the database behind a prebuilt index. A live [trace] (default
    {!Trace.null}) records the run's spans and instants — see {!Trace}. The answer is the same for every
    domain count, checkpoint and resume. A crashing root is retried once (with
    backoff) and, if it crashes again, {e quarantined}: its patterns are
    missing from [results] ([Worker_failed] outcome, [report.quarantined]
    counts it) and the checkpoint records it so a resumed run skips it
    instead of re-crashing. Pass [retry_quarantined:true] to put
    previously quarantined roots back on the frontier (e.g. after fixing
    the cause) — a successful re-mine appends a superseding record.

    With [checkpoint:path], the log at [path] gains one record {e per
    completed root, as it completes} ({!Checkpoint.Writer}) — a run killed
    outright loses at most the record being appended — plus quarantine
    records and a final {!Checkpoint.Run_outcome}. With [resume:true] a
    matching checkpoint is loaded first (salvaging a torn tail) and only
    the remaining roots are mined, so the finished report equals an
    uninterrupted run's. A checkpoint written for a different database,
    [min_sup], [mode], [max_length], [query] or [max_gap] is rejected
    ({!Checkpoint.Corrupt}); the query and the gap enter the fingerprint
    only when set, so older logs keep resuming. A top-k fingerprint also
    names the tie rule, refusing logs of the earlier rule; logs of
    per-root local top-k answers still resume. Making gap-constrained
    support exact must change the gap's fingerprint entry again, or
    such a run would resume from a log of the greedy lower bound.
    Runtime limits may differ between the original and the resumed run.
    Checkpoint appends are recorded into [trace] as [Checkpoint_write]
    spans ([a0] = completed roots, [a1] = remaining); I/O failures degrade
    gracefully (see {!Checkpoint.Writer}) rather than killing the run.

    When {!Budget.install_signal_handlers} has been called, a limitless
    cooperative budget is created even without configured limits, so
    SIGINT/SIGTERM stop the run with [Interrupted] after the final
    checkpoint records are appended.

    An explicit [budget] overrides the config-derived one entirely (the
    config's [deadline_s]/[max_nodes]/[max_words] are ignored): the caller
    owns the limits and may {!Budget.cancel} from another domain — this is
    how the daemon ({!Rgs_server}) cancels a job whose client vanished.

    @raise Invalid_argument when [max_patterns] is combined with [domains]
    or a [checkpoint] (the message names which), when [resume] is set
    without [checkpoint], or on an invalid [max_gap]. *)

val mine :
  ?budget:Budget.t ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?retry_quarantined:bool ->
  ?trace:Trace.t ->
  ?config:config ->
  ?min_sup:int ->
  Seqdb.t ->
  report
(** {!mine_indexed} on {!Inverted_index.build}[ db], given a full [config] or
    just [min_sup]. @raise Invalid_argument when neither is given. *)

val landmarks : Seqdb.t -> Pattern.t -> Instance.full list
(** Full-landmark leftmost support set of a pattern, for displaying where
    instances occur. *)

val support : Seqdb.t -> Pattern.t -> int
(** One-off repetitive support query. *)

val pp_report : ?codec:Codec.t -> ?limit:int -> Format.formatter -> report -> unit
(** Prints up to [limit] results (default 20) ordered by decreasing
    support; non-[Completed] outcomes are flagged in the header line. *)

val log_src : Logs.src
(** The [rgs.miner] log source ([Info]: run start/finish). *)
