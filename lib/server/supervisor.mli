(** Supervised multi-process shard workers: crash-isolated sharded
    mining with heartbeats, backoff restarts, and graceful in-process
    degradation.

    The supervisor owns one {!Shard_worker} process per shard of a
    {!Rgs_sequence.Seqdb.shard} layout. The mining DFS stays entirely in
    this process; only instance growth is delegated — {!dispatch}
    produces a {!Rgs_core.Shard_merge.dispatch} closure that sends each
    shard's slice of the current support set to that shard's worker over
    a CRC-framed socketpair and collects the grown parts. A slice crosses
    the pipe once per parent: the supervisor mirrors each worker's
    {!Shard_worker.slots} parent slots, names the slot instead of
    re-shipping a slice whose group records are physically the ones it
    placed there ({!Rgs_core.Support_set.same_groups}), refills slots
    least recently used first, forgets them all whenever it spawns or
    tears down a worker, and resends every failed request inline
    ({!Rgs_sequence.Metrics.worker_slot_hits}). A
    crashing, hanging, or corrupting worker therefore cannot take the
    miner down or poison its state: the supervisor's failure detection
    (below) tears the incarnation down, restarts it with exponential
    backoff, and {e replays or recomputes} the affected request — the
    mined output is byte-identical to an in-process run in every case.

    {2 Failure detection — the three signals}

    - {b death}: the socket reports EOF (or the send hits EPIPE) because
      the worker exited or was killed;
    - {b hang}: no frame (reply {e or} heartbeat) arrives within
      [liveness_timeout_s] — [SO_RCVTIMEO] expires and the read raises
      {!Rgs_sequence.Wire.Timeout}
      ({!Rgs_sequence.Metrics.worker_heartbeats_missed});
    - {b corruption}: a frame fails its CRC or is torn, or its payload
      fails the typed codec (FORMAT.md Appendix B) —
      {!Rgs_core.Support_set.decode}'s re-validation included. A
      handshake from a worker of another {!Shard_worker.wire_version}
      fails here too, so a stale [rgsworker] is refused before it serves.

    {2 The state machine}

    Each shard moves through [spawn → healthy → suspect → restart
    (backoff) → … → quarantine], with a global [degrade] escape hatch
    (DESIGN.md §11). A failed incarnation bumps the shard's attempt
    count; the next spawn waits [backoff_base_ms · 2^(attempt-1)] capped
    at [backoff_max_ms], jittered deterministically in [0.5, 1.5) from
    [(seed, shard, attempt)]. A shard that exhausts [restart_budget]
    is {e quarantined}: its parts are computed in-process from then on
    ({!Rgs_sequence.Metrics.shard_quarantines}), the others keep their
    workers. When total restarts exceed [flap_budget], or no worker
    executable / shared store can be found at all, the supervisor
    {e degrades}: every growth runs in-process
    ({!Rgs_sequence.Metrics.supervisor_degraded}) — mining always
    completes with identical output, just without process isolation. *)

open Rgs_sequence
open Rgs_core

type config = private {
  shards : int;  (** worker processes = shards of the database *)
  heartbeat_ms : int;  (** worker heartbeat period *)
  liveness_timeout_s : float;
      (** no frame for this long ⇒ the worker is declared hung *)
  restart_budget : int;  (** failed incarnations per shard before quarantine *)
  flap_budget : int;  (** total restarts across shards before degradation *)
  backoff_base_ms : int;  (** restart delay before attempt 1 *)
  backoff_max_ms : int;  (** exponential backoff cap *)
  seed : int;  (** jitter seed — sweeps replay identical schedules *)
  gap : (int * int) option;
      (** [(min_gap, max_gap)]: workers run gap-constrained growth *)
  worker_exe : string option;  (** explicit path to [rgsworker] *)
  worker_env : (string * string) list;
      (** extra environment for workers (chaos plans travel here) *)
}

val config :
  ?heartbeat_ms:int ->
  ?liveness_timeout_s:float ->
  ?restart_budget:int ->
  ?flap_budget:int ->
  ?backoff_base_ms:int ->
  ?backoff_max_ms:int ->
  ?seed:int ->
  ?gap:int * int ->
  ?worker_exe:string ->
  ?worker_env:(string * string) list ->
  shards:int ->
  unit ->
  config
(** Validated constructor. Defaults: heartbeat 50 ms, liveness timeout
    5 s, restart budget 3 per shard, flap budget
    [max 4 (shards * (restart_budget + 1))], backoff 10–500 ms, seed 0.
    [worker_exe] defaults to the [RGS_WORKER_EXE] environment variable,
    then an [rgsworker(.exe)] sibling of the running executable.
    @raise Invalid_argument on a non-positive [shards], [heartbeat_ms]
    or [liveness_timeout_s], a negative budget, or a backoff window
    violating [0 <= base <= max]. *)

type t

val create : ?trace:Trace.t -> ?store:string -> config -> Seqdb.t -> t
(** Spawn and handshake one worker per shard of [db], eagerly, so
    startup failures surface (and degrade) before mining begins. Workers
    map the [.rgsdb] at [store] when it exists; otherwise the database
    is packed into a temporary store (removed by {!shutdown}). Each
    handshake verifies the worker's range and
    {!Rgs_sequence.Seqdb.content_digest} against [db]. Worker lifetime
    spans are recorded into [trace] as [Proc_worker] events. Never
    raises for spawn-side problems — a supervisor that cannot supervise
    degrades instead ({!degraded}). Ignores SIGPIPE process-wide, as the
    daemon already does: dead workers must surface as EPIPE. *)

val dispatch : t -> Shard_merge.dispatch
(** The closure to install as {!Rgs_core.Miner.config}'s
    [shard_dispatch]. Thread-safe: concurrent pool domains fan out
    requests under per-worker mutexes taken in ascending shard order
    (deadlock-free), so distinct shards grow in parallel processes.
    Failed requests are replayed against a restarted worker; a
    quarantined shard grows its slice in-process, and a degraded or
    shut-down supervisor, or a foreign [ranges] layout, grows the whole
    set once in-process and slices the result — the returned parts are
    always content-identical to [base] applied per slice. *)

val shutdown : t -> unit
(** Stop all workers: a polite [Shutdown] frame and descriptor close,
    then SIGKILL for any worker still alive after a 0.5 s grace; reaps
    every child, records final lifetime spans, removes the temporary
    store if one was packed. Idempotent; the supervisor then serves
    every dispatch in-process. *)

type stats = {
  spawns : int;  (** worker processes forked, including restarts *)
  restarts : int;  (** incarnations torn down after a detected failure *)
  quarantined : int;  (** shards past their restart budget *)
  degraded : bool;  (** whether mining fell back fully in-process *)
}

val stats : t -> stats
val degraded : t -> bool

val num_shards : t -> int

val ranges : t -> (int * int) array
(** The shard layout workers were spawned for — pass the same [shards]
    count to the miner so its layout matches (a mismatch is safe but
    computes in-process). *)

val pp_stats : Format.formatter -> stats -> unit

val log_src : Logs.src
(** The [rgs.supervisor] log source. *)
