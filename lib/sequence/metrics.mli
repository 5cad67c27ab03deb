(** Registry of named global counters and gauges for the mining hot paths.

    Counters are atomic so they stay accurate under domain-parallel mining;
    they cost one atomic operation when hit. The index/cursor hot path
    ({!Inverted_index.seek}) batches its counts locally and flushes them
    once per group ({!Inverted_index.cursor_finish}) so parallel mining
    does not contend on a shared cache line per extension; the miners batch
    their per-run totals ([dfs_nodes], [lb_prunes], ...) the same way.

    Every counter lives in a registry with a stable name and a {!kind};
    {!snapshot} captures all of them at once and {!diff} subtracts two
    snapshots, which is how a caller attributes work to one run without
    resetting global state. {!pp_prometheus} and {!pp_json} render a
    snapshot for operators ([rgsminer --stats]); OBSERVABILITY.md documents
    each metric, its unit and its paper anchor. *)

type counter = int Atomic.t

type kind =
  | Counter  (** monotonically increasing count; {!diff} subtracts *)
  | Gauge  (** sampled level (e.g. a peak); {!diff} keeps the newer value *)

val register : string -> kind -> counter
(** Add a named metric to the registry and return its cell. Thread-safe.
    Raises [Invalid_argument] on a duplicate name. *)

val hit : counter -> unit
(** Increment (atomic). *)

val add : counter -> int -> unit
(** Add [n] (atomic); no-op when [n = 0]. *)

val value : counter -> int
(** Current reading. *)

val observe_max : counter -> int -> unit
(** Raise the counter to [v] if [v] exceeds its current value (atomic
    max — used for peak gauges such as {!peak_live_words}). *)

val sample_live_words : unit -> int
(** Sample the GC's live heap words, fold the sample into
    {!peak_live_words}, and return it. Runs [Gc.full_major] first so the
    reading counts reachable words only (not floating garbage) and is
    reproducible — call between runs or at worker exit, never inside hot
    loops. *)

val reset : unit -> unit
(** Zero every registered metric. *)

val dump : unit -> (string * int) list
(** Current [(name, value)] pairs, name-sorted, zeros omitted. *)

val pp : Format.formatter -> unit -> unit

(** {1 Snapshots} *)

type snapshot = (string * kind * int) list
(** A point-in-time reading of every registered metric, name-sorted. *)

val snapshot : unit -> snapshot

val diff : before:snapshot -> after:snapshot -> snapshot
(** Per-metric change between two snapshots: counters subtract ([after] -
    [before]), gauges keep the [after] value. Metrics registered after
    [before] was taken count from zero. *)

val to_list : snapshot -> (string * int) list
val find : snapshot -> string -> int
(** Value of a named metric in a snapshot; [0] when absent. *)

val pp_prometheus : Format.formatter -> snapshot -> unit
(** Prometheus text exposition format, each metric prefixed [rgs_] with a
    [# TYPE] line. *)

val pp_json : Format.formatter -> snapshot -> unit
(** Flat JSON object: [{"name": {"kind": ..., "value": ...}, ...}]. *)

val write_stats : path:string -> snapshot -> unit
(** Write a snapshot to [path]: {!pp_json} when the path ends in [.json],
    {!pp_prometheus} otherwise. *)

(** {1 The metrics themselves} (bumped by library code): *)

val insgrow_calls : counter
(** Compressed instance-growth invocations (Support_set.grow), i.e. runs
    of Algorithm 2 (INSgrow). *)

val full_insgrow_calls : counter
(** Uncompressed (full-landmark) instance-growth passes
    ([Insgrow.run_full]), used when reconstructing landmarks. *)

val next_calls : counter
(** [next]-subroutine evaluations: direct {!Inverted_index.next} calls plus
    cursor {!Inverted_index.seek}s (Sec III-D inverted-index lookups). *)

val cursor_advances : counter
(** Spent positions an index cursor stepped over {e linearly} while
    seeking (the short-hop fast path, at most a few per seek). Before the
    galloping seek this counted every position consumed; now long hops are
    resolved by doubling probes counted in {!cursor_gallops} instead, so
    [cursor_advances + cursor_gallops] is the total per-seek work beyond
    the O(1) frontier check. *)

val cursor_gallops : counter
(** Galloping work while seeking: doubling probes and bisection halvings.
    Each unit is one position comparison, O(log hop) per long hop. *)

val dfs_nodes : counter
(** Pattern-tree nodes visited by GSgrow/CloGSgrow/gap-constrained DFS
    (batched per run). *)

val patterns_emitted : counter
(** Patterns reported to the caller (frequent for GSgrow, closed for
    CloGSgrow; batched per run). *)

val lb_prunes : counter
(** DFS subtrees pruned by LBCheck, Theorem 5 (batched per run). *)

val closure_bound_checks : counter
(** Pre-filter evaluations in Closure.check. *)

val closure_bound_rejects : counter
(** Candidate extensions the pre-filter proved hopeless (no growth run). *)

val closure_base_grows : counter
(** Extension candidates that survived the filter and grew their base. *)

val closure_full_grows : counter
(** Extensions grown to completion (equal support found). *)

val budget_stops : counter
(** Times a budget ([Budget] deadline / node / memory limit, or a
    [max_patterns] cap) stopped a search early. *)

val checkpoint_writes : counter
(** Checkpoint records physically written ([Checkpoint.Writer] header
    rewrites and record appends that reached the disk). *)

val checkpoint_io_retries : counter
(** Checkpoint writes that failed (ENOSPC, EIO, an injected
    [Checkpoint_io] fault) and were retried after a backoff. *)

val checkpoint_io_failures : counter
(** Checkpoint writes abandoned after exhausting their retries; the run
    keeps mining, but the affected roots are not durable until a later
    write succeeds. *)

val checkpoint_salvaged_roots : counter
(** Intact root records recovered by [Checkpoint.load] from a truncated or
    torn checkpoint file (only bumped when trailing bytes were dropped). *)

val pool_workers : counter
(** Pool worker bodies started by [Parallel_miner.run_pool] (one per
    domain per pool run, including the main domain's). *)

val root_retries : counter
(** Crashed DFS roots retried sequentially after a pool run. *)

val quarantined_roots : counter
(** Roots whose sequential retry also failed and were quarantined
    ([Parallel_miner.retry_failed]); a resumed run skips them. *)

val trace_dropped_events : counter
(** Trace-ring events overwritten by wrap-around ([Trace] ring full) —
    non-zero means the written trace is lossy; raise the ring capacity
    ([rgsminer --trace-ring]). *)

val parse_errors_skipped : counter
(** Malformed input lines dropped by {!Seq_io} in non-strict mode
    ([~strict:false]); each skipped line counts once. Non-zero means the
    loaded database silently misses sequences — check the input file. *)

val query_targeted_cuts : counter
(** DFS subtrees cut by targeted-query reachability (the remaining query
    suffix cannot fit in the remaining length budget, or a query event is
    infrequent); batched per run. Each cut skips a whole extension
    subtree without growing it. *)

val query_floor_prunes : counter
(** Extensions pruned because their support fell below the {e rising}
    top-k floor (above the static [min_sup] Apriori bound); batched per
    run. Zero outside top-k queries. *)

val query_topk_floor : counter
(** Final support floor a top-k query converged to (max gauge): the
    smallest support in the answer heap once it filled, [0] when the heap
    never filled. *)

val query_delta_reps : counter
(** Representatives selected by the δ-cover compression pass (max gauge;
    set once per [Compress.delta_cover] call). *)

val query_delta_covered : counter
(** Patterns absorbed into a δ-cover representative (not emitted
    themselves). *)

val peak_live_words : counter
(** Peak GC live words observed via {!sample_live_words} (max gauge;
    sampled per domain at pool-worker exit and by benches between runs). *)

val store_opens : counter
(** [.rgsdb] stores opened (mapped) this process. *)

val store_open_ns : counter
(** Total wall time spent in store opens, in nanoseconds: mapping the
    sections, validating the header and section table, rebuilding the
    alphabet. Divide by {!store_opens} for the mean open latency. *)

val store_mapped_words : counter
(** Words of [.rgsdb] section payloads currently mapped read-only (max
    gauge over opens). Mapped words live outside the OCaml heap: they are
    shared between pool domains and processes, and are {e not} counted by
    {!peak_live_words} or the [--max-words] budget. *)

val store_resident_words : counter
(** Heap words copied out of a mapped store on demand (sequences
    materialised for closure checks and printing). The resident/mapped
    ratio is the fraction of the corpus a run actually touched. *)

val store_crc_checks : counter
(** Section payload CRC verifications performed ([Store.verify], and every
    open of the header + section table). *)

val store_crc_failures : counter
(** Section CRC verifications that failed. Always paired with a raised
    [Store.Invalid_store]; non-zero means on-disk corruption. *)

val shard_merge_ns : counter
(** Total wall time spent in [Shard_merge.grow] combining per-shard
    support sets ([Support_set.combine]), in nanoseconds — the overhead
    sharding adds on top of the per-shard INSgrow passes. *)

val worker_spawns : counter
(** Shard worker processes spawned by [Supervisor] (first launches and
    restarts alike — each [fork]+[exec] counts once). *)

val worker_restarts : counter
(** Worker incarnations torn down after a detected failure (exit/signal,
    liveness timeout, or corrupt reply frame) whose shard the supervisor
    then re-spawned or quarantined. [worker_spawns - worker_restarts] is
    the number of first launches when no spawn itself failed. *)

val worker_heartbeats_missed : counter
(** Times a worker's reply socket stayed silent past the liveness
    deadline (no heartbeat or reply frame within
    [Supervisor.config.liveness_timeout_s]); each miss triggers the
    restart path. *)

val worker_bytes_sent : counter
(** Bytes the supervisor wrote to worker pipes: every frame, header
    included. Unlike perfbench's [supervisor.mb_shipped], which sums the
    encoded size of every slice whether shipped or not, this counts
    only what crossed the socket — a slot hit ships no slice. *)

val worker_bytes_received : counter
(** Bytes the supervisor read from worker pipes: handshakes, heartbeats
    and replies, headers included. *)

val worker_slot_hits : counter
(** [Grow] requests that named a parent slice the worker already held
    in a slot, so the slice itself did not cross the pipe. *)

val shard_quarantines : counter
(** Shards whose worker exhausted its per-shard restart budget; the
    supervisor stops re-spawning them and computes those shards
    in-process, so output is unchanged. *)

val supervisor_degraded : counter
(** Gauge, [1] once a supervisor has fallen back to fully in-process,
    unsharded growth — worker spawning unavailable (no worker executable,
    store packing failed) or the global flap budget was exhausted. The
    run completes with byte-identical output either way. *)
