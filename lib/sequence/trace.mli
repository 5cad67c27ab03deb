(** Structured tracing of mining runs: typed span/instant events in a
    preallocated ring buffer, exportable as Chrome [trace_event] JSON.

    A {!t} is a fixed-capacity ring of events stamped with monotonic
    nanosecond timestamps. Recording an event writes a handful of ints into
    preallocated arrays — no allocation, no I/O, no locks. A disabled trace
    ({!null}, or any kind above the configured {!level}) reduces every
    recording call to one load and one predictable branch, so the mining
    hot paths can call into this module unconditionally.

    Levels gate event volume: {!Roots} records only per-root DFS spans and
    coarse run milestones (worker lifecycle, budget stops, checkpoint
    writes); {!Nodes} additionally records one instant per DFS node,
    per-depth extension counts and closure/LBCheck outcomes. See
    [OBSERVABILITY.md] for every kind, its arguments and paper anchor.

    Domain-parallel runs record into per-domain child buffers
    ({!for_domain}) so workers never contend on a shared cursor; the
    children stay attached to their parent and every query/exporter
    ({!events}, {!counts}, {!pp_chrome}) reads the merged union, which is
    safe once the domains have been joined. *)

type level =
  | Off  (** record nothing; every call is a no-op *)
  | Roots  (** per-root spans + run milestones *)
  | Nodes  (** [Roots] plus per-DFS-node instants *)

(** Event kinds. The [Roots]-level kinds:

    - [Root]: span over one DFS root subtree; [a0] = root event id,
      [a1] = patterns emitted under that root.
    - [Worker]: span over one pool worker's lifetime; [a0] = worker slot,
      [a1] = roots claimed.
    - [Checkpoint_write]: span over one checkpoint save; [a0] = completed
      roots, [a1] = remaining roots.
    - [Budget_stop]: instant when a budget stops the search; [a0] =
      [Budget.severity]-style outcome code.
    - [Root_retry]: instant when a crashed root is retried sequentially;
      [a0] = root slot index.
    - [Quarantine]: instant when a root's retry also failed and the root
      was quarantined; [a0] = root slot index.
    - [Checkpoint_retry]: instant when a checkpoint write failed and was
      retried after a backoff; [a0] = attempt number (from 1), [a1] = 1
      when this failure exhausted the retries (the write was abandoned).
    - [Store_map]: instant per [.rgsdb] store opened (mapped); [a0] =
      mapped payload words, [a1] = open latency in microseconds.
    - [Store_crc]: instant per section CRC verification; [a0] = section
      tag (first byte of the FourCC), [a1] = 1 when the check passed,
      0 when it failed.
    - [Proc_worker]: span over one shard worker {e process} incarnation
      ([Supervisor]), from spawn to shutdown/failure; [a0] = shard
      index, [a1] = growth requests that incarnation served.

    The [Nodes]-level kinds:

    - [Node]: instant per DFS node; [a0] = depth (pattern length),
      [a1] = repetitive support.
    - [Extension]: instant per expanded node; [a0] = depth, [a1] = number
      of frequent extensions (those recursed into).
    - [Closure_check]: instant per closure check; [a0] = verdict (0
      closed, 1 non-closed, 2 LB-prunable), [a1] = depth.
    - [Lb_prune]: instant per subtree pruned by LBCheck (Theorem 5);
      [a0] = depth, [a1] = support.
    - [Query_cut]: instant per extension subtree cut by in-DFS query
      pruning; [a0] = depth, [a1] = reason (0 targeted unreachable,
      1 top-k floor).
    - [Shard_merge]: instant per sharded growth pass ([Shard_merge.grow]:
      per-shard INSgrow on slices, then [Support_set.combine]); [a0] =
      number of shards, [a1] = time spent combining in microseconds. *)
type kind =
  | Root
  | Worker
  | Checkpoint_write
  | Budget_stop
  | Root_retry
  | Quarantine
  | Checkpoint_retry
  | Node
  | Extension
  | Closure_check
  | Lb_prune
  | Query_cut
  | Store_map
  | Store_crc
  | Shard_merge
  | Proc_worker

type t

val null : t
(** The disabled trace (level {!Off}): never records, never allocates. *)

val create : ?capacity:int -> level:level -> unit -> t
(** A fresh trace. [capacity] (default [65536], rounded up to a power of
    two) bounds the events kept per buffer; once full, the ring keeps the
    newest events and {!dropped} counts the overwritten ones. [create
    ~level:Off ()] returns {!null}. *)

val level : t -> level

val roots_on : t -> bool
(** Whether [Roots]-level kinds are recorded. *)

val nodes_on : t -> bool
(** Whether [Nodes]-level kinds are recorded. Check this before computing
    expensive span arguments; the recording calls themselves are already
    no-ops when disabled. *)

val for_domain : t -> t
(** The calling domain's child buffer, created on first use (lock-free
    reads; creation retries a CAS). Pool workers record through this so
    domains never share a ring cursor. Returns [t] itself when tracing is
    off. Call it on the buffer handed to the run, not on another child. *)

val now : t -> int
(** Monotonic timestamp in nanoseconds ([0] when tracing is off) — capture
    before work that a {!span} will cover. Timestamps never decrease
    within a buffer. *)

val instant : t -> kind -> a0:int -> a1:int -> unit
(** Record an instant event (no duration); no-op when [kind]'s level is
    disabled. *)

val span : t -> kind -> a0:int -> a1:int -> start:int -> unit
(** Record a complete span from [start] (a {!now} reading) to the current
    time; no-op when [kind]'s level is disabled. *)

(** {1 Reading a trace}

    Readers merge the parent buffer with every per-domain child. They are
    meant for after the run (workers joined); they do not lock. *)

type event = {
  kind : kind;
  tid : int;  (** buffer id: 0 = parent, children numbered from 1 *)
  ts_ns : int;  (** nanoseconds since the trace was created *)
  dur_ns : int;  (** span duration; [0] for instants *)
  a0 : int;
  a1 : int;
}

val events : t -> event list
(** All retained events, oldest first (by [ts_ns]). *)

val counts : t -> (kind * int) list
(** Retained events per kind, only kinds that occurred. Counts equal the
    number of recording calls only while {!dropped} is [0]. *)

val dropped : t -> int
(** Events overwritten by ring wrap-around, across all buffers. Each
    overwrite also bumps {!Metrics.trace_dropped_events}, so a lossy trace
    shows up in [--stats] output too. *)

val kind_name : kind -> string
(** Stable lowercase name used by the exporters (e.g. ["closure_check"]). *)

(** {1 Export} *)

val pp_chrome : Format.formatter -> t -> unit
(** Chrome [trace_event] JSON (the ["traceEvents"] object format):
    complete [ph:"X"] events for spans, [ph:"i"] for instants, plus
    process/thread-name metadata. Load in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}. *)

val write_chrome : string -> t -> unit
(** Write {!pp_chrome} output to a file. *)
