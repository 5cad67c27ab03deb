(** Sharded instance growth: per-shard INSgrow over database slices,
    merged back with {!Support_set.combine}.

    A shard is a contiguous 1-based sequence range produced by
    {!Seqdb.shard} — an index {e view}, no events copied. Because
    INSgrow (Algorithm 2) extends every per-sequence instance group
    independently (the grown group of [S_i] depends only on [S_i]'s own
    instances and index column — Section III's per-sequence landmark
    walk), growing a {!Support_set.slice} yields exactly the slice of
    the full grown set. The per-shard results therefore partition the
    unsharded result's groups, and [combine] — associative and
    commutative over disjoint sequence ids, preserving each group's
    right-shift order — reassembles them into a set {e content-equal}
    to the unsharded grow. That identity is this module's proof
    obligation: [strategy ~verify:true] checks it differentially on
    every grow, and the [@shards] suite pins it across databases, heap
    and store-backed indexes, and shard counts.

    Wrapping only the strategy's [grow] leaves the DFS untouched, so
    sharding composes with every engine feature (closure checking, gap
    constraints, queries, budgets) and with the root pool
    ({!Parallel_miner}), whose domains call the wrapped [grow]
    concurrently.

    A layout always comes with the {!dispatch} that serves its ranges.
    There is no inline per-shard path: computing every part in the
    growing domain and merging gives the unsharded answer, slower. *)

open Rgs_sequence

type t
(** A shard layout over one database: the balanced ranges, computed once
    per run. *)

type dispatch =
  ranges:(int * int) array ->
  (Inverted_index.t -> Support_set.t -> Event.t -> Support_set.t) ->
  Inverted_index.t ->
  Support_set.t ->
  Event.t ->
  Support_set.t array
(** How a layout computes its per-shard grown parts. [dispatch ~ranges
    base idx s e] must return exactly one grown part per range, where
    part [i] is {e content-equal} to [base idx (slice s ranges.(i)) e].
    The production dispatch is a supervisor's (in [lib/server/]): it
    ships the slices to worker processes and may fall back to [base]
    in-process — this closure is the seam that keeps core free of any
    process-management dependency. Called from whichever domain is
    growing, possibly several concurrently: implementations must be
    thread-safe. *)

val make : dispatch:dispatch -> Seqdb.t -> shards:int -> t
(** [make ~dispatch db ~shards] computes the balanced layout via
    {!Seqdb.shard}; every growth goes through [dispatch], single-shard
    layouts included, so a lone supervised worker still serves.
    @raise Invalid_argument when [shards < 1]. *)

val ranges : t -> (int * int) array
(** The inclusive 1-based sequence ranges, in order. *)

val num_shards : t -> int

val grow :
  t ->
  ?trace:Trace.t ->
  (Inverted_index.t -> Support_set.t -> Event.t -> Support_set.t) ->
  Inverted_index.t ->
  Support_set.t ->
  Event.t ->
  Support_set.t
(** [grow t base idx s e] computes each shard's grown part via the
    layout's {!dispatch} and combines the results.
    Times the combine into [Metrics.shard_merge_ns], records a
    [Shard_merge] trace instant, and fires the
    {!Budget.Fault.Shard_merge} site between the grows and the merge
    (the mid-merge cancellation point the chaos harness attacks).
    @raise Invalid_argument when the dispatch returns other than one
    part per range. *)

val strategy : ?verify:bool -> ?trace:Trace.t -> t -> Engine.strategy -> Engine.strategy
(** The sharded version of a strategy: same name and closure machinery,
    [grow] replaced by {!grow}. With [~verify:true] every growth also
    runs the unsharded [base] and fails loudly when the results differ —
    the differential proof obligation, meant for tests (it doubles the
    growth work). *)
