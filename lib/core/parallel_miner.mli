(** Domain-parallel mining (OCaml 5 multicore) with crash isolation.

    The DFS subtrees rooted at distinct size-1 patterns are independent:
    the inverted index is read-only after construction and support sets
    are subtree-local. Each domain repeatedly claims the next unclaimed
    root, largest first ({!largest_first_order}), from an atomic counter
    and mines its subtree with the sequential algorithms' {!Engine}
    strategy; per-root results are stored in a slot array, so the merged
    output is {b deterministic} (identical to the sequential DFS order)
    regardless of scheduling, and per-root {!Engine.stats} are summed.

    Resilience: an exception raised while mining one root is contained to
    that root — every spawned domain is always joined, the root is retried
    once sequentially, and if the retry fails too only that root's patterns
    are missing from the output, with [stats.outcome = Worker_failed]. A
    shared {!Budget.t} stops the whole pool cooperatively; roots finished
    before the stop keep their results.

    This root pool is the only parallel executor: {!mine} runs every
    strategy (all, closed, gap-constrained) on it, {!Miner.mine_resumable}
    drives {!run_pool} directly for checkpointed and queried runs, and
    supervised shard dispatch composes with it. DESIGN.md §10 records why
    the work-stealing executor that once sat beside it was removed.

    An extension beyond the paper — the 2009 evaluation was single-core —
    kept orthogonal: all correctness arguments are the sequential
    algorithms'. *)

open Rgs_sequence

val default_domains : unit -> int
(** [min (Domain.recommended_domain_count ()) 8], at least 1. *)

val auto_shards : unit -> int
(** [Domain.recommended_domain_count ()], at least 1 — the shard count
    the CLIs' [--shards auto] resolves to (uncapped, unlike
    {!default_domains}: shards are index views, not running domains,
    so there is no oversubscription cost to matching the machine). *)

type 'a root_status =
  | Done of 'a  (** the root's miner returned (possibly with partial results
                    and a stop outcome recorded in its stats) *)
  | Failed of exn  (** raised in the pool; {!retry_failed} not yet run *)
  | Skipped  (** never claimed: the pool halted on a budget stop first *)
  | Quarantined of { exn : exn; backtrace : string }
      (** poison root: raised in the pool {e and} in the sequential retry.
          {!Miner.mine_resumable} records these in the checkpoint so a
          resumed run skips them instead of re-crashing. *)

val run_pool :
  ?trace:Trace.t ->
  ?halt_on:('a -> bool) ->
  ?order:int array ->
  domains:int ->
  num_roots:int ->
  mine_root:(int -> 'a) ->
  unit ->
  'a root_status array * Budget.outcome option
(** Generic crash-isolated work pool over root indices [0 .. num_roots-1].
    Exceptions from [mine_root] are captured per root as [Failed] (never
    escaping a domain); all spawned domains are joined before returning,
    even if the main-domain worker itself raises. When [halt_on result]
    holds for a completed root, or a {!Budget.Stop} escapes [mine_root],
    the pool stops claiming further roots; the second component is the
    escaped stop reason, if any. No retry is performed here — see
    {!retry_failed}.

    [order], when given, must be a permutation of [0 .. num_roots-1]: the
    [k]-th claim mines root [order.(k)]. Slots, fault sites
    ({!Budget.Fault.Worker}) and checkpoints stay keyed by root index, so
    the mined output and per-root statuses are identical for every order —
    a permutation only changes which roots are in flight when the pool
    halts. @raise Invalid_argument when its length is not [num_roots].

    Every worker samples {!Metrics.peak_live_words} for its own domain as
    it exits, so the merged snapshot reflects parallel memory use, and
    records its lifecycle as a [Worker] span into its per-domain buffer of
    [trace] (default {!Trace.null}); [mine_root] implementations that want
    per-root spans should record through [Trace.for_domain trace]. *)

val retry_failed :
  ?trace:Trace.t ->
  ?backoff_s:float ->
  mine_root:(int -> 'a) ->
  'a root_status array ->
  'a root_status array
(** Retries every [Failed] slot once, sequentially, in the calling domain,
    sleeping [backoff_s] (default 0.01) before each retry so transient
    pressure has a moment to clear; updates the array in place and returns
    it. The {!Budget.Fault.Worker} site fires again for each retried root,
    so a persistent injected fault fails both attempts — the slot then
    becomes [Quarantined] with the exception and backtrace preserved
    ({!Metrics.quarantined_roots}, [Quarantine] trace instant). Each retry
    bumps {!Metrics.root_retries} and records a [Root_retry] instant. *)

val largest_first_order :
  Inverted_index.t -> Rgs_sequence.Event.t array -> int array
(** A claim order for [run_pool]'s [?order]: root indices sorted by their
    event's occurrence count descending, {b ties broken by the lower root
    index} — the comparator is a total order, so the permutation is
    identical on every OCaml version and backend ([Array.sort] is not
    stable, so an array-order tie-break would be). Heavy DFS subtrees
    start first, so no domain is left mining a large root alone at the
    tail of the pool run — longest-processing-time-first scheduling on
    the size-1 support proxy. *)

val mine :
  strategy:Engine.strategy ->
  ?domains:int ->
  ?max_length:int ->
  ?budget:Budget.t ->
  ?trace:Trace.t ->
  ?shards:int ->
  ?shard_dispatch:Shard_merge.dispatch ->
  Inverted_index.t ->
  min_sup:int ->
  Mined.t list * Engine.stats
(** The pool body behind every parallel run: one {!run_pool} claim per
    frequent size-1 root in {!largest_first_order}, each root mined with
    {!Engine.run} under [strategy], then {!retry_failed} and a merge in
    root order. Without failures or budget stops the output equals the
    sequential [Engine.run strategy idx ~min_sup] exactly (order
    included) — for {!Gsgrow}, {!Clogsgrow} and {!Gap_constrained}
    strategies alike; stats are summed across roots. Crashing roots lose
    only their own patterns after one sequential retry
    ([stats.outcome = Worker_failed]); budget stops return the roots
    finished so far ([stats.outcome] carries the reason). [shards] runs
    every instance growth shard-by-shard ({!Shard_merge}) — again
    identical output; [shard_dispatch] routes the per-shard grows
    through a supervisor's closure ({!Shard_merge.dispatch} — it is
    called concurrently from every pool domain, so implementations must
    be thread-safe).
    @raise Invalid_argument when [min_sup < 1] or [domains < 1]. *)

val mine_all :
  ?domains:int ->
  ?max_length:int ->
  ?budget:Budget.t ->
  ?trace:Trace.t ->
  ?shards:int ->
  ?shard_dispatch:Shard_merge.dispatch ->
  Inverted_index.t ->
  min_sup:int ->
  Mined.t list * Engine.stats
(** Parallel GSgrow: {!mine} with [Gsgrow.strategy], so the output equals
    [Gsgrow.mine idx ~min_sup]. *)

val mine_closed :
  ?domains:int ->
  ?max_length:int ->
  ?use_lb_check:bool ->
  ?budget:Budget.t ->
  ?trace:Trace.t ->
  ?shards:int ->
  ?shard_dispatch:Shard_merge.dispatch ->
  Inverted_index.t ->
  min_sup:int ->
  Mined.t list * Engine.stats
(** Parallel CloGSgrow: {!mine} with the CloGSgrow strategy; same
    guarantees. *)
