(** The root pool: domain-parallel mining (OCaml 5 multicore) with crash
    isolation.

    The DFS subtrees rooted at distinct size-1 patterns are independent:
    the inverted index is read-only after construction and support sets
    are subtree-local. Each domain repeatedly claims the next unclaimed
    root, largest first ({!largest_first_order}), from an atomic counter
    and runs the caller's per-root miner on it; per-root results are
    stored in a slot array keyed by root, so a merge in root order is
    {b deterministic} regardless of scheduling.

    Resilience: an exception raised while mining one root is contained to
    that root — every spawned domain is always joined, and {!retry_failed}
    retries the root once sequentially; if the retry fails too the root is
    quarantined and only its patterns are missing. A shared {!Budget.t}
    stops the whole pool cooperatively; roots finished before the stop
    keep their results.

    This root pool is the only executor. {!Miner} owns the one run body
    that drives it (per-root {!Engine.run}, retry, outcome and answer) for
    sequential, [domains], checkpointed and resumed runs and the daemon;
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
    [rgsminer --workers auto] and [rgsminerd --shard-workers auto]
    resolve to: one supervised worker process per recommended domain
    (uncapped, unlike {!default_domains}). *)

type 'a root_status =
  | Done of 'a  (** the root's miner returned (possibly with partial results
                    and a stop outcome recorded in its stats) *)
  | Failed of exn  (** raised in the pool; {!retry_failed} not yet run *)
  | Skipped  (** never claimed: the pool halted on a budget stop first *)
  | Quarantined of { exn : exn; backtrace : string }
      (** poison root: raised in the pool {e and} in the sequential retry.
          {!Miner.mine_indexed} records these in the checkpoint so a
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

    Every worker records its lifecycle as a [Worker] span into its
    per-domain buffer of [trace] (default {!Trace.null}); each spawned one
    also samples {!Metrics.peak_live_words} for its domain as it exits (not
    the caller's: a one-domain pool pays no [Gc.full_major]). [mine_root]
    implementations that want per-root spans should record through
    [Trace.for_domain trace]. *)

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

val largest_first_order : Inverted_index.t -> Event.t array -> int array
(** The one root order: a claim order for [run_pool]'s [?order], and the
    order in which a top-k run visits its roots (so it fixes the top-k tie
    rule, see {!Query}). Root indices sorted by their event's occurrence
    count descending, {b ties broken by the lower root index} — the
    comparator is a total order, so the permutation is
    identical on every OCaml version and backend ([Array.sort] is not
    stable, so an array-order tie-break would be). Heavy DFS subtrees
    start first, so no domain is left mining a large root alone at the
    tail of the pool run — longest-processing-time-first scheduling on
    the size-1 support proxy. *)
