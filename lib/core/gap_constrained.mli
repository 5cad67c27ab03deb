(** Gap-constrained repetitive mining — the paper's second future-work item
    (Section V): "extend our algorithms for mining approximate repetitive
    patterns with gap constraints, which is useful for mining subsequences
    from long sequences of DNA, protein, and text data".

    An instance is {e gap-respecting} when every two successive landmark
    positions satisfy [min_gap <= l_{j+1} - l_j - 1 <= max_gap] (the
    two-sided gap requirement of Zhang et al.; [min_gap] defaults to 0);
    the gap-constrained repetitive support is the maximum number of
    pairwise non-overlapping gap-respecting instances.

    Unlike the unconstrained case, greedy leftmost instance growth is no
    longer provably optimal under a gap bound (an instance that dies at the
    earliest admissible occurrence might have survived from a later one).
    This module therefore computes a {b greedy lower bound} with a
    skip-on-failure variant of INSgrow. Consequences:

    - reported supports never exceed the true gap-constrained support
      (property-tested against the exact oracle, which also shows equality
      on the vast majority of random inputs);
    - every pattern the {!strategy} emits is genuinely frequent (sound), but
      patterns whose greedy value dips below the threshold may be missed
      (potentially incomplete). *)

open Rgs_sequence

val grow :
  ?min_gap:int ->
  Inverted_index.t ->
  max_gap:int ->
  Support_set.t ->
  Event.t ->
  Support_set.t
(** Gap-bounded instance growth: like [INSgrow] but an instance with no
    admissible occurrence of [e] in
    [[last + min_gap + 1, last + max_gap + 1]] is dropped (skip), not the
    whole tail of the sequence (break) — with a gap bound, later instances
    can still succeed. *)

val support : ?min_gap:int -> Inverted_index.t -> max_gap:int -> Pattern.t -> int
(** Greedy lower bound on the gap-constrained repetitive support. *)

val support_set :
  ?min_gap:int -> Inverted_index.t -> max_gap:int -> Pattern.t -> Support_set.t
(** The greedy gap-respecting instance set behind {!support}. *)

val strategy : min_gap:int -> max_gap:int -> Engine.strategy
(** The gap-constrained miner as an {!Engine} strategy: {!grow} as the
    growth operation, no closure machinery. Run it with [Engine.run
    (strategy ~min_gap ~max_gap)], or through {!Miner} with [max_gap]
    (sequential, queried and root-pool runs alike). Sound: every pattern
    it emits has true gap-constrained support at least [min_sup].
    Sharding ({!Shard_merge.strategy}) leaves the output identical, since
    {!grow} is per-sequence independent, like INSgrow.
    @raise Invalid_argument when [max_gap < 0], [min_gap < 0] or
    [min_gap > max_gap], when the strategy is built — before any pool
    worker could mistake it for a crashing root. *)
