(** GSgrow — Algorithm 3: mining {e all} frequent repetitive gapped
    subsequences.

    Depth-first pattern growth with the instance-growth operation embedded:
    for every frequent pattern [P] with leftmost support set [I], each
    candidate event [e] yields [I+ = INSgrow(SeqDB, P, I, e)]; the DFS
    recurses whenever [|I+| >= min_sup] (Apriori pruning, Theorem 1).

    Time complexity is [O(Σ_{P ∈ Fre} sup(P) · E · log L)] (Theorem 6) and
    working space beyond the inverted index is [O(sup_max · len_max)]
    (Theorem 7). *)

open Rgs_sequence

val strategy : Engine.strategy
(** GSgrow as an {!Engine} strategy: plain instance growth
    ({!Support_set.grow}), no closure machinery — every frequent node
    emits. {!mine} and {!iter} are thin wrappers over
    [Engine.run strategy]; the query layer ({!Query}, {!Miner}) reuses the
    same strategy with a non-trivial plan. *)

val mine :
  ?max_length:int ->
  ?max_patterns:int ->
  ?events:Event.t list ->
  ?roots:Event.t list ->
  ?should_stop:(unit -> bool) ->
  ?budget:Budget.t ->
  ?trace:Trace.t ->
  ?shards:Shard_merge.t ->
  Inverted_index.t ->
  min_sup:int ->
  Mined.t list * Engine.stats
(** [mine idx ~min_sup] returns every pattern with repetitive support at
    least [min_sup], in DFS (prefix) order, with supports. The answers
    carry no support sets ({!Mined}); {!Sup_comp.support_set} recomputes
    one.

    [max_length] bounds pattern length; [max_patterns] aborts the search
    after that many patterns (the result is then a prefix of the full
    answer and [stats.truncated] is set); [events] restricts candidate
    growth events (defaults to all events with occurrence count at least
    [min_sup]); [roots] restricts the {e starting} size-1 patterns (still
    grown with the full [events] set — the hook {!Parallel_miner} uses to
    partition the search across domains); [should_stop] is polled at every
    DFS node and aborts the search when it returns [true] (sets
    [stats.outcome = Truncated]); [budget] is {!Budget.check}ed at every
    DFS node and its stop reason is recorded in [stats.outcome] — the
    patterns mined before the stop are always returned; [trace] (default
    {!Trace.null}, i.e. off) records per-root [Root] spans plus, at the
    [Nodes] level, per-node [Node]/[Extension] instants and budget stops;
    [shards] runs every instance growth shard-by-shard and merges
    ({!Shard_merge.strategy}) — the mined output is identical by
    construction.

    @raise Invalid_argument when [min_sup < 1]. *)

val iter :
  ?max_length:int ->
  ?events:Event.t list ->
  ?roots:Event.t list ->
  ?should_stop:(unit -> bool) ->
  ?budget:Budget.t ->
  ?trace:Trace.t ->
  ?shards:Shard_merge.t ->
  Inverted_index.t ->
  min_sup:int ->
  f:(Mined.t -> unit) ->
  Engine.stats
(** Callback-style mining: [f] is invoked on each frequent pattern in DFS
    order without accumulating results. *)
