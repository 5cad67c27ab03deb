(** The unified pattern-growth DFS behind GSgrow, CloGSgrow and the
    gap-constrained miner — one grow loop, parameterized by a {!strategy}.

    All three miners share the same skeleton: depth-first growth of a
    pattern [P] with its leftmost support set, Apriori pruning on support
    (Theorem 1), per-node budget checks, [Node]/[Extension]/[Root]
    tracing, and batched metric flushes. They differ only in

    - {b how a support set grows} (plain [INSgrow], or the gap-bounded
      skip-on-failure variant), and
    - {b whether closure machinery runs} (CloGSgrow's CCheck/LBCheck
      before expansion; absent for the all-patterns miners).

    A {!strategy} captures exactly those two choices: {!Gsgrow.strategy},
    {!Clogsgrow.strategy} and {!Gap_constrained.strategy} are the three
    instantiations, and {!Shard_merge.strategy} wraps any of them to grow
    shard-by-shard.

    Orthogonally, a {!Query.plan} prunes the {e answer} inside the same
    DFS: per-child cuts before the instance growth, a dynamic support
    floor on top of [min_sup], and an emission predicate. The default
    plan ({!Query.trivial}) is a no-op; the soundness of the non-trivial
    plans is argued in [Query] and DESIGN.md.

    {!run} is the only DFS entry point ({!mine} collects its emissions
    into a list). {!Miner} drives it one way: one run per size-1 root
    ([~roots:[e]]) on the {!Parallel_miner.run_pool} root pool, so a DFS
    subtree is always walked whole by one domain. *)

open Rgs_sequence

(** Closure machinery for strategies that emit only closed patterns. *)
type closure_spec = {
  check :
    pattern:Pattern.t ->
    support_set:Support_set.t ->
    prefix_rev_chain:Support_set.t list ->
    Closure.verdict;
      (** per-node verdict, called {e before} appends are grown
          (prunability never depends on them); [prefix_rev_chain] is the
          DFS stack of prefix support sets, most recent first, including
          the node's own set *)
  detect_equal_append : bool;
      (** treat an equal-support append as proof of non-closedness (the
          CCheck contribution CloGSgrow gets for free from the appends it
          grows anyway) *)
}

type strategy = {
  name : string;  (** used in [Invalid_argument] messages *)
  grow : Inverted_index.t -> Support_set.t -> Event.t -> Support_set.t;
      (** instance growth: the leftmost support set of [P ◦ e] from that
          of [P] *)
  closure :
    (Inverted_index.t -> events:Event.t list -> trace:Trace.t -> closure_spec)
    option;
      (** when present, built once per run (so it can own per-run caches);
          nodes then follow the check-first CloGSgrow shape *)
}

type stats = {
  emitted : int;  (** patterns passed to [emit] *)
  dfs_nodes : int;  (** DFS nodes visited *)
  insgrow_calls : int;  (** instance-growth invocations *)
  lb_pruned : int;  (** subtrees cut by the closure verdict *)
  non_closed_dropped : int;  (** nodes rejected by closure checking *)
  query_cuts : int;  (** subtrees cut by {!Query.plan.cut} (never grown) *)
  floor_prunes : int;
      (** frequent extensions pruned by the dynamic floor only *)
  truncated : bool;  (** [true] iff [outcome <> Completed] *)
  outcome : Budget.outcome;  (** why the search ended *)
}

exception Budget_exhausted
(** Raise from [emit] to abort the search with [outcome = Truncated]
    (how {!Miner} implements [max_patterns]). *)

val run :
  ?max_length:int ->
  ?events:Event.t list ->
  ?roots:Event.t list ->
  ?budget:Budget.t ->
  ?trace:Trace.t ->
  ?plan:Query.plan ->
  strategy ->
  Inverted_index.t ->
  min_sup:int ->
  emit:(Mined.t -> unit) ->
  stats
(** [run strategy idx ~min_sup ~emit] hands every answer pattern — each
    pattern with repetitive support at least [min_sup], or only the closed
    ones under a closure strategy — to [emit] in DFS (prefix) order, with
    its support. The answers carry no support sets ({!Mined});
    {!Sup_comp.support_set} recomputes one.

    - [max_length] bounds pattern length.
    - [events] restricts the candidate growth events (default: every
      event with occurrence count at least [min_sup]).
    - [roots] restricts and orders the {e starting} size-1 patterns
      (default: [events]); they are still grown with the full [events]
      set. This is how {!Miner} runs one root per pool claim.
    - [budget] is {!Budget.check}ed at every DFS node; on a stop the
      search ends, the reason lands in [stats.outcome] and the patterns
      emitted before it stand. Raising {!Budget_exhausted} from [emit]
      stops the search the same way with [Truncated].
    - [trace] (default {!Trace.null}, i.e. off) records per-root [Root]
      spans plus, at the [Nodes] level, per-node [Node]/[Extension]
      instants, closure verdicts, [Lb_prune] and [Query_cut] events and
      budget stops.
    - [plan] (default {!Query.trivial}) prunes the answer inside the DFS;
      the trivial plan changes nothing.

    To grow shard-by-shard, pass [Shard_merge.strategy layout strategy]:
    the output is identical by construction.
    @raise Invalid_argument when [min_sup < 1]. *)

val mine :
  ?max_length:int ->
  ?events:Event.t list ->
  ?roots:Event.t list ->
  ?budget:Budget.t ->
  ?trace:Trace.t ->
  ?plan:Query.plan ->
  strategy ->
  Inverted_index.t ->
  min_sup:int ->
  Mined.t list * stats
(** {!run} with the emitted patterns collected into a list, in DFS
    order. *)
