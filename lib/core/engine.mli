(** The unified pattern-growth DFS behind {!Gsgrow}, {!Clogsgrow} and
    {!Gap_constrained} — one grow loop, parameterized by a {!strategy}.

    All three miners share the same skeleton: depth-first growth of a
    pattern [P] with its leftmost support set, Apriori pruning on support
    (Theorem 1), per-node budget/stop checks, [Node]/[Extension]/[Root]
    tracing, and batched metric flushes. They differ only in

    - {b how a support set grows} (plain [INSgrow], or the gap-bounded
      skip-on-failure variant), and
    - {b whether closure machinery runs} (CloGSgrow's CCheck/LBCheck
      before expansion; absent for the all-patterns miners).

    A {!strategy} captures exactly those two choices; the miner modules
    are thin instantiations and their outputs are byte-identical to the
    pre-engine implementations (pinned by the [@query] differential
    suite).

    Orthogonally, a {!Query.plan} prunes the {e answer} inside the same
    DFS: per-child cuts before the instance growth, a dynamic support
    floor on top of [min_sup], and an emission predicate. The default
    plan ({!Query.trivial}) is a no-op; the soundness of the non-trivial
    plans is argued in [Query] and DESIGN.md.

    {!run} is the only entry point. Parallel runs ({!Parallel_miner}) call it
    once per size-1 root ([~roots:[e]]), so a DFS subtree is always
    walked whole by one domain. *)

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
    (how the miners implement [max_patterns]); also raised internally
    when [should_stop] fires. *)

val run :
  ?max_length:int ->
  ?events:Event.t list ->
  ?roots:Event.t list ->
  ?should_stop:(unit -> bool) ->
  ?budget:Budget.t ->
  ?trace:Trace.t ->
  ?plan:Query.plan ->
  strategy ->
  Inverted_index.t ->
  min_sup:int ->
  emit:(Mined.t -> unit) ->
  stats
(** [run strategy idx ~min_sup ~emit] walks the pattern tree rooted at
    [roots] (default: all frequent events), growing with [events]
    (default likewise), and hands each answer pattern to [emit] in DFS
    order. [plan] defaults to {!Query.trivial} — identical behaviour to
    the pre-engine miners. All other optionals behave exactly as
    documented on {!Gsgrow.mine} / {!Clogsgrow.mine}.
    @raise Invalid_argument when [min_sup < 1]. *)
