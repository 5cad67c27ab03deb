(** CloGSgrow — Algorithm 4: mining {e closed} frequent repetitive gapped
    subsequences.

    Same DFS pattern growth as {!Gsgrow}, with two additions (Section
    III-C):

    - {b closure checking} ([CCheck], Theorem 4) drops non-closed patterns
      from the output on the fly, without consulting previously generated
      patterns;
    - {b landmark-border checking} ([LBCheck], Theorem 5) prunes entire DFS
      subtrees: when an extension of [P] has equal support and does not
      shift the landmark border right, no pattern prefixed by [P] is
      closed.

    Both checks can be disabled individually for ablation benchmarks. With
    [use_lb_check:false] the output is still exactly the closed patterns,
    only slower; disabling [use_c_check] additionally keeps non-closed
    patterns (turning the algorithm into GSgrow with extra work — useful
    only to measure the cost of the checks). *)

open Rgs_sequence

val strategy : use_lb_check:bool -> use_c_check:bool -> Engine.strategy
(** CloGSgrow as an {!Engine} strategy: plain instance growth plus the
    closure spec (CCheck first, LBCheck pruning, equal-support appends as
    free non-closedness proof), with either check disabled on request.
    {!mine} and {!iter} wrap [Engine.run (strategy ~use_lb_check:true
    ~use_c_check:true)]; the query layer reuses the same strategy. *)

val mine :
  ?max_length:int ->
  ?max_patterns:int ->
  ?events:Event.t list ->
  ?roots:Event.t list ->
  ?use_lb_check:bool ->
  ?use_c_check:bool ->
  ?should_stop:(unit -> bool) ->
  ?budget:Budget.t ->
  ?trace:Trace.t ->
  ?shards:Shard_merge.t ->
  Inverted_index.t ->
  min_sup:int ->
  Mined.t list * Engine.stats
(** [mine idx ~min_sup] returns every closed pattern with repetitive
    support at least [min_sup], in DFS order. [should_stop] is polled at
    every DFS node and aborts the search when it returns [true] (sets
    [stats.outcome = Truncated]); [budget] is {!Budget.check}ed at every
    DFS node and its stop reason lands in [stats.outcome], with the
    patterns mined so far still returned; [trace] (default {!Trace.null})
    records per-root [Root] spans plus, at the [Nodes] level, per-node
    [Node]/[Extension] instants, closure verdicts and [Lb_prune] events;
    [shards] runs the DFS instance growths shard-by-shard and merges
    ({!Shard_merge.strategy}) — identical output by construction (the
    closure machinery's internal growths are untouched).
    @raise Invalid_argument when [min_sup < 1]. *)

val iter :
  ?max_length:int ->
  ?events:Event.t list ->
  ?roots:Event.t list ->
  ?use_lb_check:bool ->
  ?use_c_check:bool ->
  ?should_stop:(unit -> bool) ->
  ?budget:Budget.t ->
  ?trace:Trace.t ->
  ?shards:Shard_merge.t ->
  Inverted_index.t ->
  min_sup:int ->
  f:(Mined.t -> unit) ->
  Engine.stats
(** Callback-style mining: [f] is invoked on each closed pattern in DFS
    order without accumulating results. *)
