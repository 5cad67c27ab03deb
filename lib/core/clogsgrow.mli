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

val strategy : use_lb_check:bool -> use_c_check:bool -> Engine.strategy
(** CloGSgrow as an {!Engine} strategy: plain instance growth plus the
    closure spec (CCheck first, LBCheck pruning, equal-support appends as
    free non-closedness proof), with either check disabled on request.
    Run it with [Engine.run (strategy ~use_lb_check:true
    ~use_c_check:true)], or through {!Miner} with [mode = Closed]; the
    query layer reuses the same strategy. Under a {!Shard_merge.strategy}
    wrapper only the DFS instance growths are sharded — the closure
    machinery's internal growths are untouched. *)
