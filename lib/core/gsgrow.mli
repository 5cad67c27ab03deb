(** GSgrow — Algorithm 3: mining {e all} frequent repetitive gapped
    subsequences.

    Depth-first pattern growth with the instance-growth operation embedded:
    for every frequent pattern [P] with leftmost support set [I], each
    candidate event [e] yields [I+ = INSgrow(SeqDB, P, I, e)]; the DFS
    recurses whenever [|I+| >= min_sup] (Apriori pruning, Theorem 1).

    Time complexity is [O(Σ_{P ∈ Fre} sup(P) · E · log L)] (Theorem 6) and
    working space beyond the inverted index is [O(sup_max · len_max)]
    (Theorem 7). *)

val strategy : Engine.strategy
(** GSgrow as an {!Engine} strategy: plain instance growth
    ({!Support_set.grow}), no closure machinery — every frequent node
    emits. Run it with [Engine.run strategy], or through {!Miner} with
    [mode = All]; the query layer ({!Query}) reuses the same strategy
    with a non-trivial plan. *)
