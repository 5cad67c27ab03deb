(** Inverted event index (Section III-D of the paper).

    For each event [e] and sequence [S_i], the index stores the ordered
    position list [L_{e,Si} = { j | S_i[j] = e }]. The [next] query — "the
    smallest position [l > lowest] with [S_i[l] = e]" — is answered by
    binary search in [O(log L)], exactly as the paper's subroutine
    [next(S, e, lowest)].

    The paper's two storage layouts share the same query semantics
    (property-tested equal; every mining algorithm runs on either):

    - {!build} (default, columnar): arrays — "if the main memory is large
      enough for the index structure [L_{e,Si}]'s, we can use arrays".
      CSR layout: per sequence, one contiguous positions buffer grouped
      by dense event id ({!Alphabet}) plus an offsets table indexed by
      dense id, so [positions]/[next]/[count_between] are pure
      array-slice arithmetic with zero hashing.
    - {!build_paged}: bulk-loaded B+-trees ({!Btree}) — "otherwise,
      B-trees can be employed".

    The CSR backend spends [alphabet_size + 1] words of offsets per
    sequence; for databases whose alphabet vastly exceeds typical sequence
    length under tight memory, prefer {!build_paged}. *)

type t

type kind = Kcsr | Kpaged

val build : Seqdb.t -> t
(** Columnar (CSR) index, built in one counting pass and one fill pass over
    the database, [O(total length + N * alphabet)]. On a store-backed
    database ({!Seqdb.of_store}) the pass is skipped entirely: the CSR
    runs were precomputed at pack time, so building only slices the
    mapped sections — [O(N)] descriptors, zero copies, no event data
    read. *)

val build_paged : ?fanout:int -> Seqdb.t -> t
(** B+-tree-backed index ([fanout] defaults to 16). Same query semantics;
    node-per-level access pattern suited to paged storage. *)

val build_kind : ?fanout:int -> kind -> Seqdb.t -> t
(** Dispatch on {!kind} ([fanout] only affects [Kpaged]). *)

val db : t -> Seqdb.t
(** The database the index was built from. *)

val kind : t -> kind
val kind_name : kind -> string

val backend_name : t -> string
(** ["csr"] or ["paged"] — for benches and reports. *)

val next : t -> seq:int -> Event.t -> lowest:int -> int option
(** [next idx ~seq:i e ~lowest] is the minimum position [l] such that
    [l > lowest] and [S_i[l] = e], or [None] if no such position exists.
    [seq] is 1-based. Counts into {!Metrics.next_calls}. *)

val count_between : t -> seq:int -> Event.t -> lo:int -> hi:int -> int
(** Number of positions [p] of [e] in [S_i] with [lo < p < hi] (exclusive
    bounds) — [O(log L)]. *)

val positions : t -> seq:int -> Event.t -> int array
(** All positions of [e] in [S_i], ascending, 1-based. Materialised on
    each call (a fresh array on every backend). *)

(** {2 Cursors}

    A cursor answers a {e monotone} sequence of [next] queries against one
    [(sequence, event)] position list. INSgrow's per-sequence pass is
    exactly that: by Lemma 3 the [lowest] bound — [max(last_position,
    inst.last)] — never decreases while walking a support-set group in
    right-shift order, so instead of re-running a full binary search per
    instance the cursor remembers where the previous seek ended and
    advances by galloping. A whole-group pass therefore costs
    O(occurrences of [e] in [S_i]) amortized, independent of the number of
    instances extended. *)

type cursor

val cursor : t -> seq:int -> Event.t -> cursor
(** A fresh cursor over [L_{e,Si}]. Both backends are stateful: the CSR
    cursor resolves its slice once per sequence (no hashing at all), and
    the paged cursor keeps a {!Btree.cursor} finger into the current
    leaf. *)

val seek : cursor -> lowest:int -> int option
(** [seek c ~lowest] is [next idx ~seq e ~lowest] for the cursor's list.
    Calls must pass nondecreasing [lowest] values (INSgrow's monotone
    bound, Lemma 3); positions at or below an earlier [lowest] are spent
    and will not be revisited. Short hops are resolved by a few linear
    probes (counted into {!Metrics.cursor_advances}); longer hops switch
    to a galloping (doubling) search, O(log hop), counted into
    {!Metrics.cursor_gallops}. *)

val seek_pos : cursor -> lowest:int -> int
(** As {!seek} but option-free: the position, or [-1] when none qualifies.
    The mining hot loops use this entry to avoid one allocation per
    successful seek. *)

val reseat : cursor -> seq:int -> unit
(** Re-point the cursor at sequence [seq]'s position list for the same
    event, resetting the monotone frontier but keeping the batched counts.
    An INSgrow pass over a whole support set thereby costs one cursor
    allocation and one {!cursor_finish} flush total. The sequence index is
    not re-validated — callers iterate a support set's groups, which are
    in range by construction. *)

val cursor_finish : cursor -> unit
(** Flush the cursor's locally batched counts into {!Metrics.next_calls},
    {!Metrics.cursor_advances} and {!Metrics.cursor_gallops} (one atomic
    add per counter, instead of contending on shared counters inside the
    seek loop). Safe to skip — only metrics accuracy is affected. *)

val occurrence_count : t -> Event.t -> int
(** Total occurrences of [e] over the database — the repetitive support of
    the single-event pattern [e]. [O(1)] (dense-alphabet table lookup). *)

val events : t -> Event.t list
(** Distinct events in the database, ascending. *)

val frequent_events : t -> min_sup:int -> Event.t list
(** Events whose occurrence count is at least [min_sup], ascending. By the
    Apriori property these are the only events that can appear in any
    frequent pattern. *)
