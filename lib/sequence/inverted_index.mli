(** Inverted event index (Section III-D of the paper).

    For each event [e] and sequence [S_i], the index stores the ordered
    position list [L_{e,Si} = { j | S_i[j] = e }]. The [next] query — "the
    smallest position [l > lowest] with [S_i[l] = e]" — is answered by
    binary search in [O(log L)], exactly as the paper's subroutine
    [next(S, e, lowest)].

    The lists are arrays ("if the main memory is large enough for the
    index structure [L_{e,Si}]'s, we can use arrays"), laid out
    event-major ({!Seqdb.runs}): each dense event ({!Alphabet}) owns a
    contiguous range of runs, one per sequence it occurs in, in ascending
    sequence order, and each run owns a contiguous slice of positions.
    The table is [total + 2R + k + 2] words, where [R <= total] is the
    number of distinct (sequence, event) pairs — linear in the database,
    with no per-sequence term in the alphabet size, so the paper's
    memory-constrained B-tree case does not arise. *)

type t

val build : Seqdb.t -> t
(** The index of a database, and its only constructor. A heap database
    is indexed in one counting pass and one fill pass, [O(total length +
    k)] with [O(k)] scratch. On a store-backed database
    ({!Seqdb.of_store}) the run table was packed at write time, so
    building uses the mapped sections as they are — zero copies, no event
    data read. *)

val db : t -> Seqdb.t
(** The database the index was built from. *)

val runs : t -> Seqdb.runs
(** The run table (mapped sections on a store-backed database) — what
    the store writer packs as [EVRN]/[RSEQ]/[ROFF]/[EPOS]. *)

val next : t -> seq:int -> Event.t -> lowest:int -> int option
(** [next idx ~seq:i e ~lowest] is the minimum position [l] such that
    [l > lowest] and [S_i[l] = e], or [None] if no such position exists.
    [seq] is 1-based. Counts into {!Metrics.next_calls}. *)

val count_between : t -> seq:int -> Event.t -> lo:int -> hi:int -> int
(** Number of positions [p] of [e] in [S_i] with [lo < p < hi] (exclusive
    bounds) — [O(log L)]. *)

val positions : t -> seq:int -> Event.t -> int array
(** All positions of [e] in [S_i], ascending, 1-based. Materialised on
    each call (a fresh array). [O(log runs of e)] to find the run. *)

val map_runs : t -> Event.t -> (int -> int array -> 'a) -> 'a array
(** [map_runs idx e f] is [[| f i (positions of e in S_i) |]] over every
    sequence [S_i] that holds [e], in ascending [i] — one walk of the
    event's runs, no sequence without [e] visited. The positions arrays
    are fresh. *)

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
(** A fresh cursor over [L_{e,Si}]: it holds the event's run range and a
    run frontier, and resolves its slice once per sequence (no hashing at
    all). *)

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
    event, resetting the monotone position frontier but keeping the
    batched counts. An INSgrow pass over a whole support set thereby costs
    one cursor allocation and one {!cursor_finish} flush total. A reseat
    to a later sequence advances the run frontier (a walk of up to eight
    runs, then bisection), so a pass over ascending sequences costs
    amortised [O(1)] per reseat; a reseat to an earlier sequence starts
    over from the event's first run. Reseats count into no metric. The
    sequence index is not re-validated — callers iterate a support set's
    groups, which are in range by construction. *)

val cursor_finish : cursor -> unit
(** Flush the cursor's locally batched counts into {!Metrics.next_calls},
    {!Metrics.cursor_advances} and {!Metrics.cursor_gallops} (one atomic
    add per counter, instead of contending on shared counters inside the
    seek loop). Safe to skip — only metrics accuracy is affected. *)

val occurrence_count : t -> Event.t -> int
(** Total occurrences of [e] over the database — the repetitive support of
    the single-event pattern [e]. [O(1)]: the span of the event's runs in
    the position table. *)

val events : t -> Event.t list
(** Distinct events in the database, ascending. *)

val frequent_events : t -> min_sup:int -> Event.t list
(** Events whose occurrence count is at least [min_sup], ascending. By the
    Apriori property these are the only events that can appear in any
    frequent pattern. *)
