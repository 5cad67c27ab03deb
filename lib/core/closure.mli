(** Closure checking (Theorem 4) and landmark-border checking (Theorem 5).

    A pattern [P] is non-closed iff some single-event {e extension}
    (Definition 3.4: prepend, insert, or append) has the same repetitive
    support. [CCheck] rules such patterns out of the output on the fly.

    [LBCheck] additionally prunes the whole DFS subtree under [P]: if an
    extension [P'] has equal support {e and} the last landmarks of its
    leftmost support set do not shift right of those of [P]
    (position-wise, in right-shift order), then no pattern with prefix [P]
    is closed. Appended extensions can never satisfy the border condition
    (their last landmark strictly exceeds the matching instance's last
    landmark of [P]), so only prepend/insert extensions are examined for
    pruning. *)

open Rgs_sequence

type verdict = {
  closed : bool;  (** no extension has equal support *)
  prunable : bool;  (** Theorem 5 applies: stop growing [P] *)
}

val check :
  ?event_sets:(Event.t -> Support_set.t) ->
  ?trace:Trace.t ->
  Inverted_index.t ->
  candidate_events:Event.t list ->
  prefix_sets:Support_set.t array ->
  pattern:Pattern.t ->
  support_set:Support_set.t ->
  has_equal_append:bool ->
  verdict
(** [check idx ~candidate_events ~prefix_sets ~pattern ~support_set
    ~has_equal_append] decides closedness and prunability of [pattern].

    [prefix_sets.(j-1)] must be the leftmost support set of the length-[j]
    prefix [e1..ej] (these are exactly the sets on the DFS stack of
    CloGSgrow, so the check costs no extra support-set recomputation for
    prefixes). [support_set] is the leftmost support set of [pattern]
    itself and must equal [prefix_sets.(m-1)]. [has_equal_append] tells the
    check whether some append [P ◦ e] was already found to have equal
    support (CloGSgrow computes all appends anyway while growing).

    Candidate events are filtered internally to those with database
    occurrence count at least [sup(P)] — others cannot yield an
    equal-support extension.

    Before any growth, a counting pre-filter bounds each insertion's
    support by counting the candidate's occurrences in the landmark
    envelope window of its gap in every supporting sequence. Counters
    are flat [int array]s: each surviving candidate gets a slot, looked
    up by {e dense} event id ({!Seqdb.dense_alphabet}), so sparse or
    negative raw ids are fine. A gap window costs one dense-id lookup
    plus at most one array increment per position — no hashing — and a
    per-sequence touched-slot list resets the counts. The leftmost
    envelope comes from [prefix_sets] (the [j]-th leftmost landmark
    position in [S_i] is the last position of the first instance of
    [S_i]'s group in [prefix_sets.(j-1)]); only the rightmost landmark
    is walked. Scratch arrays are allocated per call, so concurrent
    checks on different domains share nothing.

    [event_sets] supplies the size-1 leftmost support sets used as prepend
    bases; pass a memoised function (as CloGSgrow does) to avoid
    re-materialising them at every DFS node. Defaults to
    [Support_set.of_event idx].

    [trace] (default {!Trace.null}) records one [Closure_check] instant per
    call at the [Nodes] level, carrying the verdict (0 closed, 1
    non-closed, 2 LB-prunable). *)

val is_closed : ?events:Event.t list -> Inverted_index.t -> Pattern.t -> bool
(** Standalone Theorem-4 check (Definition 2.6): computes supports of all
    single-event extensions of [P]. [events] defaults to the whole
    alphabet. Intended for tests and one-off queries; the miner uses
    {!check}. *)

val lb_prunable : ?events:Event.t list -> Inverted_index.t -> Pattern.t -> bool
(** Standalone Theorem-5 check. *)
