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

type stack
(** The closure state of one DFS: a frame per pattern length, grown on
    demand, plus the scratch of the pre-filter. Frame [k] belongs to the
    length-[k+1] prefix whose leftmost support set it holds (compared by
    physical equality). It caches
    - the base sets [grow(prefix, e')] of the insertions at gap [k+1],
      which every descendant of that prefix shares;
    - extension states: for every candidate [(j, e')] that passed the
      prefix's own bound, or that one of its children grew, the
      extension set after [t] of the prefix's suffix events;
    - the prefix's landmark envelope rows.
    A child's check resumes those growths instead of regrowing them from
    the base, and derives its envelope from the rows. A stack is mutable
    and must not be shared across domains; the miner keeps one per run. *)

val stack : Inverted_index.t -> candidate_events:Event.t list -> stack
(** An empty stack for checks over [candidate_events], the events that may
    extend a pattern (the run's frequent events). The candidates' size-1
    support sets, the prepend bases, are memoised in the stack. *)

val check :
  ?trace:Trace.t ->
  stack ->
  prefix_sets:Support_set.t array ->
  pattern:Pattern.t ->
  has_equal_append:bool ->
  verdict
(** [check stack ~prefix_sets ~pattern ~has_equal_append] decides
    closedness and prunability of [pattern], of length [m].

    [prefix_sets.(j-1)] must be the leftmost support set of the length-[j]
    prefix [e1..ej], for [j = 1..m]; the last one is [pattern]'s own.
    These are exactly the sets on the DFS stack of CloGSgrow, so the check
    costs no extra support-set recomputation for prefixes.
    [has_equal_append] tells the check whether some append [P ◦ e] was
    already found to have equal support (CloGSgrow computes all appends
    anyway while growing).

    Candidate events are filtered internally to those with database
    occurrence count at least [sup(P)] — others cannot yield an
    equal-support extension.

    Before any growth, a counting pre-filter bounds each insertion's
    support by counting the candidate's occurrences in the landmark
    envelope window of its gap in every supporting sequence. The window
    scan reads the dense views of {!Seqdb.dense_seq}: one array load per
    position, mapped to a counter slot by dense event id, so sparse or
    negative raw ids are fine, and no hashing. A per-sequence touched-slot
    list resets the counts. The leftmost envelope comes from
    [prefix_sets] (the [j]-th leftmost landmark position in [S_i] is the
    last position of the first instance of [S_i]'s group in
    [prefix_sets.(j-1)]); only the rightmost landmark is walked.

    A candidate that passes the bound grows from its parent's extension
    state when [stack]'s frame for the length-[m-1] prefix belongs to
    [prefix_sets.(m-2)] and holds one, and from its cached base set
    otherwise. This is exact: INSgrow is exact from a leftmost support
    set, and a growth stopped below [sup(parent)] is continued, not
    restarted, since [sup(P) <= sup(parent)]. Frames owned by other
    prefixes are wiped first, so any sequence of checks on one stack is
    correct; DFS order is what makes the frames pay off. The verdict, and
    every [closure_*] counter, is the one a fresh stack gives.

    Scratch is not allocated per call. The slots, counters and views
    live in [stack] and are reset through its touched lists, and each
    frame reuses its envelope rows: a check allocates its candidates'
    extension sets, and grows an array only when a pattern needs more
    room than any before it.

    [trace] (default {!Trace.null}) records one [Closure_check] instant per
    call at the [Nodes] level, carrying the verdict (0 closed, 1
    non-closed, 2 LB-prunable). *)

val is_closed : ?events:Event.t list -> Inverted_index.t -> Pattern.t -> bool
(** Standalone Theorem-4 check (Definition 2.6): computes supports of all
    single-event extensions of [P]. [events] defaults to the whole
    alphabet. Runs {!check} on a fresh stack. Intended for tests and
    one-off queries; the miner uses {!check}. *)

val lb_prunable : ?events:Event.t list -> Inverted_index.t -> Pattern.t -> bool
(** Standalone Theorem-5 check. *)
