(** Repetitive support computation — Algorithm 1 ([supComp]).

    Couples pattern growth with instance growth: starting from the leftmost
    support set of [e1], repeatedly applies [INSgrow] to obtain the leftmost
    support set of [e1..ej] for [j = 2..m] (Theorem 2). The result size is
    the repetitive support [sup(P)] of Definition 2.5, computed in
    [O(m · sup(e1) · log L)]. *)

open Rgs_sequence

val support_set : Inverted_index.t -> Pattern.t -> Support_set.t
(** The leftmost support set of [P] in compressed form. The empty pattern
    has the empty support set. *)

val support : Inverted_index.t -> Pattern.t -> int
(** [sup(P)] — the size of the leftmost support set. *)

val landmarks : Inverted_index.t -> Pattern.t -> Instance.full list
(** The leftmost support set with full landmarks, in right-shift order,
    recomputed from scratch. *)

val reconstruct :
  Inverted_index.t -> Pattern.t -> Support_set.t -> Instance.full list
(** Reconstructs full landmarks from a compressed leftmost support set —
    the operation Section III-D states "can be constructed from these
    triples. Details are omitted here." Starting from each instance's
    stored first position, the intermediate positions are re-derived by
    replaying instance growth within each sequence; the replayed last
    positions provably coincide with the stored ones (asserted). Cheaper
    than {!landmarks} when the support set is much smaller than the
    occurrence list of the pattern's first event.
    @raise Invalid_argument when [set] is not a leftmost support set of
    [p] in the index's database. *)
