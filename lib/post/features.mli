(** Pattern-based sequence features — the paper's first future-work item
    (Section V): "our algorithms find all frequent repetitive patterns and
    report their supports in each sequence as feature values; a future work
    is to select discriminative ones for classification".

    This module turns mined patterns into per-sequence feature vectors
    (instance counts of the leftmost support sets, recomputed from the
    index), scores patterns for
    discriminativeness between two labelled groups, and provides a
    nearest-centroid classifier for the demonstration example. *)

open Rgs_core

type matrix = {
  patterns : Pattern.t array;  (** column j describes patterns.(j) *)
  counts : int array array;  (** [counts.(i).(j)]: instances of pattern [j] in sequence [i+1] *)
}

val feature_matrix : Rgs_sequence.Inverted_index.t -> Mined.t list -> matrix
(** One row per sequence of the index's database, one column per result.
    Mined answers carry no support sets, so column [j] is recomputed with
    {!Rgs_core.Sup_comp.support_set}: cell [(i, j)] is the number of instances of
    pattern [j] in sequence [i+1] within the leftmost support set, and column
    [j] sums to the pattern's repetitive support. The counts are
    {e unconstrained} repetitive supports — also for results mined by
    {!Rgs_core.Gap_constrained}, whose gap bounds are not re-applied here. *)

val discriminative_scores : matrix -> labels:bool array -> (Pattern.t * float) array
(** Scores each pattern by the absolute difference of its mean feature
    value between the [true] and [false] groups, descending. A pattern
    repeating often in one group and rarely in the other — the paper's
    [AB] vs [CD] customers — scores high.
    @raise Invalid_argument when [labels] length differs from the matrix
    height or one group is empty. *)

val select_top : int -> (Pattern.t * float) array -> Pattern.t list
(** The [k] best-scoring patterns. *)

val discriminative_indices : matrix -> labels:bool array -> (int * float) array
(** As {!discriminative_scores} but yielding column indices, for use with
    {!project}. *)

val project : matrix -> columns:int array -> matrix
(** Restricts the matrix to the given columns (in the given order) —
    typically the best discriminators, so the classifier is not diluted by
    uninformative patterns. *)

type centroid_model

val train_nearest_centroid : matrix -> labels:bool array -> centroid_model
(** Per-class mean vectors over the full feature matrix. *)

val classify : centroid_model -> int array -> bool
(** Classifies a feature vector (same column order as the training
    matrix) by the closer centroid (Euclidean). *)

val features_of_sequence :
  Rgs_sequence.Seqdb.t -> patterns:Pattern.t array -> int -> int array
(** Recomputes the feature vector of one sequence (1-based index) by
    running supComp on the singleton database — for classifying unseen
    sequences. *)
