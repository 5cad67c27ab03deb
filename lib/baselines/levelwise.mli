(** Levelwise (Apriori-style) repetitive mining — a baseline that ablates
    the paper's {e instance growth} operation.

    Solves exactly the same problem as GSgrow (all frequent repetitive
    gapped subsequences) but the classic way: generate size-[k+1]
    candidates by extending frequent size-[k] patterns, then compute each
    candidate's support {e from scratch} with [supComp]. GSgrow instead
    extends the parent's support set incrementally in [O(sup · log L)].
    Comparing the two isolates how much of GSgrow's efficiency comes from
    instance growth rather than from the DFS traversal itself. *)

open Rgs_sequence
open Rgs_core

type stats = {
  patterns : int;
  candidates : int;  (** supComp invocations *)
  levels : int;  (** deepest level with a frequent pattern *)
  truncated : bool;  (** [should_stop] aborted the run *)
}

val mine :
  ?max_length:int ->
  ?should_stop:(unit -> bool) ->
  Inverted_index.t ->
  min_sup:int ->
  (Pattern.t * int) list * stats
(** Identical output set to GSgrow's ([Engine.run Gsgrow.strategy];
    different order: by level, then lexicographic within a level).
    @raise Invalid_argument when [min_sup < 1]. *)
