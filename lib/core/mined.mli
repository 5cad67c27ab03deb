(** Mined pattern records shared by {!Gsgrow}, {!Clogsgrow} and the
    {!Miner} facade.

    An answer is [(P, sup(P))], as Algorithms 3 and 4 output it. The
    compressed leftmost support sets of Section III-D exist only to grow
    and check the DFS path; an emitted record does not keep its node's
    set. A caller that needs the set — per-sequence counts
    ([Rgs_post.Features]), landmarks ({!Miner.landmarks}) — recomputes it
    with {!Sup_comp.support_set}, which yields the same leftmost set
    (Algorithm 1). *)

type t = {
  pattern : Pattern.t;
  support : int;  (** repetitive support [sup(pattern)] *)
}

val compare_by_support_desc : t -> t -> int
(** Orders by decreasing support, then by increasing length, then
    lexicographically — a stable presentation order for reports. *)

val compare_by_length_desc : t -> t -> int
(** Orders by decreasing pattern length (the case study's ranking step),
    then by decreasing support, then lexicographically. *)

val pp : Format.formatter -> t -> unit

val pp_with : Rgs_sequence.Codec.t -> Format.formatter -> t -> unit
