(** Answer modes for a mining run: everything, only patterns containing a
    target subsequence, or the k best by support — pruned {e inside} the
    DFS rather than by filtering a full answer afterwards.

    A {!t} names what the caller wants back; {!collector} compiles it into
    a {!plan} of per-node hooks the {!Engine} DFS consults plus a result
    sink. All three plans are {e lossless} for their answer:

    - {b targeted}: containment of the target [Q] in a grown pattern is
      decided by greedy left-to-right matching, and the matched count
      advances by at most one per append — so it rides along as a tiny
      per-node state. An extension subtree is cut as soon as the unmatched
      remainder of [Q] can no longer fit in the remaining length budget
      (and the whole search is cut up front when some event of [Q] is not
      frequent — a frequent pattern only uses frequent events).
    - {b top-k}: a size-[k] heap of the best answers seen, keyed on
      (support, root rank, DFS arrival). Once full, no descendant of a
      node with support at most [min(heap)] can enter (support is
      antimonotone under appends, Theorem 1, and a later arrival loses
      every tie), so the support floor rises to [min(heap) + 1] and
      prunes exactly like the static Apriori bound — or to [min(heap)]
      while the worst entry comes from a later-ranked root, which loses
      a tie to the root being mined.
    - {b all}: the trivial plan; the engine behaves identically to the
      un-queried miners.

    {b The top-k tie rule}, the same at every entry point: the answer is
    the first [k] patterns by support, ties broken by DFS arrival, with
    the roots visited in descending single-event support
    ({!Parallel_miner.largest_first_order}). Equivalently: run the full
    miner with that root order, stable-sort its output by support, take
    [k]. The rule costs no DFS node over "any [k] best": the floor stays
    at [min(heap) + 1].

    {b The board.} {!Miner} runs one collector per size-1 root, and the
    roots of a run share one {!board}. A root's rank is its place in the
    answer order: canonical event order, or the top-k root order above.
    A root publishes to the board only once it has completed, so a
    partial or crashed root raises no other root's floor, and each top-k
    root starts from a copy of the board's heap. With one domain in rank
    order that is one collector over every root, node for node; with
    several, a root's own kept entries still hold all it adds to the
    answer, so the board ends on the same [k] patterns. *)

open Rgs_sequence

type t =
  | All  (** every pattern the miner would emit *)
  | Targeted of Pattern.t
      (** only patterns containing the target as a subsequence *)
  | Top_k of int  (** the [k] best patterns by repetitive support *)

val validate : t -> unit
(** @raise Invalid_argument on an empty target or [k < 1]. *)

val equal : t -> t -> bool

val to_string : t -> string
(** Stable one-token encoding (["all"], ["target:1.2.3"], ["topk:100"]) —
    used in checkpoint fingerprints, so it must not change meaning across
    versions. *)

val pp : Format.formatter -> t -> unit

(** {1 Plans} — the per-node hooks the engine consults. *)

type plan = {
  root_state : Event.t -> int;  (** query state of a size-1 root pattern *)
  child_state : int -> Event.t -> int;
      (** state of [P ◦ e] from the state of [P] *)
  cut : state:int -> depth:int -> bool;
      (** cut the subtree of a (prospective) node at [depth] with [state]
          {e before} growing its support set *)
  floor : unit -> int;
      (** current dynamic support floor, at least [min_sup]; extensions
          below it are pruned (sound by antimonotonicity) *)
  emit_ok : state:int -> bool;  (** emit patterns with this state? *)
}

val trivial : min_sup:int -> plan
(** The mine-everything plan: no state, no cuts, constant floor. An engine
    run under this plan is step-for-step identical to one with no plan. *)

(** {1 Collectors} — a plan coupled with result collection. *)

type collector = {
  plan : plan;
  offer : Mined.t -> unit;  (** the engine's [emit] callback *)
  results : unit -> Mined.t list;
      (** the answer: DFS order for [All]/[Targeted]; for [Top_k]
          support-descending, ties in arrival order *)
}

(** {1 The board} — answers of completed roots, shared by a run. *)

type board
(** Domain-safe. *)

val board : roots:int -> t -> board
(** An empty board for roots ranked [0 .. roots-1]. *)

val publish : board -> rank:int -> Mined.t list -> unit
(** Adds the [results] of the root ranked [rank]; publish each rank
    once. *)

val answer : board -> Mined.t list
(** The answers in rank order; for [Top_k] the [k] best, ordered as
    {!collector}'s [results]. *)

val collector :
  ?max_length:int ->
  ?board:board ->
  ?rank:int ->
  events:Event.t list ->
  min_sup:int ->
  t ->
  collector
(** [collector ~events ~min_sup q] compiles [q]. [events] must be the
    candidate event list the engine will grow with (the targeted
    frequent-event cut checks membership there); [max_length] must match
    the engine's or the targeted length cut stays disabled. A collector is
    single-use: fresh state per run. [rank] (default [0]) ranks the
    run's root; given [board], a [Top_k] collector starts from a copy of
    its heap and its [results] are the kept entries of rank [rank].
    @raise Invalid_argument as {!validate}. *)
