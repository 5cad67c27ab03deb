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
    - {b top-k}: a size-[k] min-heap of the best supports seen. Once full,
      no descendant of a node with support at most [min(heap)] can enter
      (support is antimonotone under appends, Theorem 1), so the support
      floor rises to [min(heap) + 1] and prunes exactly like the static
      Apriori bound. Ties at the boundary keep the earliest DFS arrival.
    - {b all}: the trivial plan; the engine behaves identically to the
      un-queried miners.

    Collectors are single-domain. A parallel queried run
    ({!Miner.mine_resumable} with [domains]) compiles one collector per
    root — a root's local answer contains its share of the global one —
    and merges the per-root answers after the pool joins, so no query
    state is shared between domains. *)

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
      (** the answer: DFS order for [All]/[Targeted], support-descending
          (ties: shorter first, then {!Pattern.compare}) for [Top_k] *)
}

val collector :
  ?max_length:int -> events:Event.t list -> min_sup:int -> t -> collector
(** [collector ~events ~min_sup q] compiles [q]. [events] must be the
    candidate event list the engine will grow with (the targeted
    frequent-event cut checks membership there); [max_length] must match
    the engine's or the targeted length cut stays disabled. A collector is
    single-use: fresh state per run.
    @raise Invalid_argument as {!validate}. *)
