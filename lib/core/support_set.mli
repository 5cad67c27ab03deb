(** Support sets in compressed, columnar form.

    A support set of a pattern [P] is a maximum-size non-redundant set of
    instances of [P] (Definition 2.5). The mining algorithms maintain
    {e leftmost} support sets (Definition 3.2) in the compressed
    representation of Section III-D: per sequence, the [(first, last)]
    landmark borders kept in right-shift order (ascending [last]).

    Storage is columnar: each per-sequence group is a pair of parallel
    [int array]s ([firsts], [lasts]) rather than an array of boxed
    instance records, with an explicit live length ([group_len]) that may
    be shorter than the arrays. Appending growth never moves first
    positions and only ever kills a suffix of a group, so a grown group
    shares its parent's [firsts] array outright (no prefix copies on
    append-heavy DFS paths). {!Instance.t} remains the public view type,
    materialised on demand by {!instances}, {!instances_in} and
    {!fold_groups}. *)

open Rgs_sequence

type t
(** A compressed support set. Immutable from the outside. *)

val empty : t

val of_event : Inverted_index.t -> Event.t -> t
(** The leftmost support set of the size-1 pattern [e]: every occurrence of
    [e] in the database (line 1 of Algorithm 1 / line 3 of Algorithm 3),
    read from the event's runs ({!Inverted_index.map_runs}). *)

val size : t -> int
(** Number of instances — the repetitive support of the pattern this set
    belongs to when the set is leftmost. *)

val is_empty : t -> bool

val num_sequences : t -> int
(** Number of sequences holding at least one instance. *)

val sequences : t -> int list
(** 1-based indices of sequences holding instances, ascending. *)

val instances : t -> Instance.t list
(** All instances in right-shift order (Definition 3.1). *)

val instances_in : t -> seq:int -> Instance.t array
(** Instances located in sequence [seq], in right-shift order (fresh
    array of materialised views). *)

val per_sequence_counts : t -> (int * int) list
(** [(sequence index, instance count)] pairs, ascending by sequence. Useful
    as per-sequence feature values (Section V's classification idea). *)

val lasts : t -> (int * int) array
(** [(sequence, last landmark position)] of every instance in right-shift
    order — the "landmark border" of Theorem 5. Allocates; the mining path
    uses {!border_dominated} on the packed arrays instead. *)

val border_dominated : extension:t -> pattern:t -> bool
(** Theorem 5 condition (ii): both sets have the same size and, pairing
    instances by rank in right-shift order, each of [extension]'s
    instances lies in the same sequence as — and ends no later than — the
    corresponding instance of [pattern]. Scans the packed [lasts] arrays
    directly; no allocation. *)

val fold_groups : ('a -> int -> Instance.t array -> 'a) -> 'a -> t -> 'a
(** Folds over per-sequence groups in ascending sequence order. The
    instance arrays are materialised views (fresh; safe to keep). *)

(** {2 Packed accessors}

    Zero-copy access to the columnar storage, for hot paths
    ({!Closure.check}, {!Gap_constrained.grow}) and the differential test
    suite. Groups are indexed [0 .. num_groups - 1] in ascending sequence
    order; the returned arrays are owned by the set — do not mutate. *)

val num_groups : t -> int
val group_seq : t -> int -> int

val group_len : t -> int -> int
(** Number of live instances in the group. The packed arrays may be longer
    than this (growth shares a parent's [firsts] array wholesale and keeps
    [lasts] at its allocated size); only the first [group_len] slots are
    meaningful. *)

val group_firsts : t -> int -> int array
val group_lasts : t -> int -> int array

val grow :
  Inverted_index.t -> t -> Event.t -> t
(** [grow idx i e] is the instance-growth operation [INSgrow(SeqDB, P, I, e)]
    (Algorithm 2): extends the leftmost support set [I] of [P] into the
    leftmost support set of [P ◦ e]. Each per-sequence pass drives one
    monotone {!Inverted_index.cursor}, reseated from group to group in
    ascending sequence order, so a whole group costs O(occurrences of
    [e]) amortized rather than one full [O(log L)] search per instance. Surviving groups share the
    parent's [firsts] array; no arrays are copied on partial survival. *)

val slice : t -> lo:int -> hi:int -> t
(** [slice s ~lo ~hi] restricts [s] to the sequences in the inclusive
    1-based range [[lo, hi]] — a shard view: groups ascend by sequence,
    so the result is a contiguous sub-array of shared group records
    (binary-searched boundaries, no instance copying; [s] itself when
    the range covers every group).
    @raise Invalid_argument when [lo > hi]. *)

val combine : t -> t -> t
(** Merge two support sets over {e disjoint} sequence ids (e.g. the
    per-shard results of growing disjoint {!slice}s) into one, in
    ascending sequence order. Group records are shared, not copied.
    Associative and commutative: the result depends only on the union
    of the per-sequence groups, and instances keep their right-shift
    order inside each group, so combining a partition's shards in any
    tree yields exactly the unsharded set ({!Shard_merge}'s proof
    obligation, checked differentially by the [@shards] suite).
    @raise Invalid_argument when the operands share a sequence id. *)

val encode : t -> string
(** Serialise for the worker wire (FORMAT.md Appendix B): canonical
    LEB128 varints — group count, total, then per group the sequence id
    as its gap from the previous group's, the live length, and per
    instance [last] as its delta from the previous [last] and [first]
    as [last - first]. Slack slots are trimmed, so [encode] is a pure
    function of the set's {e content}: [encode a = encode b] whenever
    [equal a b]. *)

val encode_bound : t -> int
(** An upper bound on [String.length (encode s)], O(1). *)

val encode_into : t -> bytes -> int -> int
(** [encode_into s b off] writes [encode s] into [b] at [off] and
    returns the offset just past it — the frame writers reuse one
    buffer per connection this way.
    @raise Invalid_argument unless [b] has {!encode_bound} bytes free
    at [off]. *)

val decode : string -> t
(** Inverse of {!encode}. A trust boundary: the input may come from a
    crashed or corrupted worker process, so every {!well_formed}
    invariant (strict right-shift order, ascending sequence ids, no
    empty group, total consistency) plus exact buffer length is
    re-validated; every count is bounded by the bytes left before
    anything is allocated, and overlong varints and values past
    [max_int] are refused, so exactly one byte string decodes to each
    set. Decoding allocates the result only.
    @raise Invalid_argument on any malformed input. *)

val decode_sub : string -> off:int -> len:int -> t
(** [decode_sub buf ~off ~len] decodes exactly the bytes
    [[off, off + len)] of [buf], as {!decode} on that substring but
    without copying it. @raise Invalid_argument as {!decode}, and when
    the range lies outside [buf]. *)

val same_groups : t -> t -> bool
(** [same_groups a b]: both sets consist of physically the same group
    records in the same order. Groups are immutable, so this implies
    [equal a b]; it costs O(groups) and reads no instance. Two
    {!slice}s of one set over the same range always qualify — what the
    supervisor's slot table relies on to skip re-shipping a parent. *)

val equal : t -> t -> bool
(** Content equality over live prefixes (slack slots and sharing are
    representation details and do not affect it). *)

val pp : Format.formatter -> t -> unit

val well_formed : t -> bool
(** Structural invariant: groups ascend by sequence, each group is
    non-empty with parallel [firsts]/[lasts] arrays in strict right-shift
    order. Checked by the test suite on every construction route (it is
    too costly to assert inside the mining hot loop). *)

(**/**)

val unsafe_of_groups : (int * Instance.t array) array -> t
(** Internal: build from per-sequence instance groups; the caller must
    guarantee {!well_formed}. Exposed for tests and the oracle. *)

val unsafe_of_packed : (int * int array * int array) array -> t
(** Internal: build directly from packed [(seq, firsts, lasts)] groups;
    the caller must guarantee {!well_formed} and hand over ownership of
    the arrays. *)
