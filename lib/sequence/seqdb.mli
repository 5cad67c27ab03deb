(** Sequence databases.

    [SeqDB = {S1, S2, ..., SN}] (Section II). Sequence indices are {b 1-based}
    like in the paper: [seq db 1] is [S1].

    A database is heap-backed (built from parsed text or a generator) or
    store-backed ({!of_store}): backed by read-only {!Ivec} sections
    mapped out of a [.rgsdb] file, with sequences materialised lazily on
    first access. Both answer every query below identically. *)

type t

val of_sequences : Sequence.t list -> t
val of_array : Sequence.t array -> t

val of_strings : string list -> t
(** Builds a database from letter strings via {!Sequence.of_string}. *)

val size : t -> int
(** [N], the number of sequences. *)

val seq : t -> int -> Sequence.t
(** [seq db i] is [S_i], 1-based.
    @raise Invalid_argument when [i] is out of [1..size db]. *)

val dense_seq : t -> int -> int array
(** [dense_seq db i] is [S_i] as dense event ids ({!dense_alphabet}),
    0-based: entry [p - 1] holds the id of the event at position [p]. It
    is built the first time it is asked for and cached (safe under
    parallel domains); a store-backed database builds it from the mapped
    event section without materialising [S_i]. Owned by the database — do
    not mutate. Closure checks scan these views.
    @raise Invalid_argument when [i] is out of [1..size db]. *)

val sequences : t -> Sequence.t array
(** The underlying sequences (fresh array, shared sequence values). *)

val total_length : t -> int
(** Sum of sequence lengths. *)

val max_length : t -> int
(** Length of the longest sequence; [0] when the database is empty. *)

val avg_length : t -> float

val alphabet : t -> Event.t list
(** Distinct events over the whole database, ascending. *)

val alphabet_size : t -> int

val dense_alphabet : t -> Alphabet.t
(** The dense event alphabet interned at build time: every distinct event
    mapped to a dense id in [0 .. alphabet_size - 1], in ascending event
    order. The inverted index ({!Inverted_index}) keys its run table on
    these ids. *)

val event_count : t -> Event.t -> int
(** Total number of occurrences of an event across all sequences. This equals
    the repetitive support of the size-1 pattern made of that event.
    [O(1)] on a store-backed database (two run-table reads), one scan of
    the sequences on a heap database. *)

val fold : ('a -> int -> Sequence.t -> 'a) -> 'a -> t -> 'a
(** Folds with 1-based sequence indices. *)

val iter : (int -> Sequence.t -> unit) -> t -> unit
(** Iterates with 1-based sequence indices. *)

val equal : t -> t -> bool
(** Content equality: same number of sequences, elementwise-equal
    sequences. When both sides are store-backed the sealed content
    digests are compared instead — O(1) and no sequence is forced. *)

val shard : t -> int -> (int * int) array
(** [shard db n] partitions the sequence range [1 .. size db] into at
    most [n] contiguous, non-empty, inclusive 1-based ranges
    [(lo, hi)], balanced by total event length (the proxy for
    per-shard mining cost). Deterministic greedy prefix walk: each
    shard closes once it reaches the remaining-length/remaining-shards
    target, so no shard is starved and the ranges cover the database
    exactly once in order. Shards are {e views} — nothing is copied;
    on a store-backed database the walk reads only the mapped offset
    table ({e no sequence is forced}). Returns fewer than [n] ranges
    when the database has fewer sequences, and [[||]] for an empty
    database. @raise Invalid_argument when [n < 1]. *)

val pp : Format.formatter -> t -> unit

(** {2 Store backing}

    The low-level bridge to the binary store (lib/store). [Store] maps a
    [.rgsdb] file and hands the typed sections to {!of_store}; everything
    above this line is backing-agnostic. *)

type runs = {
  evrn : Ivec.t;
      (** [k+1] entries: dense event [d]'s runs are [[evrn.(d), evrn.(d+1))] *)
  rseq : Ivec.t;
      (** [R] entries: run [r]'s 1-based sequence; strictly ascending
          within an event *)
  roff : Ivec.t;
      (** [R+1] entries: run [r] owns [epos.[roff.(r), roff.(r+1))] *)
  epos : Ivec.t;
      (** one entry per event occurrence: 1-based positions, ascending
          within a run *)
}
(** The event-major inverted-index run table (FORMAT.md §4): for every
    event, one run per sequence it occurs in, each naming its sequence
    and its slice of positions. [R] is the number of distinct
    (sequence, event) pairs, so the table is [total + 2R + k + 2] words. *)

val of_store :
  alpha:Alphabet.t ->
  seq_offsets:Ivec.t ->
  events:Ivec.t ->
  runs:runs ->
  digest:string ->
  t
(** A store-backed database over mapped (or otherwise precomputed)
    sections: [seq_offsets] holds [N+1] nondecreasing offsets (starting
    at 0) into [events]; [runs] is the run table of [events] over the
    [k]-event [alpha]; [digest] is the hex MD5 of the canonical event
    stream sealed at pack time ({!content_digest}). Sequences
    materialise lazily and are cached (safe under parallel domains);
    {!Inverted_index.build} on the result uses [runs] as they are.
    @raise Invalid_argument when the section shapes disagree or the run
    table breaks a FORMAT.md §2.5 clause (read in [O(k + R)], never
    touching [epos]). *)

val is_mapped : t -> bool
(** [true] for {!of_store}-backed databases. *)

val mapped_runs : t -> runs option
(** The run table of a store-backed database, [None] for heap databases.
    Consumed by {!Inverted_index.build}. *)

val content_digest : t -> string
(** Hex MD5 of the canonical event stream (every event printed as
    ["%d "], every sequence terminated by ['\n'] — FORMAT.md §2.1).
    O(1) on store-backed databases (sealed at pack time), computed once
    and cached on heap databases. Checkpoint fingerprints build on this,
    so text-loaded and store-backed runs of the same corpus share
    checkpoints. *)

type stats = {
  num_sequences : int;
  num_events : int;  (** distinct events *)
  total_length : int;
  min_length : int;
  max_length : int;
  avg_length : float;
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
