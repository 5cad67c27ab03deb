(** Flat integer vectors backed by [Bigarray].

    The columnar index ({!Inverted_index}) and the binary store keep their
    position/offset runs in [Bigarray.Array1] buffers of kind [int] rather
    than OCaml [int array]s: the representation is identical whether the
    buffer was allocated in memory or mapped read-only from a [.rgsdb]
    file with [Unix.map_file], so the mapped open path reuses every query
    and cursor unchanged (and the buffers live outside the GC heap, which
    keeps multi-GB corpora out of major collections).

    Values are native 63-bit OCaml ints stored as 64-bit host words; the
    on-disk contract (little-endian, values in [0, 2^62)) is specified in
    FORMAT.md §1.3. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** Fresh uninitialised vector of the given length (outside the OCaml
    heap). *)

val empty : t
(** The length-0 vector (shared). *)

val length : t -> int

val get : t -> int -> int
(** Bounds-checked load. *)

val unsafe_get : t -> int -> int
(** Unchecked load — the cursor hot path; callers guard indices. *)

val set : t -> int -> int -> unit

val sub : t -> pos:int -> len:int -> t
(** Zero-copy slice sharing the underlying buffer (mapped or heap). *)

val to_array : t -> int array
(** Copying conversion (fresh array). *)

val sub_array : t -> pos:int -> len:int -> int array
(** [to_array] of a slice, as one copy. *)

val equal : t -> t -> bool
(** Same length and elementwise equal (contents, not identity). *)
