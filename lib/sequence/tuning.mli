(** Runtime tuning knobs of the index cursors.

    The galloping cursor ({!Inverted_index.seek}) probes a few positions
    linearly past the frontier before switching to a doubling search.
    The threshold lives here, once. [0] disables the linear fast path
    entirely (every non-frontier hop gallops); large values degrade long
    hops toward linear scans. *)

val default_gallop_probe : int
(** The built-in threshold ([4]): linear probes per seek before
    galloping. *)

val gallop_probe_limit : unit -> int
(** The active threshold, consulted by every cursor seek. Starts at
    {!default_gallop_probe}. *)

val set_gallop_probe : int -> unit
(** Override the active threshold (tests sweep it; the differential
    perf-guard property pins that answers do not depend on it).
    @raise Invalid_argument when negative. *)
