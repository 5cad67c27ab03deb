(** The [.rgsdb] zero-copy binary store.

    A packed store serializes a sequence database — interned alphabet,
    concatenated event stream, and the inverted index's event-major run
    table — into the versioned, CRC-guarded section file specified
    normatively in FORMAT.md. {!open_store} maps the sections read-only
    with [Unix.map_file]: opening costs header + section-table
    validation only (milliseconds, independent of corpus size), the
    mapped pages are physically shared across {!Rgs_sequence} pool
    domains and across processes (daemon restarts re-open the same page
    cache), and {!Seqdb.of_store} / {!Inverted_index.build} consume the
    sections without copying.

    Every structural defect detected at open raises {!Invalid_store}
    carrying the FORMAT.md clause the file violates; payload corruption
    is caught by {!verify} (section CRCs), which opens defer by default
    so open time stays O(1) in the corpus (FORMAT.md §3.5). *)

open Rgs_sequence

type error = {
  clause : string;  (** the violated FORMAT.md clause, e.g. ["§3.2"] *)
  reason : string;  (** human-readable detail *)
}

exception Invalid_store of error
(** A file that is not a usable [.rgsdb] store. The raising paths bump
    {!Metrics.store_crc_failures} when the defect is a failed CRC. *)

val error_message : error -> string
(** ["FORMAT.md §x.y: reason"] — the one-line form the CLIs print. *)

type t
(** An open store: the mapped sections plus decoded metadata. The
    mapping lives until the value is garbage-collected; every [Seqdb.t]
    or index built from it keeps it alive. *)

val write : ?codec:Codec.t -> path:string -> Seqdb.t -> unit
(** [write ~path db] packs [db] (and its event-name codec, when given)
    into a fresh store at [path], written atomically and durably (temp
    file, fsync, rename, best-effort directory fsync). The output is a pure function of the database content and
    codec — packing the same corpus twice yields byte-identical files.
    The index run table is built here, at pack time, so opens never
    build it. *)

val open_store : ?verify:bool -> ?trace:Trace.t -> string -> t
(** Map the store at the given path and validate its framing: magic,
    version, flags, header CRC, declared file size, section-table CRC,
    section bounds and alignment, and the section shapes (FORMAT.md §2,
    §3). With [~verify:true] every section payload CRC is checked too,
    as {!verify} does. Records one [Trace.Store_map] instant and feeds
    the [store_opens] / [store_open_ns] / [store_mapped_words] metrics.
    @raise Invalid_store on any violation. *)

val db : t -> Seqdb.t
(** The store-backed database (one shared {!Seqdb.t} per open store):
    sequences materialise lazily, and the inverted index uses the mapped
    run-table sections zero-copy. *)

val codec : t -> Codec.t option
(** The event-name codec packed in the NAME section, when present —
    mining output printed through it is byte-identical to the tokens
    text path. *)

val digest : t -> string
(** Hex MD5 content digest sealed in the header at pack time; equals
    [Seqdb.content_digest (db t)] in O(1). *)

val mapped_words : t -> int
(** Total words of mapped integer-section payloads (the
    [store_mapped_words] gauge value this open contributed). *)

val path : t -> string

val sections : t -> (string * int) list
(** [(tag, payload words)] per section, in file order — for [pack]'s
    summary output and tests. *)

val verify : ?trace:Trace.t -> t -> unit
(** Re-read every {e recognised} section payload from the mapping and
    check it against the section table's CRC-32 (FORMAT.md §3.5).
    Unknown sections are skipped wholesale — their table offsets are
    unconstrained and never dereferenced (FORMAT.md §3.6). Bumps
    [store_crc_checks] per checked section and records
    [Trace.Store_crc] instants.
    @raise Invalid_store (clause §3.5) on the first mismatch. *)

val open_db : ?verify:bool -> ?trace:Trace.t -> string -> Seqdb.t * Codec.t option
(** [open_store] + [db] + [codec] in one call — the CLI entry. *)
