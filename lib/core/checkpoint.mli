(** Durable checkpoint log for root-partitioned mining runs.

    The DFS forest mined by {!Gsgrow}/{!Clogsgrow} splits into independent
    subtrees, one per frequent size-1 root — the same decomposition
    {!Parallel_miner} exploits. Version 3 of the checkpoint format is an
    {e append-only record log}: a self-describing header (magic, version,
    caller-supplied fingerprint) followed by one CRC32-framed record per
    event — a completed root with its answer, a quarantined
    root, or the run outcome. Saving after a root finishes appends one
    record, O(that root's results), instead of rewriting the whole file;
    a run killed outright ([kill -9], power loss) loses at most the record
    being appended.

    {!load} {e salvages}: it returns every intact prefix record of a
    truncated or torn log rather than raising, so crash recovery degrades
    record-by-record ({!Metrics.checkpoint_salvaged_roots} counts what was
    recovered from a torn file). [Corrupt] is reserved for files that are
    not usable at all: wrong magic, wrong version, fingerprint mismatch,
    or a header cut short.

    Record payloads use a typed little-endian varint codec
    ({!encode_record}, specified in FORMAT.md Appendix A), so a log
    written by one build resumes under another. The CRC32 frame makes a
    torn tail detectable before the codec sees it; the codec in turn
    rejects any payload that is not a canonical encoding, and the loader
    salvages such a record as torn. *)

open Rgs_sequence

type entry = {
  root : Event.t;
  results : Mined.t list;
      (** the completed root's answer, as its {!Query.collector} returned
          it *)
}

type quarantine = {
  root : Event.t;
  reason : string;  (** [Printexc.to_string] of the exception, twice fatal *)
  backtrace : string;
}

(** One log record. Later records win per root, so re-mining a quarantined
    root ({!Miner.mine_indexed} with [retry_quarantined]) simply appends
    a superseding [Root_done]. *)
type record =
  | Root_done of entry
  | Root_quarantined of quarantine
  | Run_outcome of Budget.outcome
      (** how the run ended; appended at the end of every run (latest
          wins), so a resumed-then-completed run supersedes the stop
          outcome inherited from its initial image *)

type t = {
  fingerprint : string;
  completed : entry list;  (** in first-logged order *)
  quarantined : quarantine list;
  outcome : Budget.outcome;  (** last [Run_outcome] record, or [Completed] *)
  salvaged_bytes : int;
      (** trailing bytes dropped by the salvaging loader; [0] = clean *)
}

val version : int
(** The format version written in the header line ([3]); {!load} rejects
    every other version. *)

exception Corrupt of string
(** Raised by {!load} on a missing/unreadable file, wrong magic or
    version, a header cut short, or a fingerprint mismatch — {e not} on a
    torn record tail, which is salvaged. *)

val fingerprint : params:string list -> Seqdb.t -> string
(** Digest of the result-defining mining parameters and the database
    contents (via {!Seqdb.content_digest}, so a mapped [.rgsdb] database
    answers O(1) from its sealed digest and text/store runs of one corpus
    share checkpoints). Runtime limits (deadline, node budget) must
    {e not} be part of [params]: resuming with a different budget is the
    point. *)

val load : path:string -> expected_fingerprint:string -> t
(** Salvaging load: every record of the longest intact prefix, folded into
    per-root state ([completed]/[quarantined], later records superseding
    earlier ones for the same root).
    @raise Corrupt as documented on the exception. *)

val load_opt : path:string -> expected_fingerprint:string -> t option
(** [None] when the file does not exist; {!load} otherwise. *)

val records_of : t -> record list
(** A loaded checkpoint as the record list that reproduces it — the
    [?initial] image for {!Writer.create} when resuming. *)

val write :
  ?outcome:Budget.outcome ->
  path:string ->
  fingerprint:string ->
  completed:entry list ->
  quarantined:quarantine list ->
  unit ->
  unit
(** Whole-file convenience: create a writer with all records and close it.
    For incremental per-root saves use {!Writer} directly. *)

val sweep_stale_temps : string -> unit
(** Remove leftover [rgs-ckpt*.tmp] files in a directory — temp files a
    killed process never got to rename. {!Writer.create} calls this for
    the checkpoint's directory before creating its own temp. *)

val encode_record : record -> string
(** The payload of one record frame (FORMAT.md Appendix A), exposed for
    tests and fixture generation. *)

val decode_record : string -> record
(** Inverse of {!encode_record} on canonical payloads:
    [encode_record (decode_record s) = s] whenever it returns.
    @raise Invalid_argument on anything else — an unknown tag or outcome
    code, a varint that {!Rgs_sequence.Wire.get_uint} refuses (truncated,
    overlong, or at or above [2^62]), a count larger than the bytes left,
    or trailing bytes. *)

(** Incremental appender. Physical writes never raise: each one is
    retried with exponential backoff and deterministic jitter
    ({!Metrics.checkpoint_io_retries}, [Checkpoint_retry] trace instants)
    and then abandoned ({!Metrics.checkpoint_io_failures}) so a full disk
    degrades checkpoint durability, not the mining run. A failed write
    leaves the file flagged dirty; the next attempt first truncates back
    to the last whole record, so a torn tail can never be followed by
    live records the salvaging loader would miss. Every write is fsynced.
    The [Budget.Fault.Checkpoint_io] site fires before each physical
    attempt. [append] is mutex-serialised — pool workers log roots as
    they finish. *)
module Writer : sig
  type w

  val create :
    ?attempts:int ->
    ?backoff_s:float ->
    ?trace:Trace.t ->
    ?initial:record list ->
    path:string ->
    fingerprint:string ->
    unit ->
    w
  (** Atomically replace [path] with a fresh log holding [initial]
      (default empty) via temp-file + rename, keeping the channel open for
      appends; sweeps stale temps first. [attempts] (default 4) bounds the
      tries per physical write; [backoff_s] (default 0.01) is the first
      retry's base delay, doubling per attempt with jitter in
      [0.5x, 1.5x]. On persistent failure the writer is created unhealthy
      and appends are no-ops (the run still mines). *)

  val healthy : w -> bool
  (** The log file is open and the last create/append round succeeded. *)

  val append : w -> record -> unit
  (** Append one CRC32-framed record, retrying as documented; thread-safe. *)

  val close : w -> unit
end
