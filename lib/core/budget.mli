(** Resource budgets and cooperative cancellation for the mining DFS.

    GSgrow's search (Algorithm 3) is exponential in the worst case, and the
    paper's own experiments (Sec. V) show runtime exploding as [min_sup]
    drops. A service answering arbitrary queries therefore needs the miner
    to degrade gracefully: every run carries a {!t} that is {!check}ed once
    per DFS node, and stops the search — keeping the results mined so far —
    when a wall-clock deadline passes, a DFS-node budget is spent, a GC
    heap-words ceiling is crossed, or the caller {!cancel}s from another
    domain.

    A budget may be shared by several domains ({!Parallel_miner}): the node
    counter and the cancellation flag are atomic. *)

type outcome =
  | Completed  (** the search ran to the end *)
  | Truncated  (** a [max_patterns] or DFS-node budget stopped it *)
  | Deadline_exceeded  (** the wall-clock deadline passed *)
  | Memory_limit  (** the GC heap-words ceiling was crossed *)
  | Cancelled  (** {!cancel} was called *)
  | Interrupted
      (** a {!request_shutdown} (typically a SIGINT/SIGTERM handler) asked
          the run to stop; results mined so far are returned and a final
          checkpoint record is written before the process exits *)
  | Worker_failed
      (** at least one parallel root raised and failed its retry; the
          surviving roots' results are still returned *)

exception Stop of outcome
(** Raised by {!check}; the mining loops catch it, record the reason and
    return partial results. [Stop Completed] is never raised. *)

type t

val create :
  ?deadline_s:float -> ?max_nodes:int -> ?max_words:int -> unit -> t
(** [create ()] is an unlimited budget. [deadline_s] is relative seconds
    from now; [max_nodes] bounds the number of {!check} calls (DFS nodes);
    [max_words] bounds [Gc.(quick_stat ()).heap_words]. *)

val check : t -> unit
(** Counts one DFS node and raises [Stop reason] when any limit is hit or
    the budget was cancelled. Cheap enough for the DFS hot loop: one atomic
    increment, one clock read and one [Gc.quick_stat] (only when the
    corresponding limit is set). *)

val cancel : t -> unit
(** Cooperative cancellation; safe from any domain. The next {!check}
    raises [Stop Cancelled]. *)

val cancelled : t -> bool
val nodes : t -> int
(** DFS nodes counted so far (across all domains sharing the budget). *)

(** {2 Graceful shutdown}

    A single process-global flag, separate from per-run {!cancel}: a signal
    handler cannot know which budgets are live, so it sets the flag and
    every budget's next {!check} raises [Stop Interrupted]. *)

val request_shutdown : unit -> unit
(** Ask every in-flight budgeted run to stop at its next {!check}.
    Async-signal-safe (one atomic store). *)

val shutdown_requested : unit -> bool
val reset_shutdown : unit -> unit
(** Clear the flag — tests, and long-lived callers embedding several runs. *)

val install_signal_handlers : unit -> unit
(** Route SIGINT and SIGTERM to {!request_shutdown} and remember that
    handlers are installed ({!signals_installed}), which makes
    {!Miner.mine}/{!Miner.mine_indexed} create a budget even when no
    explicit limit is configured, so the flag is actually polled. *)

val signals_installed : unit -> bool

val severity : outcome -> int
(** [Completed] = 0 rising to [Worker_failed] = 6. *)

val combine : outcome -> outcome -> outcome
(** Most severe of the two — merging per-root outcomes into a run
    outcome. *)

val is_stop : outcome -> bool
(** Everything except [Completed]. *)

val to_string : outcome -> string
val pp : Format.formatter -> outcome -> unit

(** Deterministic fault injection, for tests. A single process-global hook
    fired from instrumented sites inside the miners; the hook may raise to
    simulate a crash at that site. Reading the hook is one atomic load, so
    production runs (hook unset) pay next to nothing. *)
module Fault : sig
  type site =
    | Insgrow  (** fired once per instance-growth call in the DFS *)
    | Worker of int  (** fired by a pool worker as it claims root [i] *)
    | Checkpoint_io
        (** fired before every physical checkpoint write
            ([Checkpoint.Writer] header and record appends); raising here
            simulates ENOSPC/EIO and exercises the retry/degrade path *)
    | Socket_write
        (** fired by the daemon ({!Rgs_server}) before every response
            frame write; raising here simulates EPIPE/ECONNRESET and
            exercises the client-shedding path *)
    | Shard_merge
        (** fired in the middle of a sharded growth pass
            ([Shard_merge.grow]), between the per-shard INSgrow calls and
            the [Support_set.combine] merge; raising here simulates a
            mid-merge cancellation *)

  val site_name : site -> string
  (** Stable lowercase class name (["worker"] for every [Worker _]) —
      {!Chaos} keys its fault plans on it. *)

  val set : (site -> unit) -> unit
  val clear : unit -> unit

  val fire : site -> unit
  (** Called by the miners; no-op when no hook is set. *)

  val with_hook : (site -> unit) -> (unit -> 'a) -> 'a
  (** [with_hook h f] installs [h], runs [f], and always clears the hook. *)
end
