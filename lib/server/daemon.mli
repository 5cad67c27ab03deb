(** The [rgsminerd] serving loop: a fault-tolerant, long-running mining
    service over a Unix-domain socket.

    Architecture: one event-loop domain owns every socket — it accepts
    connections, parses request frames incrementally, answers admission
    decisions, and streams completed jobs' result frames — while
    [config.workers] pool domains pull admitted jobs from the
    {!Scheduler} and run each one through {!Miner.mine} with a
    fresh per-job {!Budget} (request limits clamped by the server-wide
    {!Job.limits}) and a per-job durable checkpoint log under
    [config.state_dir]. Workers hand finished jobs back to the event loop
    over an in-process queue plus a self-pipe, so all socket writes stay
    on one domain.

    Robustness properties, each exercised by the daemon test suite:

    - {b Admission control}: the pending queue is bounded; beyond it,
      submissions get a typed [Overloaded] response in bounded time and
      in-flight jobs are undisturbed. Dispatch is round-robin across
      clients.
    - {b Crash isolation}: a job that crashes — a poison root, a corrupt
      checkpoint, an undecodable database — is answered with a typed
      response; the daemon itself keeps serving.
    - {b Disconnect detection}: a vanished client (EOF, or any failed
      response write, including injected {!Budget.Fault.Socket_write}
      faults) has its queued jobs dropped and its running jobs' budgets
      cancelled, releasing pool slots promptly. A client that stops
      reading is shed once a response write blocks for 10 s; results
      travel in frames of 512 patterns.
    - {b Durability}: each job's completed roots are checkpointed as they
      finish; resubmitting a job id — after a disconnect, a drain, or a
      daemon kill -9 and restart — resumes instead of restarting, and
      finishes with output identical to an uninterrupted run.
    - {b Graceful drain}: SIGTERM (or {!request_drain}) stops admission,
      lets in-flight jobs finish for [config.drain_grace_s], then cancels
      the stragglers — their final checkpoint records ([Run_outcome])
      are still appended — and {!serve} returns 130 if the drain
      interrupted or dropped any job, 0 on a clean drain.
    - {b Idle watchdog}: with [config.idle_timeout_s] set, a running job
      whose budget node count stops advancing for that long is cancelled
      ([stopped_by = "watchdog"]) so a wedged job cannot hold a pool slot
      forever.

    Observability: [Stats] requests answer with a metrics frame at any
    time, and [config.stats_path] enables a periodic {!Stats_dump}. *)

type config = {
  socket_path : string;  (** Unix-domain socket to listen on *)
  state_dir : string;  (** per-job checkpoint logs live here *)
  queue_capacity : int;  (** bounded pending queue (default 16) *)
  workers : int;  (** pool domains running jobs (default 2) *)
  limits : Job.limits;  (** server-wide clamps on per-job budgets *)
  idle_timeout_s : float option;  (** idle-watchdog threshold (default off) *)
  drain_grace_s : float;  (** drain grace before force-cancel (default 5) *)
  stats_path : string option;  (** periodic stats dump target (default off) *)
  stats_interval_s : float;  (** dump period (default 10) *)
  tick_s : float;
      (** event-loop tick: drain/watchdog latency bound (default 0.05) *)
  shard_workers : int option;
      (** run each job's instance growths in this many supervised
          [rgsworker] processes ({!Supervisor}), one per database shard
          ({!Shard_merge}): crash-isolated, heartbeat-monitored,
          restarted with backoff, degrading to in-process growth when
          spawning fails — a server-wide deployment knob, invisible in
          job output and checkpoints (default in-process, unsharded) *)
}

val config :
  ?queue_capacity:int ->
  ?workers:int ->
  ?limits:Job.limits ->
  ?idle_timeout_s:float ->
  ?drain_grace_s:float ->
  ?stats_path:string ->
  ?stats_interval_s:float ->
  ?tick_s:float ->
  ?shard_workers:int ->
  socket_path:string ->
  state_dir:string ->
  unit ->
  config
(** Smart constructor with the defaults above.
    @raise Invalid_argument on non-positive sizes or timeouts. *)

type t

val create : config -> t
(** Create the state directory if needed, bind and listen on
    [socket_path], and set up the worker plumbing. A leftover socket
    file at the path is {e probed} first: one nobody answers on (a
    previous daemon crashed before unlinking it) is removed and
    replaced; one a live daemon still serves raises
    [Unix.Unix_error (EADDRINUSE, "bind", path)] instead of silently
    hijacking it, and a non-socket file at the path is never deleted.
    Clients may connect as soon as [create] returns; their requests are
    processed once {!serve} runs.
    @raise Unix.Unix_error when binding fails or the socket is live. *)

val serve : t -> int
(** Run the event loop until a drain completes. Returns the process exit
    code: [0] for a clean drain, [130] when the drain interrupted or
    dropped jobs. Call from the domain that should own the sockets; tests
    run it in a spawned domain. *)

val request_drain : t -> unit
(** Begin a graceful drain: stop admitting, finish or cancel in-flight
    jobs, then make {!serve} return. Async-signal-safe (one atomic
    store); this is what the SIGTERM handler calls. Idempotent. *)

val run : config -> int
(** [create], install SIGTERM/SIGINT handlers that {!request_drain} (and
    ignore SIGPIPE — broken clients must surface as [EPIPE] writes, not
    process death), then {!serve}. The [rgsminerd] binary is a thin
    wrapper over this. *)
