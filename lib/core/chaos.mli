(** Deterministic chaos harness over the {!Budget.Fault} sites.

    A {e fault plan} is a small seeded recipe — which site kind to attack,
    after how many firings, and whether the fault is transient (one shot)
    or persistent — generated reproducibly from a seed by {!plans}. The
    harness installs the plan as the process fault hook ({!inject}) and
    the sweep asserts the resilience invariant the runtime promises:

    {e mined output restricted to non-quarantined roots equals the
    fault-free run} ({!check_invariant}), and no injected fault ever
    escapes a {!Miner} run (with [domains] or a checkpoint) as an
    uncaught exception.

    Transient faults must be fully absorbed (retry recovers the root, the
    output is byte-identical); persistent faults may cost quarantined
    roots but never patterns of surviving roots, and [Checkpoint_io]
    faults may never change mined output at all — they only degrade
    checkpoint durability.

    Everything is deterministic given the seed: the generator is an
    inline splitmix64, and no wall-clock or global randomness is
    consulted. *)

type site_kind =
  | Insgrow  (** {!Budget.Fault.Insgrow}: crash inside a root's DFS *)
  | Worker  (** {!Budget.Fault.Worker}: crash at a root claim/retry *)
  | Checkpoint_io
      (** {!Budget.Fault.Checkpoint_io}: fail a physical checkpoint
          write (ENOSPC/EIO stand-in) *)
  | Socket_write
      (** {!Budget.Fault.Socket_write}: fail a daemon response-frame
          write (EPIPE/ECONNRESET stand-in) *)
  | Shard_merge
      (** {!Budget.Fault.Shard_merge}: cancel a sharded growth pass
          between the per-shard grows and the combine (mid-merge
          cancellation) *)

type plan = {
  id : int;  (** position in the generated sweep *)
  kind : site_kind;
  trigger : int;  (** inject at the [trigger]-th matching firing (1-based) *)
  persistent : bool;
      (** [true]: every firing from [trigger] on fails (poison root /
          dead disk); [false]: exactly one firing fails (transient blip) *)
}

exception Injected of plan
(** The fault raised by an active plan. Deliberately {e not} a
    [Budget.Stop]: it exercises the crash-isolation path, not the
    cooperative-stop path. *)

val pp_plan : Format.formatter -> plan -> unit

val splitmix : int64 ref -> int
(** One splitmix64 step: advances the state and returns a non-negative
    draw. The generator behind every plan here and the supervisor's
    backoff jitter. *)

val plans : ?kinds:site_kind list -> seed:int -> count:int -> unit -> plan list
(** [count] plans drawn deterministically from [seed], cycling through
    [kinds] (default: [Insgrow], [Worker] and [Checkpoint_io];
    [Shard_merge] only fires in sharded runs, whose sweeps ask for it,
    and [Socket_write] is daemon-side and attacked through {!job_plans})
    so every site kind is
    attacked, with pseudo-random triggers in [1, 8] and a
    persistent/transient mix. *)

val inject : plan -> (unit -> 'a) -> 'a
(** Run a thunk with the plan installed as the {!Budget.Fault} hook
    (firing counter starts at zero). The counter is atomic, so plans
    behave under pool parallelism; with more than one domain the {e root}
    hit by the nth firing may vary, which the invariant is insensitive
    to. Not reentrant — plans do not compose with an already-installed
    hook. *)

(** {2 Job-level plans}

    Whole-scenario fault recipes for the mining daemon ({!Rgs_server}):
    instead of one crashing call site, a job plan names a failure mode of
    the serving path — a client that vanishes mid-job, a second submission
    of a live job id, a response write that fails, a kill -9 landing
    mid-drain. The daemon test harness interprets each site (it owns the
    sockets and processes); the invariant asserted is the same as above —
    after recovery, the daemon's output for the job modulo quarantined
    roots equals a fault-free batch run. *)

type job_site =
  | Client_disconnect  (** abruptly close the client socket mid-job *)
  | Overlapping_resume
      (** submit the same job id again while the first run is live *)
  | Socket_write_fail
      (** fail a daemon response write ({!Budget.Fault.Socket_write}) *)
  | Kill_mid_drain
      (** SIGTERM the daemon, then kill -9 before the drain finishes *)

type job_plan = {
  jid : int;  (** position in the generated sweep *)
  site : job_site;
  delay : int;
      (** scenario pacing knob in [1, 8] — the harness scales it into a
          trigger count ([Socket_write_fail]) or a delay before striking *)
}

val job_site_name : job_site -> string
val pp_job_plan : Format.formatter -> job_plan -> unit

val job_plans :
  ?sites:job_site list -> seed:int -> count:int -> unit -> job_plan list
(** [count] job plans drawn deterministically from [seed], cycling through
    [sites] (default: all four) with pseudo-random delays in [1, 8]. *)

val fault_plan_of_job : job_plan -> plan option
(** The {!plan} to {!inject} while the scenario runs: [Socket_write_fail]
    maps to a transient {!Socket_write} plan triggered at the [delay]-th
    write; the other sites are enacted by the harness itself ([None]). *)

(** {2 Process-level plans}

    Fault recipes for supervised shard {e worker processes}
    ([Supervisor] in [lib/server/], the [@supervise] tier). These fire
    inside a separate process, so they travel as an environment
    variable instead of a [Budget.Fault] hook: the harness serialises a
    plan with {!worker_fault_to_string} into {!worker_fault_env}, and
    the worker arms it at startup with {!worker_fault_of_string}.
    Transient plans arm only in the worker's first incarnation — the
    supervisor exports the restart generation in {!worker_restart_env}
    and replacement workers see a non-zero value — so one restart
    recovers; persistent plans re-fire in every incarnation until the
    restart budget quarantines the shard (whose part the supervisor
    then computes in-process, keeping output byte-identical). *)

type proc_site =
  | Proc_kill  (** [kill -9] self mid-shard (segfault-class crash) *)
  | Proc_hang
      (** stop heartbeating and sleep forever (livelock / stuck I/O);
          detected by the liveness deadline *)
  | Proc_corrupt
      (** reply with a garbage frame (CRC mismatch / torn write);
          detected by the frame CRC *)
  | Proc_slow
      (** delay every reply while still heartbeating — {e not} a fault:
          the supervisor must tolerate it without a restart *)

type proc_plan = {
  wid : int;  (** position in the generated sweep *)
  psite : proc_site;
  after : int;  (** fire on the [after]-th growth request (1-based) *)
  persist : bool;
      (** [true]: every incarnation re-arms the fault (crashy shard —
          ends in quarantine); [false]: first incarnation only (one
          restart recovers) *)
}

val proc_site_name : proc_site -> string
val pp_proc_plan : Format.formatter -> proc_plan -> unit

val proc_plans :
  ?sites:proc_site list -> seed:int -> count:int -> unit -> proc_plan list
(** [count] process plans drawn deterministically from [seed], cycling
    through [sites] (default: all four) with pseudo-random trigger
    counts in [1, 4] and a persistent/transient mix. *)

val worker_fault_env : string
(** Environment variable carrying a serialised plan into a worker
    process (["RGS_WORKER_FAULT"]). *)

val worker_restart_env : string
(** Environment variable carrying the worker's restart generation
    (["RGS_WORKER_RESTART"]): [0] in the first incarnation, the restart
    count afterwards. Transient plans only arm at generation 0. *)

val worker_fault_to_string : proc_plan -> string
(** Serialise for {!worker_fault_env}: ["kill:3"], ["corrupt:1:persist"],
    ... *)

val worker_fault_of_string : string -> (proc_site * int * bool) option
(** Parse a {!worker_fault_to_string} value back into [(site, after,
    persist)]; [None] on anything malformed (a worker ignores garbage
    rather than dying to it). *)

val check_invariant :
  baseline:Mined.t list ->
  faulty:Mined.t list ->
  quarantined:int ->
  (unit, string) result
(** The chaos invariant. Groups both result lists by DFS root (a mined
    pattern's first event) and checks that every root's group is either
    {e identical} to the baseline's (patterns, order and supports) or
    {e entirely absent}, that no root appears only in the faulty run, and
    that the number of absent roots equals [quarantined]. [Error]
    carries a human-readable diagnosis for the failing root. *)
