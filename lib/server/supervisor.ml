open Rgs_sequence
open Rgs_core

let log_src = Logs.Src.create "rgs.supervisor" ~doc:"Shard worker supervision"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  shards : int;
  heartbeat_ms : int;
  liveness_timeout_s : float;
  restart_budget : int;
  flap_budget : int;
  backoff_base_ms : int;
  backoff_max_ms : int;
  seed : int;
  gap : (int * int) option;
  worker_exe : string option;
  worker_env : (string * string) list;
}

let config ?(heartbeat_ms = 50) ?(liveness_timeout_s = 5.0)
    ?(restart_budget = 3) ?flap_budget ?(backoff_base_ms = 10)
    ?(backoff_max_ms = 500) ?(seed = 0) ?gap ?worker_exe ?(worker_env = [])
    ~shards () =
  if shards < 1 then invalid_arg "Supervisor.config: shards must be >= 1";
  if heartbeat_ms < 1 then
    invalid_arg "Supervisor.config: heartbeat_ms must be >= 1";
  if liveness_timeout_s <= 0.0 then
    invalid_arg "Supervisor.config: liveness_timeout_s must be > 0";
  if restart_budget < 0 then
    invalid_arg "Supervisor.config: restart_budget must be >= 0";
  if backoff_base_ms < 0 || backoff_max_ms < backoff_base_ms then
    invalid_arg "Supervisor.config: backoff window must be 0 <= base <= max";
  let flap_budget =
    match flap_budget with
    | Some b ->
      if b < 0 then invalid_arg "Supervisor.config: flap_budget must be >= 0";
      b
    | None -> max 4 (shards * (restart_budget + 1))
  in
  {
    shards;
    heartbeat_ms;
    liveness_timeout_s;
    restart_budget;
    flap_budget;
    backoff_base_ms;
    backoff_max_ms;
    seed;
    gap;
    worker_exe;
    worker_env;
  }

type proc = { pid : int; conn : Shard_worker.conn }

type worker = {
  shard : int;
  lo : int;
  hi : int;
  lock : Mutex.t;
  mutable proc : proc option;
  mutable attempts : int;  (* failed incarnations so far *)
  mutable quarantined : bool;
  mutable grows : int;  (* requests served by the current incarnation *)
  mutable span_start : int;  (* Trace.now at the current spawn *)
  held : Support_set.t option array;
      (* what this supervisor placed in each of the incarnation's slots *)
  last_use : int array;  (* per slot, [tick] at its last use; 0 = empty *)
  mutable tick : int;
}

type t = {
  cfg : config;
  trace : Trace.t;
  digest : string;
  ranges : (int * int) array;
  exe : string option;
  store : string option;
  temp_store : bool;
  workers : worker array;
  degraded : bool Atomic.t;
  closed : bool Atomic.t;
  spawns : int Atomic.t;
  total_restarts : int Atomic.t;
  req_counter : int Atomic.t;
}

(* --- resolution of the worker executable and the shared store --- *)

let default_worker_exe () =
  match Sys.getenv_opt "RGS_WORKER_EXE" with
  | Some p -> if Sys.file_exists p then Some p else None
  | None ->
    let dir = Filename.dirname Sys.executable_name in
    List.find_opt Sys.file_exists
      [ Filename.concat dir "rgsworker.exe"; Filename.concat dir "rgsworker" ]

let resolve_exe cfg =
  match cfg.worker_exe with
  | Some p -> if Sys.file_exists p then Some p else None
  | None -> default_worker_exe ()

let resolve_store ?store db =
  match store with
  | Some p when Sys.file_exists p -> Some (p, false)
  | _ -> (
    (* pack a temporary store so workers can map the database; any
       failure here (read-only tmp, full disk) degrades instead of
       raising — supervision is best-effort by design *)
    match
      let path = Filename.temp_file "rgs_supervisor" ".rgsdb" in
      Rgs_store.Store.write ~path db;
      path
    with
    | path -> Some (path, true)
    | exception _ -> None)

(* --- deterministic backoff jitter (splitmix64, as in [Chaos]) --- *)

let splitmix state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 31)) land max_int

let backoff_s t w =
  let attempt = w.attempts in
  let expo = t.cfg.backoff_base_ms * (1 lsl min 16 (attempt - 1)) in
  let capped = min t.cfg.backoff_max_ms expo in
  (* jitter in [0.5, 1.5) of the capped delay, deterministic per
     (seed, shard, attempt) so chaos sweeps replay exactly *)
  let state = ref (Int64.of_int (t.cfg.seed + (w.shard * 1000003) + attempt)) in
  let jitter = 0.5 +. (float_of_int (splitmix state mod 1024) /. 1024.0) in
  float_of_int capped /. 1000.0 *. jitter

(* --- lifecycle --- *)

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error _ -> ()

(* --- the slot table: the supervisor's exact mirror of the parent
   slices the live incarnation holds (Shard_worker's slots). Call these
   with [w.lock] held. A fresh incarnation holds nothing, so every spawn
   and teardown forgets the whole table. *)

let forget_slots w =
  Array.fill w.held 0 Shard_worker.slots None;
  Array.fill w.last_use 0 Shard_worker.slots 0

(* The slot and payload for shipping slice [s]: the slot already holding
   physically the same groups when there is one (and [inline] is not
   forced), else the least recently used slot, refilled inline. *)
let place w s ~inline =
  w.tick <- w.tick + 1;
  let hit = ref (-1) in
  if not inline then
    Array.iteri
      (fun k h ->
        match h with
        | Some h when !hit < 0 && Support_set.same_groups h s -> hit := k
        | _ -> ())
      w.held;
  if !hit >= 0 then begin
    w.last_use.(!hit) <- w.tick;
    Metrics.hit Metrics.worker_slot_hits;
    (!hit, Shard_worker.Held)
  end
  else begin
    let victim = ref 0 in
    Array.iteri (fun k u -> if u < w.last_use.(!victim) then victim := k) w.last_use;
    w.held.(!victim) <- Some s;
    w.last_use.(!victim) <- w.tick;
    (!victim, Shard_worker.Inline s)
  end

(* record the incarnation's lifetime span, kill it, reap it *)
let teardown t w p =
  Trace.span t.trace Trace.Proc_worker ~a0:w.shard ~a1:w.grows
    ~start:w.span_start;
  (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try Unix.close (Shard_worker.fd p.conn) with Unix.Unix_error _ -> ());
  reap p.pid;
  forget_slots w;
  w.proc <- None

let degrade t ~reason =
  if not (Atomic.exchange t.degraded true) then begin
    Metrics.observe_max Metrics.supervisor_degraded 1;
    Log.warn (fun m ->
        m "degrading to in-process, unsharded growth: %s (output is unchanged)"
          reason)
  end

let quarantine t w ~reason =
  if not w.quarantined then begin
    w.quarantined <- true;
    Metrics.hit Metrics.shard_quarantines;
    Log.warn (fun m ->
        m "shard %d quarantined after %d failed incarnation(s): %s \
           (computing it in-process from now on)"
          w.shard w.attempts reason);
    if Array.for_all (fun w -> w.quarantined) t.workers then
      degrade t ~reason:"every shard is quarantined"
  end

(* account one failed incarnation; decides restart vs quarantine vs
   global degradation. Call with [w.lock] held and [w.proc = None]. *)
let note_failure t w ~reason =
  Metrics.hit Metrics.worker_restarts;
  w.attempts <- w.attempts + 1;
  let total = 1 + Atomic.fetch_and_add t.total_restarts 1 in
  Log.warn (fun m ->
      m "shard %d worker failed (%s); failure %d/%d for the shard, %d/%d \
         globally"
        w.shard reason w.attempts
        (t.cfg.restart_budget + 1)
        total t.cfg.flap_budget);
  if total > t.cfg.flap_budget then
    degrade t ~reason:"workers are flapping (global restart budget spent)"
  else if w.attempts > t.cfg.restart_budget then quarantine t w ~reason

let env_with overrides =
  let keys = List.map fst overrides in
  let keep e =
    match String.index_opt e '=' with
    | Some i -> not (List.mem (String.sub e 0 i) keys)
    | None -> true
  in
  Array.append
    (Array.of_seq (Seq.filter keep (Array.to_seq (Unix.environment ()))))
    (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) overrides))

let spawn t w =
  match (t.exe, t.store) with
  | None, _ -> Error "no worker executable"
  | _, None -> Error "no shared store"
  | Some exe, Some store -> (
    let parent, child = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.set_close_on_exec parent;
    let args =
      [|
        exe;
        "--store"; store;
        "--lo"; string_of_int w.lo;
        "--hi"; string_of_int w.hi;
        "--heartbeat-ms"; string_of_int t.cfg.heartbeat_ms;
      |]
    in
    let env =
      env_with
        ((Chaos.worker_restart_env, string_of_int w.attempts)
        :: t.cfg.worker_env)
    in
    match Unix.create_process_env exe args env child child Unix.stderr with
    | exception e ->
      (try Unix.close parent with Unix.Unix_error _ -> ());
      (try Unix.close child with Unix.Unix_error _ -> ());
      Error (Printexc.to_string e)
    | pid ->
      Unix.close child;
      Unix.setsockopt_float parent Unix.SO_RCVTIMEO t.cfg.liveness_timeout_s;
      Atomic.incr t.spawns;
      Metrics.hit Metrics.worker_spawns;
      w.grows <- 0;
      w.span_start <- Trace.now t.trace;
      let fail reason =
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try Unix.close parent with Unix.Unix_error _ -> ());
        reap pid;
        Trace.span t.trace Trace.Proc_worker ~a0:w.shard ~a1:0
          ~start:w.span_start;
        Error reason
      in
      (* handshake: [Ready] is the worker's first frame, sent before its
         index build, so this read is bounded by exec + store-map time *)
      let conn = Shard_worker.conn parent in
      (match Shard_worker.read_from_worker conn with
      | Some (Shard_worker.Ready { lo; hi; digest })
        when lo = w.lo && hi = w.hi && digest = t.digest ->
        forget_slots w;
        w.proc <- Some { pid; conn };
        Log.debug (fun m -> m "shard %d: worker pid %d ready" w.shard pid);
        Ok ()
      | Some (Shard_worker.Ready _) ->
        fail "handshake mismatch (wrong range or database digest)"
      | Some _ -> fail "unexpected first frame"
      | None -> fail "worker exited before handshake"
      | exception Protocol.Protocol_error msg -> fail ("handshake: " ^ msg)
      | exception Wire.Timeout -> fail "handshake: read timeout"
      | exception Unix.Unix_error (e, _, _) ->
        fail ("handshake: " ^ Unix.error_message e)))

(* make the shard's worker live, restarting through the backoff/budget
   machinery as needed. Call with [w.lock] held. [false] = the shard is
   quarantined or the supervisor degraded: compute in-process. *)
let rec ensure t w =
  if w.quarantined || Atomic.get t.degraded || Atomic.get t.closed then false
  else
    match w.proc with
    | Some _ -> true
    | None -> (
      if w.attempts > 0 then begin
        let d = backoff_s t w in
        if d > 0.0 then
          try Unix.sleepf d with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      end;
      match spawn t w with
      | Ok () -> true
      | Error reason ->
        note_failure t w ~reason;
        ensure t w)

(* a detected failure of the live incarnation: tear down + account *)
let restart t w ~reason =
  (match w.proc with Some p -> teardown t w p | None -> ());
  note_failure t w ~reason

let await t w p ~req =
  let rec go () =
    match Shard_worker.read_from_worker p.conn with
    | Some Shard_worker.Heartbeat -> go ()
    | Some (Shard_worker.Grown { req = r; part }) when r = req -> Ok part
    | Some (Shard_worker.Grown _) -> Error "stale reply frame"
    | Some (Shard_worker.Failed { req = r; reason }) when r = req ->
      Error ("worker-side failure: " ^ reason)
    | Some (Shard_worker.Failed _) -> Error "stale failure frame"
    | Some (Shard_worker.Ready _) -> Error "unexpected handshake frame"
    | None -> Error "worker exited (EOF)"
    | exception Wire.Timeout ->
      Metrics.hit Metrics.worker_heartbeats_missed;
      Error
        (Printf.sprintf "liveness timeout (no heartbeat within %gs)"
           t.cfg.liveness_timeout_s)
    | exception Protocol.Protocol_error msg -> Error ("corrupt reply frame: " ^ msg)
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  ignore w;
  go ()

(* send one [Grow] for slice [s]; a resend ([inline]) always ships the
   slice itself *)
let send_grow t w p s ~event ~inline =
  let req = Atomic.fetch_and_add t.req_counter 1 in
  let slot, slice = place w s ~inline in
  Shard_worker.write_to_worker p.conn
    (Shard_worker.Grow { req; event; gap = t.cfg.gap; slot; slice });
  req

(* one request against one shard, with restart + resend on failure.
   Call with [w.lock] held; [sent] carries the fan-out phase's request id
   when the send already happened. [None] = compute this part in-process. *)
let rec exchange t w s ~event ~sent =
  if w.quarantined || Atomic.get t.degraded || Atomic.get t.closed then None
  else if not (ensure t w) then None
  else begin
    let p = match w.proc with Some p -> p | None -> assert false in
    let outcome =
      match sent with
      | Some req -> await t w p ~req
      | None -> (
        match send_grow t w p s ~event ~inline:true with
        | req -> await t w p ~req
        | exception Unix.Unix_error (e, _, _) ->
          Error ("send: " ^ Unix.error_message e)
        | exception Protocol.Protocol_error msg -> Error ("send: " ^ msg))
    in
    match outcome with
    | Ok part ->
      w.grows <- w.grows + 1;
      Some part
    | Error reason ->
      restart t w ~reason;
      exchange t w s ~event ~sent:None
  end

(* --- the dispatch closure handed to [Shard_merge] --- *)

let dispatch t : Shard_merge.dispatch =
 fun ~ranges base idx s e ->
  let n = Array.length ranges in
  if
    Atomic.get t.closed || Atomic.get t.degraded || ranges <> t.ranges
    (* a layout this supervisor was not built for: serve it in-process
       rather than ship slices to workers holding different shards *)
  then begin
    (* one unsharded grow, cut back into the layout's parts *)
    let whole = base idx s e in
    Array.map (fun (lo, hi) -> Support_set.slice whole ~lo ~hi) ranges
  end
  else begin
    let slices =
      Array.init n (fun i ->
          let lo, hi = ranges.(i) in
          Support_set.slice s ~lo ~hi)
    in
    (* Fan out: take every shard's lock in ascending order and send its
       request, so all workers compute concurrently; then collect (and
       unlock) in the same ascending order. The fixed acquisition order
       makes concurrent dispatches from several pool domains
       deadlock-free; failed shards restart + resend inside [exchange]
       and grow their slice in-process when quarantined or degraded. *)
    let sent = Array.make n None in
    for i = 0 to n - 1 do
      let w = t.workers.(i) in
      Mutex.lock w.lock;
      if (not (w.quarantined || Atomic.get t.degraded)) && ensure t w then begin
        let p = match w.proc with Some p -> p | None -> assert false in
        match send_grow t w p slices.(i) ~event:e ~inline:false with
        | req -> sent.(i) <- Some req
        | exception Unix.Unix_error (err, _, _) ->
          restart t w ~reason:("send: " ^ Unix.error_message err)
        | exception Protocol.Protocol_error msg ->
          restart t w ~reason:("send: " ^ msg)
      end
    done;
    Array.init n (fun i ->
        let w = t.workers.(i) in
        let part =
          match exchange t w slices.(i) ~event:e ~sent:sent.(i) with
          | Some part -> part
          | None -> base idx slices.(i) e
        in
        Mutex.unlock w.lock;
        part)
  end

(* --- construction / shutdown / introspection --- *)

let create ?(trace = Trace.null) ?store cfg db =
  (* dead workers must surface as EPIPE writes, not SIGPIPE death *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ranges = Seqdb.shard db cfg.shards in
  let exe = resolve_exe cfg in
  let store, temp_store =
    if exe = None then (None, false)
    else
      match resolve_store ?store db with
      | Some (p, temp) -> (Some p, temp)
      | None -> (None, false)
  in
  let workers =
    Array.mapi
      (fun shard (lo, hi) ->
        {
          shard;
          lo;
          hi;
          lock = Mutex.create ();
          proc = None;
          attempts = 0;
          quarantined = false;
          grows = 0;
          span_start = 0;
          held = Array.make Shard_worker.slots None;
          last_use = Array.make Shard_worker.slots 0;
          tick = 0;
        })
      ranges
  in
  let t =
    {
      cfg;
      trace;
      digest = Seqdb.content_digest db;
      ranges;
      exe;
      store;
      temp_store;
      workers;
      degraded = Atomic.make false;
      closed = Atomic.make false;
      spawns = Atomic.make 0;
      total_restarts = Atomic.make 0;
      req_counter = Atomic.make 0;
    }
  in
  (match (exe, store) with
  | None, _ -> degrade t ~reason:"no worker executable found"
  | _, None -> degrade t ~reason:"could not pack a shared .rgsdb store"
  | Some exe, Some store ->
    Log.info (fun m ->
        m "supervising %d shard worker(s): exe %s, store %s" cfg.shards exe
          store);
    (* spawn eagerly so startup failures surface (and degrade) before
       mining begins rather than on the first growth *)
    Array.iter
      (fun w ->
        Mutex.lock w.lock;
        ignore (ensure t w);
        Mutex.unlock w.lock)
      t.workers);
  t

let shutdown t =
  if not (Atomic.exchange t.closed true) then begin
    Array.iter
      (fun w ->
        Mutex.lock w.lock;
        (match w.proc with
        | None -> ()
        | Some p ->
          Trace.span t.trace Trace.Proc_worker ~a0:w.shard ~a1:w.grows
            ~start:w.span_start;
          (* polite first: Shutdown frame + close, then a short grace
             before SIGKILL so a mid-reply worker can finish its write *)
          (try Shard_worker.write_to_worker p.conn Shard_worker.Shutdown
           with Unix.Unix_error _ | Protocol.Protocol_error _ -> ());
          (try Unix.close (Shard_worker.fd p.conn) with Unix.Unix_error _ -> ());
          let deadline = Unix.gettimeofday () +. 0.5 in
          let rec wait () =
            match Unix.waitpid [ Unix.WNOHANG ] p.pid with
            | 0, _ ->
              if Unix.gettimeofday () > deadline then begin
                (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
                reap p.pid
              end
              else begin
                (try Unix.sleepf 0.01
                 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
                wait ()
              end
            | _ -> ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
            | exception Unix.Unix_error _ -> ()
          in
          wait ();
          forget_slots w;
          w.proc <- None);
        Mutex.unlock w.lock)
      t.workers;
    if t.temp_store then
      match t.store with
      | Some p -> ( try Sys.remove p with Sys_error _ -> ())
      | None -> ()
  end

type stats = {
  spawns : int;
  restarts : int;
  quarantined : int;
  degraded : bool;
}

let stats (t : t) =
  {
    spawns = Atomic.get t.spawns;
    restarts = Atomic.get t.total_restarts;
    quarantined =
      Array.fold_left
        (fun n (w : worker) -> if w.quarantined then n + 1 else n)
        0 t.workers;
    degraded = Atomic.get t.degraded;
  }

let degraded (t : t) = Atomic.get t.degraded
let num_shards (t : t) = Array.length t.ranges
let ranges (t : t) = t.ranges

let pp_stats ppf s =
  Format.fprintf ppf
    "workers: %d spawn(s), %d restart(s), %d quarantined shard(s)%s" s.spawns
    s.restarts s.quarantined
    (if s.degraded then ", degraded to in-process" else "")
