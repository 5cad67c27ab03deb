open Rgs_sequence
open Rgs_core

let log_src = Logs.Src.create "rgs.daemon" ~doc:"Mining service daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  socket_path : string;
  state_dir : string;
  queue_capacity : int;
  workers : int;
  limits : Job.limits;
  idle_timeout_s : float option;
  drain_grace_s : float;
  stats_path : string option;
  stats_interval_s : float;
  tick_s : float;
  shard_workers : int option;
}

let config ?(queue_capacity = 16) ?(workers = 2) ?(limits = Job.no_limits)
    ?idle_timeout_s ?(drain_grace_s = 5.0) ?stats_path ?(stats_interval_s = 10.0)
    ?(tick_s = 0.05) ?shard_workers ~socket_path ~state_dir () =
  if queue_capacity < 1 then invalid_arg "Daemon.config: queue_capacity >= 1";
  if workers < 1 then invalid_arg "Daemon.config: workers >= 1";
  if drain_grace_s < 0.0 then invalid_arg "Daemon.config: drain_grace_s >= 0";
  if stats_interval_s <= 0.0 then
    invalid_arg "Daemon.config: stats_interval_s > 0";
  if tick_s <= 0.0 then invalid_arg "Daemon.config: tick_s > 0";
  (match idle_timeout_s with
  | Some s when s <= 0.0 -> invalid_arg "Daemon.config: idle_timeout_s > 0"
  | _ -> ());
  (match shard_workers with
  | Some n when n < 1 -> invalid_arg "Daemon.config: shard_workers >= 1"
  | _ -> ());
  {
    socket_path;
    state_dir;
    queue_capacity;
    workers;
    limits;
    idle_timeout_s;
    drain_grace_s;
    stats_path;
    stats_interval_s;
    tick_s;
    shard_workers;
  }

let send_timeout_s = 10.0 (* [SO_SNDTIMEO]: a client stuck longer is shed *)
let result_chunk = 512 (* patterns per [Results] frame *)

type conn = {
  cid : int;
  fd : Unix.file_descr;
  mutable inbuf : bytes;  (* received, not yet parsed: [[0, inlen)] *)
  mutable inlen : int;
  mutable hello_done : bool;
  mutable alive : bool;
}

type job_result =
  | Finished of Miner.report
  | Job_error of string  (* load/checkpoint/crash: typed rejection *)

type completion = { job : Job.t; result : job_result }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  sched : Scheduler.t;
  drain_flag : bool Atomic.t;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  completions : completion Queue.t;
  comp_lock : Mutex.t;
  conns : (int, conn) Hashtbl.t;  (* keyed by client id *)
  mutable next_cid : int;
  mutable draining : bool;
  mutable drain_started : float;
  mutable drain_forced : bool;
  mutable interrupted : bool;  (* a drain dropped or cancelled a job *)
  mutable comp_seq : int;  (* daemon-wide completion sequence *)
}

(* A socket file left by a crashed daemon would make bind fail forever,
   but blindly unlinking would silently hijack (and orphan) a live
   daemon's socket — and would even delete a regular file that happens
   to sit at the path. Probe first: only a socket nobody answers on is
   stale and removed. *)
let remove_stale_socket path =
  match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      Fun.protect
        ~finally:(fun () ->
          try Unix.close probe with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect probe (Unix.ADDR_UNIX path) with
          | () -> true
          | exception
              Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
            false)
    in
    if live then raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path));
    Log.info (fun m -> m "removing stale socket %s (nobody listening)" path);
    (try Unix.unlink path with Unix.Unix_error _ -> ()))
  | _ -> ()
(* not a socket: leave the file alone and let bind fail loudly *)

let create cfg =
  if not (Sys.file_exists cfg.state_dir) then Unix.mkdir cfg.state_dir 0o755;
  remove_stale_socket cfg.socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 64;
     Unix.set_nonblock listen_fd
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  {
    cfg;
    listen_fd;
    sched = Scheduler.create ~capacity:cfg.queue_capacity;
    drain_flag = Atomic.make false;
    pipe_r;
    pipe_w;
    completions = Queue.create ();
    comp_lock = Mutex.create ();
    conns = Hashtbl.create 16;
    next_cid = 0;
    draining = false;
    drain_started = 0.0;
    drain_forced = false;
    interrupted = false;
    comp_seq = 0;
  }

let request_drain t = Atomic.set t.drain_flag true

(* --- event-loop side: connections --- *)

let disconnect t conn =
  if conn.alive then begin
    conn.alive <- false;
    Hashtbl.remove t.conns conn.cid;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Atomic.set Server_metrics.clients_connected (Hashtbl.length t.conns);
    let dropped = Scheduler.cancel_client t.sched ~client:conn.cid in
    Metrics.add Server_metrics.jobs_disconnected (List.length dropped);
    Log.info (fun m ->
        m "client %d gone (%d queued job(s) dropped)" conn.cid
          (List.length dropped))
  end

(* All response writes funnel through here: any failure — EPIPE from a
   vanished client, a send timeout on a stuck one, an injected
   Socket_write fault — sheds the client instead of crashing the loop. *)
let send t conn resp =
  if not conn.alive then false
  else
    match
      Protocol.write_frame ~fire_fault:true conn.fd
        (Protocol.response_to_string resp)
    with
    | () -> true
    | exception
        ( Unix.Unix_error _ | Protocol.Protocol_error _ | Chaos.Injected _
        | Sys_error _ ) ->
      Metrics.hit Server_metrics.socket_write_failures;
      disconnect t conn;
      false

let accept_conn t =
  match Unix.accept t.listen_fd with
  | fd, _ ->
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO send_timeout_s;
    let cid = t.next_cid in
    t.next_cid <- cid + 1;
    let conn =
      {
        cid;
        fd;
        inbuf = Bytes.create 4096;
        inlen = 0;
        hello_done = false;
        alive = true;
      }
    in
    Hashtbl.replace t.conns cid conn;
    Atomic.set Server_metrics.clients_connected (Hashtbl.length t.conns);
    Log.info (fun m -> m "client %d connected" cid)
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()

(* --- requests --- *)

let stats_frame () = Metrics.snapshot () |> Metrics.to_list

let handle_request t conn (req : Protocol.request) =
  match req with
  | Protocol.Ping -> ignore (send t conn Protocol.Pong)
  | Protocol.Stats -> ignore (send t conn (Protocol.Stats_frame (stats_frame ())))
  | Protocol.Submit spec -> (
    match Job.validate spec with
    | Error reason ->
      Metrics.hit Server_metrics.jobs_rejected;
      ignore
        (send t conn
           (Protocol.Rejected { job_id = spec.Protocol.job_id; reason }))
    | Ok () -> (
      Metrics.hit Server_metrics.jobs_submitted;
      let spec = Job.clamp t.cfg.limits spec in
      let job = Job.create ~client:conn.cid spec in
      let job_id = spec.Protocol.job_id in
      match Scheduler.submit t.sched job with
      | Scheduler.Admitted position ->
        Log.info (fun m ->
            m "job %s admitted for client %d (queue depth %d)" job_id conn.cid
              position);
        ignore (send t conn (Protocol.Accepted { job_id; position }))
      | Scheduler.Overloaded { pending; capacity } ->
        Metrics.hit Server_metrics.jobs_overloaded;
        Log.info (fun m -> m "job %s load-shed (queue full)" job_id);
        ignore (send t conn (Protocol.Overloaded { job_id; pending; capacity }))
      | Scheduler.Duplicate ->
        Metrics.hit Server_metrics.jobs_duplicate;
        ignore (send t conn (Protocol.Duplicate { job_id }))
      | Scheduler.Draining ->
        Metrics.hit Server_metrics.jobs_rejected;
        ignore
          (send t conn (Protocol.Rejected { job_id; reason = "draining" }))))

(* Incremental frame parser over the connection's input buffer; returns
   [false] when the connection violated the protocol and must be shed.
   Frames are checked where they lie: only each payload and, once a
   frame is consumed, the tail behind it are copied, so a frame arriving
   in many reads costs no more than one arriving whole. *)
let parse_conn t conn =
  let pos = ref 0 in
  let ok =
    try
      let n = String.length Protocol.hello in
      if (not conn.hello_done) && conn.inlen >= n then begin
        if Bytes.sub_string conn.inbuf 0 n <> Protocol.hello then raise Exit;
        pos := n;
        conn.hello_done <- true;
        (* echo the hello; a failed write sheds the client *)
        try Protocol.send_hello conn.fd with Unix.Unix_error _ | Sys_error _ -> raise Exit
      end;
      let more = ref conn.hello_done in
      while !more && conn.alive do
        match Wire.frame_at conn.inbuf ~pos:!pos ~stop:conn.inlen with
        | None -> more := false
        | Some len ->
          let payload = Bytes.sub_string conn.inbuf (!pos + Wire.header_bytes) len in
          pos := !pos + Wire.header_bytes + len;
          handle_request t conn (Protocol.request_of_string payload)
      done;
      true
    with Exit | Protocol.Protocol_error _ -> false
  in
  if !pos > 0 then begin
    Bytes.blit conn.inbuf !pos conn.inbuf 0 (conn.inlen - !pos);
    conn.inlen <- conn.inlen - !pos
  end;
  ok

(* reads land directly after the unparsed bytes, in a buffer that
   doubles whenever less than 4 KiB of it is free *)
let on_readable t conn =
  if Bytes.length conn.inbuf - conn.inlen < 4096 then
    conn.inbuf <- Bytes.extend conn.inbuf 0 (Bytes.length conn.inbuf);
  let free = Bytes.length conn.inbuf - conn.inlen in
  match Unix.read conn.fd conn.inbuf conn.inlen free with
  | 0 -> disconnect t conn
  | n ->
    conn.inlen <- conn.inlen + n;
    if not (parse_conn t conn) then begin
      ignore (send t conn (Protocol.Error_frame "protocol error"));
      disconnect t conn
    end
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()
  | exception Unix.Unix_error _ -> disconnect t conn

(* --- worker side --- *)

let push_completion t comp =
  Mutex.lock t.comp_lock;
  Queue.push comp t.completions;
  Mutex.unlock t.comp_lock;
  (* self-pipe wakeup; a full pipe already guarantees a wakeup *)
  try ignore (Unix.write t.pipe_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()

let run_job t (job : Job.t) =
  match Job.load_db job.Job.spec with
  | Error msg -> Job_error msg
  | Ok db -> (
    (* the budget exists from here on, so the deadline is relative to
       start and the watchdog can observe node progress *)
    let budget = Job.budget_of job.Job.spec in
    Scheduler.start_budget t.sched job budget;
    (* --shard-workers is a server-wide deployment knob, not part of the
       wire spec: output (and checkpoints) are identical either way. The
       growths run in supervised per-shard processes; a job on a mapped
       .rgsdb store shares that file with its workers, anything else gets
       a temporary pack. *)
    let supervisor =
      match t.cfg.shard_workers with
      | None -> None
      | Some n ->
        let store =
          match job.Job.spec.Protocol.db with
          | Protocol.File { path; _ }
            when Filename.check_suffix path ".rgsdb" ->
            Some path
          | _ -> None
        in
        (* the workers grow under the job's gap, as the CLI's do *)
        let gap = Option.map (fun g -> (0, g)) job.Job.spec.Protocol.max_gap in
        Some (Supervisor.create ?store (Supervisor.config ~shards:n ?gap ()) db)
    in
    let cfg =
      Job.config_of ?shards:t.cfg.shard_workers
        ?shard_dispatch:(Option.map Supervisor.dispatch supervisor)
        job.Job.spec
    in
    let ckpt =
      Job.checkpoint_path ~state_dir:t.cfg.state_dir job.Job.spec.Protocol.job_id
    in
    match
      Fun.protect
        ~finally:(fun () -> Option.iter Supervisor.shutdown supervisor)
        (fun () ->
          Miner.mine ~budget ~checkpoint:ckpt ~resume:true ~config:cfg db)
    with
    | report ->
      (* δ-cover compression is a post-pass: the checkpoint (and any
         resume) always holds the uncompressed answer *)
      let report =
        match job.Job.spec.Protocol.compress_delta with
        | None -> report
        | Some delta ->
          let covers =
            Rgs_post.Compress.delta_cover ~delta report.Miner.results
          in
          {
            report with
            Miner.results = Rgs_post.Compress.representatives covers;
          }
      in
      Finished report
    | exception Checkpoint.Corrupt msg ->
      Job_error ("checkpoint: " ^ msg)
    | exception e -> Job_error ("internal error: " ^ Printexc.to_string e))

let worker_loop t () =
  let rec loop () =
    match Scheduler.next_job t.sched with
    | `Drain -> ()
    | `Job job ->
      let result =
        match run_job t job with
        | r -> r
        | exception e -> Job_error ("internal error: " ^ Printexc.to_string e)
      in
      Scheduler.finish t.sched job;
      push_completion t { job; result };
      loop ()
  in
  loop ()

(* --- completions --- *)

let signatures results =
  List.map
    (fun m -> (Pattern.to_list m.Mined.pattern, m.Mined.support))
    results

let rec chunked n = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
      | rest -> (List.rev acc, rest)
    in
    let chunk, rest = take n [] l in
    chunk :: chunked n rest

let next_seq t =
  t.comp_seq <- t.comp_seq + 1;
  t.comp_seq

let send_job_done t conn ~job_id ~outcome ~stopped_by ~quarantined ~total
    ~elapsed_s =
  let seq = next_seq t in
  match conn with
  | None -> ()
  | Some conn ->
    ignore
      (send t conn
         (Protocol.Job_done
            {
              Protocol.job_id;
              outcome;
              stopped_by;
              quarantined;
              total;
              elapsed_s;
              seq;
            }))

let handle_completion t { job; result } =
  let job_id = job.Job.spec.Protocol.job_id in
  let conn = Hashtbl.find_opt t.conns job.Job.client in
  match (result, job.Job.cancel_reason) with
  | _, Some Job.Disconnect ->
    (* the client is gone; its checkpoint stays for a future resume *)
    Metrics.hit Server_metrics.jobs_disconnected;
    Log.info (fun m -> m "job %s cancelled: client disconnected" job_id)
  | Job_error msg, _ ->
    Metrics.hit Server_metrics.jobs_rejected;
    Log.warn (fun m -> m "job %s failed: %s" job_id msg);
    ignore
      (Option.map
         (fun c -> send t c (Protocol.Rejected { job_id; reason = msg }))
         conn)
  | Finished report, reason ->
    (match reason with
    | Some Job.Stalled -> Metrics.hit Server_metrics.jobs_stalled
    | Some Job.Drain -> Metrics.hit Server_metrics.jobs_drained
    | Some Job.Disconnect -> ()
    | None -> Metrics.hit Server_metrics.jobs_completed);
    let patterns = signatures report.Miner.results in
    let total = List.length patterns in
    (* stream result chunks; a failed write sheds the client and the
       remaining sends become no-ops *)
    List.iteri
      (fun i chunk ->
        match conn with
        | Some c ->
          ignore
            (send t c (Protocol.Results { job_id; patterns = chunk; seq = i }))
        | None -> ())
      (chunked result_chunk patterns);
    send_job_done t conn ~job_id
      ~outcome:(Budget.to_string report.Miner.outcome)
      ~stopped_by:(Option.map Job.cancel_reason_name reason)
      ~quarantined:report.Miner.quarantined ~total
      ~elapsed_s:report.Miner.elapsed_s;
    Log.info (fun m ->
        m "job %s done: %d pattern(s), %s%s" job_id total
          (Budget.to_string report.Miner.outcome)
          (match reason with
          | Some r -> " (stopped by " ^ Job.cancel_reason_name r ^ ")"
          | None -> ""))

let process_completions t =
  let rec go () =
    Mutex.lock t.comp_lock;
    let c = Queue.take_opt t.completions in
    Mutex.unlock t.comp_lock;
    match c with
    | None -> ()
    | Some comp ->
      handle_completion t comp;
      go ()
  in
  go ()

let completions_pending t =
  Mutex.lock t.comp_lock;
  let n = Queue.length t.completions in
  Mutex.unlock t.comp_lock;
  n > 0

let drain_pipe t =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read t.pipe_r buf 0 256 with
    | 256 -> go ()
    | _ -> ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
  in
  go ()

(* --- the event loop --- *)

let begin_drain t =
  t.draining <- true;
  t.drain_started <- Unix.gettimeofday ();
  Log.info (fun m -> m "drain requested: no longer admitting jobs");
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  let dropped = Scheduler.drain t.sched in
  if dropped <> [] then t.interrupted <- true;
  List.iter
    (fun (job : Job.t) ->
      Metrics.hit Server_metrics.jobs_drained;
      send_job_done t
        (Hashtbl.find_opt t.conns job.Job.client)
        ~job_id:job.Job.spec.Protocol.job_id ~outcome:"cancelled"
        ~stopped_by:(Some "drain") ~quarantined:0 ~total:0 ~elapsed_s:0.0)
    dropped

let force_drain t =
  t.drain_forced <- true;
  let cancelled = Scheduler.cancel_running_for_drain t.sched in
  if cancelled <> [] then begin
    t.interrupted <- true;
    Log.info (fun m ->
        m "drain grace expired: cancelling %d running job(s)"
          (List.length cancelled))
  end

let serve t =
  let workers = List.init t.cfg.workers (fun _ -> Domain.spawn (worker_loop t)) in
  let stats =
    Option.map
      (fun path ->
        Stats_dump.start ~interval_s:t.cfg.stats_interval_s ~path ())
      t.cfg.stats_path
  in
  Log.info (fun m ->
      m "serving on %s (%d worker(s), queue capacity %d)" t.cfg.socket_path
        t.cfg.workers t.cfg.queue_capacity);
  let rec loop () =
    let now = Unix.gettimeofday () in
    if Atomic.get t.drain_flag && not t.draining then begin_drain t;
    if
      t.draining && (not t.drain_forced)
      && now -. t.drain_started > t.cfg.drain_grace_s
    then force_drain t;
    (match t.cfg.idle_timeout_s with
    | Some idle_timeout_s ->
      ignore (Scheduler.scan_watchdog t.sched ~now ~idle_timeout_s)
    | None -> ());
    if
      t.draining
      && Scheduler.running t.sched = 0
      && not (completions_pending t)
    then ()
    else begin
      let read_fds =
        t.pipe_r
        :: ((if t.draining then [] else [ t.listen_fd ])
           @ Hashtbl.fold (fun _ c acc -> c.fd :: acc) t.conns [])
      in
      let ready, _, _ =
        try Unix.select read_fds [] [] t.cfg.tick_s
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          if fd = t.pipe_r then begin
            drain_pipe t;
            process_completions t
          end
          else if (not t.draining) && fd = t.listen_fd then accept_conn t
          else
            match
              Hashtbl.fold
                (fun _ c acc -> if c.fd = fd then Some c else acc)
                t.conns None
            with
            | Some conn -> on_readable t conn
            | None -> ())
        ready;
      loop ()
    end
  in
  loop ();
  List.iter Domain.join workers;
  (* a worker may have finished between the last pipe read and its join *)
  process_completions t;
  Option.iter Stats_dump.stop stats;
  Hashtbl.iter
    (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    t.conns;
  Hashtbl.reset t.conns;
  (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close t.pipe_w with Unix.Unix_error _ -> ());
  (try Sys.remove t.cfg.socket_path with Sys_error _ -> ());
  Log.info (fun m ->
      m "drain complete (%s)" (if t.interrupted then "jobs interrupted" else "clean"));
  if t.interrupted then 130 else 0

let run cfg =
  let t = create cfg in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let handler = Sys.Signal_handle (fun _ -> request_drain t) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  serve t
