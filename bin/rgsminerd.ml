(* rgsminerd: fault-tolerant mining service daemon.

   Serves mining jobs over a Unix-domain socket: bounded admission with
   typed overload shedding, round-robin fairness across clients, per-job
   budgets clamped by server-wide limits, per-job durable checkpoint logs
   (resubmitting a job id resumes it — including after a daemon restart),
   graceful drain on SIGTERM, and an optional idle watchdog.

   Examples:
     rgsminerd --socket /run/rgs.sock --state-dir /var/lib/rgsminerd
     rgsminerd --socket d.sock --state-dir state --workers 4 --queue 32 \
       --max-deadline 60 --idle-timeout 30 --stats stats.json *)

open Cmdliner
open Rgs_server

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

(* --shard-workers auto parses as 0; resolve to the machine's
   recommended count here, after Cmdliner *)
let resolve_auto = function
  | Some 0 -> Some (Rgs_core.Parallel_miner.auto_shards ())
  | n -> n

let run socket state_dir queue_capacity workers shard_workers
    max_deadline max_nodes max_words idle_timeout drain_grace stats_file
    stats_interval stores verbose =
  setup_logs verbose;
  let shard_workers = resolve_auto shard_workers in
  let limits =
    {
      Job.max_deadline_s = max_deadline;
      max_nodes;
      max_words;
    }
  in
  (* Preload every --store before listening: each is mapped, CRC-verified
     end to end and cached, so a corrupt store fails the boot (exit 1)
     rather than the first job that references it. *)
  List.iter
    (fun path ->
      match Job.preload_store path with
      | Ok db ->
        Logs.info (fun m ->
            m "store %s: %d sequence(s), %d event(s) mapped" path
              (Rgs_sequence.Seqdb.size db)
              (Rgs_sequence.Seqdb.total_length db))
      | Error msg ->
        Format.eprintf "rgsminerd: --store %s@." msg;
        exit 1)
    stores;
  match
    Daemon.config ~queue_capacity ~workers ~limits ?idle_timeout_s:idle_timeout
      ~drain_grace_s:drain_grace ?stats_path:stats_file
      ?stats_interval_s:stats_interval ?shard_workers
      ~socket_path:socket ~state_dir ()
  with
  | cfg -> (
    match Daemon.run cfg with
    | code -> code
    | exception Unix.Unix_error (err, fn, arg) ->
      Format.eprintf "rgsminerd: %s %s: %s@." fn arg (Unix.error_message err);
      1)
  | exception Invalid_argument msg ->
    Format.eprintf "rgsminerd: %s@." msg;
    1

let socket =
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket to listen on (created; a stale file is replaced).")

let state_dir =
  Arg.(required & opt (some string) None & info [ "state-dir" ] ~docv:"DIR"
         ~doc:"Directory for per-job durable checkpoint logs (created if missing). \
               Resubmitting a job id resumes from its log — including after a \
               daemon crash or restart.")

let queue_capacity =
  Arg.(value & opt int 16 & info [ "queue" ] ~docv:"N"
         ~doc:"Bounded pending-job queue capacity; submissions beyond it are \
               load-shed with a typed Overloaded response.")

let workers =
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
         ~doc:"Pool domains running jobs concurrently.")

let count_or_auto =
  let parse s =
    match s with
    | "auto" -> Ok 0
    | _ -> (
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok n
      | _ -> Error (`Msg (Printf.sprintf "expected a count or 'auto', got %S" s)))
  in
  let print ppf = function
    | 0 -> Format.pp_print_string ppf "auto"
    | n -> Format.pp_print_int ppf n
  in
  Arg.conv (parse, print)

let shard_workers =
  Arg.(value & opt (some count_or_auto) None & info [ "shard-workers" ] ~docv:"N"
         ~doc:"Run each job's instance growths in N supervised \
               $(b,rgsworker) processes, one per balanced database shard \
               ($(b,auto) or $(b,0): one per recommended domain). \
               Workers heartbeat and are restarted with backoff on crash, \
               hang or frame corruption; flapping shards are quarantined \
               and the job degrades to in-process growth — output and \
               checkpoints are identical in every case.")

let max_deadline =
  Arg.(value & opt (some float) None & info [ "max-deadline" ] ~docv:"SECONDS"
         ~doc:"Server-wide ceiling on any job's wall-clock budget; requests are \
               clamped, and jobs that ask for no deadline get this one.")

let max_nodes =
  Arg.(value & opt (some int) None & info [ "max-nodes" ] ~docv:"N"
         ~doc:"Server-wide ceiling on any job's DFS-node budget.")

let max_words =
  Arg.(value & opt (some int) None & info [ "max-words" ] ~docv:"N"
         ~doc:"Server-wide ceiling on any job's GC heap-words budget.")

let idle_timeout =
  Arg.(value & opt (some float) None & info [ "idle-timeout" ] ~docv:"SECONDS"
         ~doc:"Idle watchdog: cancel a running job whose DFS stops making \
               progress for this long (off by default).")

let drain_grace =
  Arg.(value & opt float 5.0 & info [ "drain-grace" ] ~docv:"SECONDS"
         ~doc:"On SIGTERM, let in-flight jobs finish for this long before \
               cancelling them (their checkpoints still get final records).")

let stats_file =
  Arg.(value & opt (some string) None & info [ "stats" ] ~docv:"FILE"
         ~doc:"Periodically dump absolute metric readings to FILE (atomically \
               replaced): JSON when FILE ends in $(b,.json), Prometheus text \
               otherwise.")

let stats_interval =
  Arg.(value & opt (some float) None & info [ "stats-interval" ] ~docv:"SECONDS"
         ~doc:"Period of the $(b,--stats) dump (default 10).")

let stores =
  Arg.(value & opt_all file [] & info [ "store" ] ~docv:"FILE"
         ~doc:"Preload a packed $(b,.rgsdb) store at startup (repeatable): the \
               file is mapped, every section CRC verified, and the mapping \
               cached so jobs referencing the path share it. A store that \
               fails verification aborts the boot.")

let verbose =
  Arg.(value & flag & info [ "verbose"; "v" ]
         ~doc:"Log job lifecycle events to stderr.")

let cmd =
  let doc = "serve repetitive gapped subsequence mining jobs over a socket" in
  Cmd.v
    (Cmd.info "rgsminerd" ~version:"1.2.0" ~doc)
    Term.(const run $ socket $ state_dir $ queue_capacity $ workers
          $ shard_workers $ max_deadline $ max_nodes $ max_words
          $ idle_timeout $ drain_grace $ stats_file $ stats_interval $ stores
          $ verbose)

let () = exit (Cmd.eval' cmd)
