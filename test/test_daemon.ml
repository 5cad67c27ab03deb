(* The rgsminerd serving loop, attacked from every angle the ISSUE names:
   admission control under overload, round-robin fairness, client
   disconnects, the idle watchdog, graceful drain with restart-resume,
   the job-level chaos plans, and — as child-process e2e runs of the real
   binary — kill -9 with jobs in flight, SIGTERM drain, and kill -9
   landing mid-drain. The invariant throughout: whatever the fault, a
   resubmitted job id finishes with output equal to an uninterrupted
   batch run (modulo quarantined roots, per Chaos.check_invariant).

   Slow jobs are manufactured with the Budget.Fault.Worker site (fired
   once per root claim) in-process, and with the RGS_CHAOS_ROOT_DELAY_MS
   knob for child processes, so every scenario has a deterministic window
   to strike in. No test sleeps unboundedly: client sockets carry receive
   timeouts and the dune alias wraps the suite in a watchdog timeout. *)

open Rgs_sequence
open Rgs_core
open Rgs_server

(* --- the shared job: a generated db shipped inline, mined closed --- *)

let test_db =
  lazy
    (Rgs_datagen.Quest_gen.generate
       (Rgs_datagen.Quest_gen.params ~d:25 ~c:10 ~n:25 ~s:3 ~seed:7 ()))

let db_text = lazy (Seq_io.print_spmf (Lazy.force test_db))

let spec ?(min_sup = 4) ?(max_length = Some 3) ?(max_gap = None)
    ?(query = Protocol.Q_all) ?(compress_delta = None) id =
  {
    Protocol.job_id = id;
    db = Protocol.Inline { format = Protocol.Spmf; text = Lazy.force db_text };
    min_sup;
    mode = Protocol.Closed;
    max_length;
    max_gap;
    deadline_s = None;
    max_nodes = None;
    max_words = None;
    query;
    compress_delta;
  }

(* the uninterrupted batch run every daemon answer is compared against;
   loaded through Job.load_db so the parse path is byte-identical *)
let baseline =
  lazy
    (let sp = spec "baseline" in
     match Job.load_db sp with
     | Error e -> failwith e
     | Ok db ->
       let report = Miner.mine ~config:(Job.config_of sp) db in
       List.map
         (fun m -> (Pattern.to_list m.Mined.pattern, m.Mined.support))
         report.Miner.results)

let sorted l = List.sort compare l

let check_results name got =
  Alcotest.(check (list (pair (list int) int)))
    name
    (sorted (Lazy.force baseline))
    (sorted got)

let mined_of (events, support) =
  { Mined.pattern = Pattern.of_list events; support }

(* the chaos invariant, over the wire signatures *)
let chaos_check plan ~faulty ~quarantined =
  match
    Chaos.check_invariant
      ~baseline:(List.map mined_of (Lazy.force baseline))
      ~faulty:(List.map mined_of faulty) ~quarantined
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%a: %s" Chaos.pp_job_plan plan msg

(* --- harness: an in-process daemon on a temp socket + state dir --- *)

let fresh_dir () =
  let path = Filename.temp_file "rgs-daemon" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rm_rf dir =
  (match Sys.readdir dir with
  | files ->
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      files
  | exception Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

type handle = {
  sock : string;
  dir : string;
  t : Daemon.t;
  dom : int Domain.t;
  mutable code : int option;
}

(* drain and join (memoised); returns the serve exit code *)
let stop h =
  match h.code with
  | Some c -> c
  | None ->
    Daemon.request_drain h.t;
    let c = Domain.join h.dom in
    h.code <- Some c;
    c

let with_daemon ?(queue_capacity = 16) ?(workers = 2) ?idle_timeout_s
    ?(drain_grace_s = 0.3) ?shard_workers ?dir f =
  let dir, own_dir =
    match dir with Some d -> (d, false) | None -> (fresh_dir (), true)
  in
  let sock = Filename.concat dir "rgsminerd.sock" in
  let cfg =
    Daemon.config ~queue_capacity ~workers ?idle_timeout_s ~drain_grace_s
      ?shard_workers ~tick_s:0.02 ~socket_path:sock ~state_dir:dir ()
  in
  let t = Daemon.create cfg in
  let dom = Domain.spawn (fun () -> Daemon.serve t) in
  let h = { sock; dir; t; dom; code = None } in
  Fun.protect
    ~finally:(fun () ->
      ignore (stop h);
      if own_dir then rm_rf dir)
    (fun () -> f h)

let poll ?(timeout_s = 20.0) msg pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "poll timeout: %s" msg
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let stat c name =
  match List.assoc_opt name (Client.stats c) with Some v -> v | None -> 0

(* ~0.5-0.8 s per job at 25-40 ms per root: wide enough to strike
   mid-job, narrow enough to keep the suite fast *)
let with_slow_roots delay_s f =
  Budget.Fault.with_hook
    (function Budget.Fault.Worker _ -> Unix.sleepf delay_s | _ -> ())
    f

let submit_ok c sp =
  match Client.submit c sp with
  | Protocol.Accepted _ -> ()
  | r ->
    Alcotest.failf "expected Accepted for %s, got %s" sp.Protocol.job_id
      (match r with
      | Protocol.Overloaded _ -> "Overloaded"
      | Protocol.Duplicate _ -> "Duplicate"
      | Protocol.Rejected { reason; _ } -> "Rejected: " ^ reason
      | _ -> "unexpected frame")

let with_client h f =
  let c = Client.connect h.sock in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* --- basics: handshake, ping, stats, typed rejections --- *)

let test_ping_stats () =
  with_daemon (fun h ->
      with_client h (fun c ->
          Alcotest.(check bool) "pong" true (Client.ping c);
          let stats = Client.stats c in
          Alcotest.(check bool) "clients gauge counts us" true
            (List.assoc "daemon_clients_connected" stats >= 1);
          Alcotest.(check int) "nothing running" 0
            (List.assoc "daemon_jobs_running" stats)))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let expect_rejected c sp frag =
  match Client.submit c sp with
  | Protocol.Rejected { reason; _ } ->
    Alcotest.(check bool)
      (Printf.sprintf "reason %S mentions %S" reason frag)
      true (contains reason frag)
  | _ -> Alcotest.failf "spec %s should be rejected" sp.Protocol.job_id

let test_typed_rejections () =
  with_daemon (fun h ->
      with_client h (fun c ->
          expect_rejected c (spec "../evil") "job id";
          expect_rejected c (spec ~min_sup:0 "bad-minsup") "min_sup";
          expect_rejected c (spec ~max_gap:(Some (-1)) "gappy") "max_gap";
          (* an undecodable inline db is admitted, then rejected by the
             worker — crash isolation, not a daemon crash *)
          let bad =
            {
              (spec "bad-db") with
              Protocol.db =
                Protocol.Inline { format = Protocol.Spmf; text = "not a db\n" };
            }
          in
          submit_ok c bad;
          let rec wait_rejection () =
            match Client.next_response c with
            | Some (Protocol.Rejected { job_id = "bad-db"; reason }) -> reason
            | Some _ -> wait_rejection ()
            | None -> Alcotest.fail "daemon hung up instead of rejecting"
          in
          let reason = wait_rejection () in
          Alcotest.(check bool) "parse error surfaced" true
            (String.length reason > 0);
          (* the daemon survived the poisonous job *)
          Alcotest.(check bool) "still serving" true (Client.ping c)))

(* --- protocol v2: version negotiation, queries --- *)

(* an unsupported hello version is refused at the handshake — the client
   observes EOF, not a decoder crash. Version 1 (the pre-query protocol)
   is one of them: the daemon speaks only [Protocol.version]. *)
let test_unsupported_version_refused () =
  with_daemon (fun h ->
      List.iter
        (fun v ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect fd (Unix.ADDR_UNIX h.sock);
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
              let bad = Protocol.magic ^ String.make 1 (Char.chr v) in
              ignore (Unix.write_substring fd bad 0 (String.length bad));
              (* the daemon sheds us: EOF (possibly after an error frame) *)
              let rec drained () =
                match Protocol.read_frame fd with
                | None -> true
                | Some _ -> drained ()
                | exception Protocol.Protocol_error _ -> true
                | exception
                    Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                  true
              in
              Alcotest.(check bool)
                (Printf.sprintf "version %d: connection closed" v)
                true (drained ())))
        [ 1; Protocol.version + 7 ];
      (* the refusals did not disturb the daemon *)
      with_client h (fun c ->
          Alcotest.(check bool) "still serving" true (Client.ping c)))

(* Frames are checked where they arrive. A [Submit] written in many small
   pieces — the header split inside both its words, then the payload in
   chunks — gets the answer of one written whole; a header declaring a
   length above the cap is shed before any payload arrives, and so is a
   frame whose CRC does not match. *)
let with_raw_conn h f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX h.sock);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      Protocol.send_hello fd;
      Alcotest.(check bool) "hello echoed" true (Protocol.read_hello fd);
      f fd)

let sealed payload =
  let len = String.length payload in
  let b = Bytes.create (Wire.header_bytes + len) in
  Bytes.blit_string payload 0 b Wire.header_bytes len;
  Wire.seal b ~len;
  b

(* the daemon closes the connection (maybe after an error frame) and
   answers nothing else; a read timeout means it is still waiting *)
let shed fd =
  let rec go () =
    match Protocol.read_frame fd with
    | None -> true
    | Some s -> (
      match Protocol.response_of_string s with
      | Protocol.Error_frame _ -> go ()
      | _ -> false)
    | exception Protocol.Protocol_error "read timeout" -> false
    | exception Protocol.Protocol_error _ -> true
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> true
  in
  go ()

let test_fragmented_frames () =
  with_daemon (fun h ->
      let whole, whole_done =
        with_client h (fun c ->
            submit_ok c (spec "frag-whole");
            Client.collect_job c ~job_id:"frag-whole")
      in
      let frame =
        sealed (Protocol.request_to_string (Protocol.Submit (spec "frag-pieces")))
      in
      let total = Bytes.length frame in
      let step = max 1 ((total - Wire.header_bytes) / 40) in
      let cuts =
        let rec payload_cuts at acc =
          if at >= total then List.rev (total :: acc)
          else payload_cuts (at + step) (at :: acc)
        in
        0 :: 2 :: 6 :: payload_cuts Wire.header_bytes []
      in
      let pieces, done_ =
        with_raw_conn h (fun fd ->
            let rec send = function
              | a :: (b :: _ as rest) ->
                if b > a then Wire.write_all fd frame a (b - a);
                Unix.sleepf 0.002;
                send rest
              | _ -> ()
            in
            send cuts;
            let rec collect acc =
              match Protocol.read_frame fd with
              | None -> Alcotest.fail "daemon hung up on a fragmented frame"
              | Some s -> (
                match Protocol.response_of_string s with
                | Protocol.Accepted _ -> collect acc
                | Protocol.Results { job_id = "frag-pieces"; patterns; _ } ->
                  collect (List.rev_append patterns acc)
                | Protocol.Job_done d -> (List.rev acc, d)
                | _ -> Alcotest.fail "unexpected frame for a fragmented submit")
            in
            collect [])
      in
      check_results "single write = batch" whole;
      Alcotest.(check (list (pair (list int) int)))
        "fragmented = single write" (sorted whole) (sorted pieces);
      Alcotest.(check int) "same total" whole_done.Protocol.total done_.Protocol.total;
      Alcotest.(check string) "same outcome" whole_done.Protocol.outcome
        done_.Protocol.outcome;
      (* an oversized length is refused from the header alone *)
      with_raw_conn h (fun fd ->
          let hdr = Bytes.make Wire.header_bytes '\000' in
          Bytes.set_int32_be hdr 0 (Int32.of_int (Wire.max_frame_bytes + 1));
          Wire.write_all fd hdr 0 Wire.header_bytes;
          Alcotest.(check bool) "oversized header shed" true (shed fd));
      (* a complete frame with a wrong CRC is refused, not answered *)
      with_raw_conn h (fun fd ->
          let b = sealed (Protocol.request_to_string Protocol.Ping) in
          Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) lxor 1));
          Wire.write_all fd b 0 (Bytes.length b);
          Alcotest.(check bool) "bad CRC shed" true (shed fd));
      with_client h (fun c ->
          Alcotest.(check bool) "still serving" true (Client.ping c)))

(* malformed queries are typed rejections on a live connection *)
let test_malformed_query_rejected () =
  with_daemon (fun h ->
      with_client h (fun c ->
          expect_rejected c (spec ~query:(Protocol.Q_target []) "q-empty")
            "target";
          expect_rejected c
            (spec ~query:(Protocol.Q_target [ 1; -2 ]) "q-neg")
            "target";
          expect_rejected c (spec ~query:(Protocol.Q_top_k 0) "q-k0") "top_k";
          expect_rejected c
            (spec ~compress_delta:(Some 1.5) "q-delta")
            "compress_delta";
          Alcotest.(check bool) "still serving" true (Client.ping c)))

(* v2 queried jobs end-to-end, and the checkpoint refusing a mismatched
   query on resubmission of the same job id *)
let test_v2_queries_end_to_end () =
  with_daemon (fun h ->
      with_client h (fun c ->
          (* top-k: the k best supports of the batch answer *)
          submit_ok c (spec ~query:(Protocol.Q_top_k 3) "q-top3");
          let got, _ = Client.collect_job c ~job_id:"q-top3" in
          let supports l = List.sort compare (List.map snd l) in
          let expect =
            List.filteri (fun i _ -> i < 3)
              (List.sort (fun (_, s1) (_, s2) -> compare s2 s1)
                 (Lazy.force baseline))
          in
          Alcotest.(check int) "three answers" 3 (List.length got);
          Alcotest.(check (list int))
            "top-3 supports" (supports expect) (supports got);
          (* targeted: exactly the containing subset of the batch answer *)
          let target = [ fst (List.hd (Lazy.force baseline)) ] |> List.concat in
          submit_ok c (spec ~query:(Protocol.Q_target target) "q-target");
          let got, _ = Client.collect_job c ~job_id:"q-target" in
          let expect =
            List.filter
              (fun (p, _) ->
                Pattern.is_subpattern (Pattern.of_list target)
                  ~of_:(Pattern.of_list p))
              (Lazy.force baseline)
          in
          Alcotest.(check (list (pair (list int) int)))
            "targeted = filtered batch" (sorted expect) (sorted got);
          (* resubmitting a finished id under a different query must hit
             the checkpoint fingerprint, not silently remine *)
          submit_ok c (spec ~query:(Protocol.Q_top_k 2) "q-top3");
          let rec wait_reject () =
            match Client.next_response c with
            | Some (Protocol.Rejected { job_id = "q-top3"; reason }) -> reason
            | Some _ -> wait_reject ()
            | None -> Alcotest.fail "daemon hung up instead of rejecting"
          in
          let reason = wait_reject () in
          Alcotest.(check bool)
            (Printf.sprintf "reason %S names the checkpoint" reason)
            true
            (String.length reason >= 10 && String.sub reason 0 10 = "checkpoint");
          (* δ-compression: a subset of the batch answer travels back *)
          submit_ok c (spec ~compress_delta:(Some 1.0) "q-delta1");
          let got, _ = Client.collect_job c ~job_id:"q-delta1" in
          Alcotest.(check bool) "compressed answer is smaller" true
            (List.length got <= List.length (Lazy.force baseline));
          Alcotest.(check bool) "representatives come from the answer" true
            (List.for_all
               (fun row -> List.mem row (Lazy.force baseline))
               got)))

(* A max_gap job runs and checkpoints like any other: the daemon's answer
   is Miner.mine's, in-process and with --shard-workers, whose worker
   processes must grow under the job's gap too. *)
let test_gap_job_matches_batch () =
  let sp = spec ~max_gap:(Some 1) "gap-job" in
  let expect =
    match Job.load_db sp with
    | Error e -> failwith e
    | Ok db ->
      List.map
        (fun m -> (Pattern.to_list m.Mined.pattern, m.Mined.support))
        (Miner.mine ~config:(Job.config_of sp) db).Miner.results
  in
  Alcotest.(check bool) "the gap changes the answer" true
    (sorted expect <> sorted (Lazy.force baseline));
  let run ?shard_workers name =
    with_daemon ?shard_workers (fun h ->
        with_client h (fun c ->
            submit_ok c sp;
            let got, summary = Client.collect_job c ~job_id:"gap-job" in
            Alcotest.(check string) (name ^ ": outcome") "completed"
              summary.Protocol.outcome;
            Alcotest.(check (list (pair (list int) int)))
              (name ^ ": gap job = Miner.mine") (sorted expect) (sorted got)))
  in
  run "in-process";
  (* the workers are found through RGS_WORKER_EXE; the @daemon alias
     alone does not build them *)
  let worker_exe = Filename.concat (Sys.getcwd ()) "../bin/rgsworker.exe" in
  if Sys.file_exists worker_exe then begin
    Unix.putenv "RGS_WORKER_EXE" worker_exe;
    let before = Metrics.snapshot () in
    run ~shard_workers:2 "shard workers";
    Alcotest.(check bool) "worker processes spawned" true
      (Metrics.find (Metrics.diff ~before ~after:(Metrics.snapshot ()))
         "worker_spawns"
      > 0)
  end

(* A job whose state-dir checkpoint was left by a version-2 build is
   refused with a typed "checkpoint: …" reason naming the version — the
   daemon neither crashes nor silently re-mines over the old log. *)
let test_v2_checkpoint_rejected () =
  with_daemon (fun h ->
      let fixture =
        Filename.concat
          (Filename.concat (Filename.dirname Sys.executable_name) "fixtures")
          "v2_log.ckpt"
      in
      let ic = open_in_bin fixture in
      let image = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin (Job.checkpoint_path ~state_dir:h.dir "old-v2") in
      output_string oc image;
      close_out oc;
      with_client h (fun c ->
          submit_ok c (spec "old-v2");
          let rec wait_reject () =
            match Client.next_response c with
            | Some (Protocol.Rejected { job_id = "old-v2"; reason }) -> reason
            | Some _ -> wait_reject ()
            | None -> Alcotest.fail "daemon hung up instead of rejecting"
          in
          let reason = wait_reject () in
          let prefix = "checkpoint: " in
          Alcotest.(check bool)
            (Printf.sprintf "reason %S is a typed checkpoint error" reason)
            true
            (String.length reason > String.length prefix
            && String.sub reason 0 (String.length prefix) = prefix
            && Filename.check_suffix reason "version 2, expected 3")))

(* A store job on a file packed by a version-1 build is answered
   [Rejected] with the FORMAT.md §2.2 version error: the daemon neither
   crashes nor mines it. *)
let test_v1_store_rejected () =
  with_daemon (fun h ->
      let fixture =
        Filename.concat
          (Filename.concat (Filename.dirname Sys.executable_name) "fixtures")
          "v1_store.rgsdb"
      in
      with_client h (fun c ->
          submit_ok c
            {
              (spec "old-store") with
              Protocol.db = Protocol.File { format = Protocol.Tokens; path = fixture };
            };
          let rec wait_reject () =
            match Client.next_response c with
            | Some (Protocol.Rejected { job_id = "old-store"; reason }) -> reason
            | Some _ -> wait_reject ()
            | None -> Alcotest.fail "daemon hung up instead of rejecting"
          in
          let reason = wait_reject () in
          Alcotest.(check bool)
            (Printf.sprintf "reason %S names the version" reason)
            true
            (contains reason "\xc2\xa72.2: unsupported version 1");
          Alcotest.(check bool) "still serving" true (Client.ping c)))

(* --- the core contract: daemon output == batch output --- *)

let test_submit_matches_batch () =
  with_daemon (fun h ->
      with_client h (fun c ->
          (match Client.submit c (spec "batch-eq") with
          | Protocol.Accepted { position = 1; _ } -> ()
          | _ -> Alcotest.fail "first job should be accepted at depth 1");
          let pats, summary = Client.collect_job c ~job_id:"batch-eq" in
          check_results "daemon == batch" pats;
          Alcotest.(check string) "outcome" "completed" summary.Protocol.outcome;
          Alcotest.(check (option string)) "natural finish" None
            summary.Protocol.stopped_by;
          Alcotest.(check int) "no quarantine" 0 summary.Protocol.quarantined;
          Alcotest.(check int) "total matches stream" (List.length pats)
            summary.Protocol.total;
          (* resubmitting a finished id resumes its checkpoint: the full
             answer is replayed, not re-mined from scratch *)
          submit_ok c (spec "batch-eq");
          let pats2, summary2 = Client.collect_job c ~job_id:"batch-eq" in
          check_results "resubmission replays the full answer" pats2;
          Alcotest.(check string) "replay completes" "completed"
            summary2.Protocol.outcome))

(* --- admission control: bounded queue, typed shedding --- *)

let test_overload_sheds () =
  with_daemon ~workers:1 ~queue_capacity:2 (fun h ->
      with_client h (fun c ->
          with_slow_roots 0.03 (fun () ->
              submit_ok c (spec "ov-0");
              poll "first job running" (fun () ->
                  stat c "daemon_jobs_running" = 1);
              (match Client.submit c (spec "ov-1") with
              | Protocol.Accepted { position = 1; _ } -> ()
              | _ -> Alcotest.fail "queue slot 1");
              (match Client.submit c (spec "ov-2") with
              | Protocol.Accepted { position = 2; _ } -> ()
              | _ -> Alcotest.fail "queue slot 2");
              let t0 = Unix.gettimeofday () in
              (match Client.submit c (spec "ov-3") with
              | Protocol.Overloaded { pending = 2; capacity = 2; _ } -> ()
              | Protocol.Overloaded _ ->
                Alcotest.fail "overload must report pending=2 capacity=2"
              | _ -> Alcotest.fail "job K+1 must be load-shed");
              Alcotest.(check bool) "shed in bounded time" true
                (Unix.gettimeofday () -. t0 < 5.0));
          (* the shed request disturbed nothing in flight *)
          List.iter
            (fun id ->
              let pats, summary = Client.collect_job c ~job_id:id in
              check_results (id ^ " undisturbed") pats;
              Alcotest.(check string) (id ^ " completes") "completed"
                summary.Protocol.outcome)
            [ "ov-0"; "ov-1"; "ov-2" ]))

(* --- fairness: round-robin across clients, not global FIFO --- *)

let test_fair_dispatch () =
  with_daemon ~workers:1 ~queue_capacity:8 (fun h ->
      with_client h (fun a ->
          with_client h (fun b ->
              with_slow_roots 0.025 (fun () ->
                  submit_ok a (spec "fair-a1");
                  poll "a1 running" (fun () -> stat b "daemon_jobs_running" = 1);
                  submit_ok a (spec "fair-a2");
                  submit_ok a (spec "fair-a3");
                  submit_ok b (spec "fair-b1");
                  submit_ok b (spec "fair-b2"));
              let seq_of c id =
                let pats, summary = Client.collect_job c ~job_id:id in
                check_results (id ^ " == batch") pats;
                summary.Protocol.seq
              in
              let _ = seq_of a "fair-a1" in
              let _ = seq_of a "fair-a2" in
              let seq_a3 = seq_of a "fair-a3" in
              let seq_b1 = seq_of b "fair-b1" in
              let _ = seq_of b "fair-b2" in
              (* under global FIFO b1 would finish after a3 *)
              Alcotest.(check bool) "b1 dispatched before a3" true
                (seq_b1 < seq_a3))))

(* --- duplicate live id: rejected, original undisturbed --- *)

let test_duplicate_live_id () =
  with_daemon ~workers:1 (fun h ->
      with_client h (fun c ->
          with_slow_roots 0.03 (fun () ->
              submit_ok c (spec "dup");
              poll "dup running" (fun () -> stat c "daemon_jobs_running" = 1);
              match Client.submit c (spec "dup") with
              | Protocol.Duplicate _ -> ()
              | _ -> Alcotest.fail "live id must be a Duplicate");
          let pats, summary = Client.collect_job c ~job_id:"dup" in
          check_results "original undisturbed" pats;
          Alcotest.(check string) "original completes" "completed"
            summary.Protocol.outcome))

(* --- disconnect detection: cancel, release the slot, resume later --- *)

let test_disconnect_cancels_and_resumes () =
  with_daemon ~workers:1 (fun h ->
      with_client h (fun b ->
          let disconnected_before = stat b "daemon_jobs_disconnected" in
          with_slow_roots 0.04 (fun () ->
              let a = Client.connect h.sock in
              submit_ok a (spec "disco");
              poll "disco running" (fun () -> stat b "daemon_jobs_running" = 1);
              (* the client vanishes mid-job *)
              Client.close a);
          poll "cancelled job released its pool slot" (fun () ->
              stat b "daemon_jobs_running" = 0);
          Alcotest.(check bool) "disconnect counted" true
            (stat b "daemon_jobs_disconnected" > disconnected_before);
          (* the daemon still takes work, and the orphaned checkpoint
             turns the resubmission into a resume *)
          submit_ok b (spec "disco");
          let pats, summary = Client.collect_job b ~job_id:"disco" in
          check_results "resume after disconnect == batch" pats;
          Alcotest.(check string) "resume completes" "completed"
            summary.Protocol.outcome))

(* --- idle watchdog: a stalled job is cancelled, the id stays usable --- *)

let test_watchdog_cancels_stalled () =
  with_daemon ~workers:1 ~idle_timeout_s:0.25 (fun h ->
      with_client h (fun c ->
          let calls = Atomic.make 0 in
          let summary =
            Budget.Fault.with_hook
              (function
                | Budget.Fault.Worker _ ->
                  (* wedge the third root: no node progress for far longer
                     than the idle timeout *)
                  if Atomic.fetch_and_add calls 1 = 2 then Unix.sleepf 1.5
                | _ -> ())
              (fun () ->
                submit_ok c (spec "stall");
                snd (Client.collect_job c ~job_id:"stall"))
          in
          Alcotest.(check (option string)) "stopped by the watchdog"
            (Some "watchdog") summary.Protocol.stopped_by;
          Alcotest.(check string) "cancelled outcome" "cancelled"
            summary.Protocol.outcome;
          (* recovery: the unwedged resubmission finishes the job *)
          submit_ok c (spec "stall");
          let pats, summary2 = Client.collect_job c ~job_id:"stall" in
          check_results "resume after watchdog == batch" pats;
          Alcotest.(check string) "resume completes" "completed"
            summary2.Protocol.outcome))

(* --- graceful drain: typed cancellations, exit 130, restart-resume --- *)

let test_drain_and_restart_resume () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      with_daemon ~workers:1 ~drain_grace_s:0.2 ~dir (fun h ->
          with_client h (fun c ->
              with_slow_roots 0.06 (fun () ->
                  submit_ok c (spec "dr-run");
                  poll "dr-run running" (fun () ->
                      stat c "daemon_jobs_running" = 1);
                  submit_ok c (spec "dr-q");
                  Daemon.request_drain h.t;
                  (* the queued job is dropped immediately with a typed
                     terminal frame *)
                  let _, sq = Client.collect_job c ~job_id:"dr-q" in
                  Alcotest.(check (option string)) "queued job drained"
                    (Some "drain") sq.Protocol.stopped_by;
                  Alcotest.(check string) "queued job cancelled" "cancelled"
                    sq.Protocol.outcome;
                  Alcotest.(check int) "nothing streamed for it" 0
                    sq.Protocol.total;
                  (* the running job is cancelled when the grace expires *)
                  let _, sr = Client.collect_job c ~job_id:"dr-run" in
                  Alcotest.(check (option string)) "running job drained"
                    (Some "drain") sr.Protocol.stopped_by));
          Alcotest.(check int) "interrupted drain exits 130" 130 (stop h));
      (* restart on the same state dir: both ids resume to completion *)
      with_daemon ~dir (fun h2 ->
          with_client h2 (fun c ->
              List.iter
                (fun id ->
                  submit_ok c (spec id);
                  let pats, summary = Client.collect_job c ~job_id:id in
                  check_results (id ^ " resumes == batch") pats;
                  Alcotest.(check string) (id ^ " completes") "completed"
                    summary.Protocol.outcome)
                [ "dr-run"; "dr-q" ]);
          Alcotest.(check int) "clean drain exits 0" 0 (stop h2)))

(* --- job-level chaos plans --- *)

let test_job_plans_deterministic () =
  let a = Chaos.job_plans ~seed:5 ~count:8 () in
  let b = Chaos.job_plans ~seed:5 ~count:8 () in
  Alcotest.(check bool) "same seed, same plans" true (a = b);
  Alcotest.(check bool) "different seed, different plans" true
    (a <> Chaos.job_plans ~seed:6 ~count:8 ());
  List.iter
    (fun (p : Chaos.job_plan) ->
      Alcotest.(check bool) "delay in [1,8]" true (p.delay >= 1 && p.delay <= 8))
    a;
  let sites = List.sort_uniq compare (List.map (fun p -> p.Chaos.site) a) in
  Alcotest.(check int) "all four sites attacked" 4 (List.length sites);
  (* only the socket site maps to a Budget.Fault plan *)
  List.iter
    (fun (p : Chaos.job_plan) ->
      match (p.site, Chaos.fault_plan_of_job p) with
      | Chaos.Socket_write_fail, Some fp ->
        Alcotest.(check bool) "socket fault plan" true
          (fp.Chaos.kind = Chaos.Socket_write && fp.Chaos.trigger = p.delay
         && not fp.Chaos.persistent)
      | Chaos.Socket_write_fail, None ->
        Alcotest.fail "socket site needs a fault plan"
      | _, None -> ()
      | _, Some _ -> Alcotest.fail "harness-enacted sites map to no plan")
    a

let run_job_plan (plan : Chaos.job_plan) =
  let id =
    Printf.sprintf "cj%d-%s" plan.Chaos.jid (Chaos.job_site_name plan.Chaos.site)
  in
  with_daemon ~workers:1 (fun h ->
      match plan.Chaos.site with
      | Chaos.Client_disconnect ->
        with_client h (fun b ->
            with_slow_roots 0.03 (fun () ->
                let a = Client.connect h.sock in
                submit_ok a (spec id);
                poll "victim running" (fun () -> stat b "daemon_jobs_running" = 1);
                Unix.sleepf (float_of_int plan.Chaos.delay *. 0.01);
                Client.close a);
            poll "slot released" (fun () -> stat b "daemon_jobs_running" = 0);
            submit_ok b (spec id);
            let pats, summary = Client.collect_job b ~job_id:id in
            chaos_check plan ~faulty:pats ~quarantined:summary.Protocol.quarantined)
      | Chaos.Overlapping_resume ->
        with_client h (fun c ->
            with_slow_roots 0.03 (fun () ->
                submit_ok c (spec id);
                poll "victim running" (fun () -> stat c "daemon_jobs_running" = 1);
                Unix.sleepf (float_of_int plan.Chaos.delay *. 0.01);
                (* the overlapping resume of a live id must be refused,
                   not corrupt the shared checkpoint *)
                match Client.submit c (spec id) with
                | Protocol.Duplicate _ -> ()
                | _ -> Alcotest.fail "overlapping resume must be a Duplicate");
            let pats, summary = Client.collect_job c ~job_id:id in
            chaos_check plan ~faulty:pats ~quarantined:summary.Protocol.quarantined;
            (* and once it finished, the id resumes cleanly *)
            submit_ok c (spec id);
            let pats2, summary2 = Client.collect_job c ~job_id:id in
            chaos_check plan ~faulty:pats2
              ~quarantined:summary2.Protocol.quarantined)
      | Chaos.Socket_write_fail -> (
        let fplan =
          match Chaos.fault_plan_of_job plan with
          | Some p -> p
          | None -> Alcotest.fail "socket site needs a fault plan"
        in
        let first_try =
          Chaos.inject fplan (fun () ->
              let a = Client.connect h.sock in
              let res =
                match Client.submit a (spec id) with
                | Protocol.Accepted _ -> (
                  match Client.collect_job a ~job_id:id with
                  | res -> Some res
                  | exception (Protocol.Protocol_error _ | Unix.Unix_error _) ->
                    None)
                | exception (Protocol.Protocol_error _ | Unix.Unix_error _) ->
                  None
                | _ -> Alcotest.fail "fresh id must be accepted"
              in
              Client.close a;
              res)
        in
        match first_try with
        | Some (pats, summary) ->
          (* the injected write was not on this job's path (or the
             trigger outran the write count): output must be intact *)
          chaos_check plan ~faulty:pats ~quarantined:summary.Protocol.quarantined
        | None ->
          (* the daemon shed us mid-stream; recover on a fresh connection *)
          with_client h (fun b ->
              poll "shed job released its slot" (fun () ->
                  stat b "daemon_jobs_running" = 0);
              let rec resubmit () =
                match Client.submit b (spec id) with
                | Protocol.Accepted _ -> ()
                | Protocol.Duplicate _ ->
                  Unix.sleepf 0.05;
                  resubmit ()
                | _ -> Alcotest.fail "recovery submission refused"
              in
              resubmit ();
              let pats, summary = Client.collect_job b ~job_id:id in
              chaos_check plan ~faulty:pats
                ~quarantined:summary.Protocol.quarantined))
      | Chaos.Kill_mid_drain ->
        (* needs a kill -9 of a real process: exercised by the e2e test
           below with the same plan generator *)
        ())

let test_job_chaos_sweep () =
  Chaos.job_plans
    ~sites:[ Chaos.Client_disconnect; Chaos.Overlapping_resume; Chaos.Socket_write_fail ]
    ~seed:23 ~count:6 ()
  |> List.iter run_job_plan

(* --- concurrent resume safety: interleaved checkpoint writers --- *)

let writer_isolation_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:8
       ~name:"interleaved per-job writers never cross-contaminate"
       QCheck2.Gen.(pair (int_range 5 30) (int_range 5 30))
       (fun (na, nb) ->
         let pa = Filename.temp_file "rgs-wa" ".ckpt" in
         let pb = Filename.temp_file "rgs-wb" ".ckpt" in
         Fun.protect
           ~finally:(fun () ->
             List.iter
               (fun p -> try Sys.remove p with Sys_error _ -> ())
               [ pa; pb ])
           (fun () ->
             let wa =
               Checkpoint.Writer.create ~path:pa ~fingerprint:"job-a" ()
             in
             let wb =
               Checkpoint.Writer.create ~path:pb ~fingerprint:"job-b" ()
             in
             let appender w base n =
               Domain.spawn (fun () ->
                   for i = 1 to n do
                     Checkpoint.Writer.append w
                       (Checkpoint.Root_done { root = base + i; results = [] })
                   done)
             in
             let da = appender wa 1000 na in
             let db = appender wb 2000 nb in
             Domain.join da;
             Domain.join db;
             Checkpoint.Writer.close wa;
             Checkpoint.Writer.close wb;
             let roots_of path fp =
               let log = Checkpoint.load ~path ~expected_fingerprint:fp in
               ( List.sort compare
                   (List.map
                      (fun (e : Checkpoint.entry) -> e.Checkpoint.root)
                      log.Checkpoint.completed),
                 log.Checkpoint.salvaged_bytes )
             in
             let roots_a, salvaged_a = roots_of pa "job-a" in
             let roots_b, salvaged_b = roots_of pb "job-b" in
             roots_a = List.init na (fun i -> 1001 + i)
             && roots_b = List.init nb (fun i -> 2001 + i)
             && salvaged_a = 0 && salvaged_b = 0)))

(* --- non-strict parsing is observable: parse_errors_skipped --- *)

let test_parse_errors_skipped_metric () =
  let before = Metrics.snapshot () in
  let db, skipped =
    Seq_io.parse_spmf_report ~strict:false
      "1 -1 2 -1 -2\nnot a number -2\n3 -1 4 -1 -2\n"
  in
  Alcotest.(check int) "one line skipped" 1 skipped;
  Alcotest.(check int) "good lines survive" 2 (Seqdb.size db);
  let _, skipped_chars = Seq_io.parse_chars_report ~strict:false "ABC\nab!\nDEF\n" in
  Alcotest.(check int) "chars line skipped" 1 skipped_chars;
  let delta =
    Metrics.find (Metrics.diff ~before ~after:(Metrics.snapshot ()))
      "parse_errors_skipped"
  in
  Alcotest.(check int) "every skip is counted" (skipped + skipped_chars) delta

(* --- end-to-end: the real binaries under kill -9 and SIGTERM --- *)

let bin name =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" name))

let rgsminerd_exe = bin "rgsminerd.exe"
let rgsminer_exe = bin "rgsminer.exe"

let quest_small =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "data" "quest_small.txt"))

let spawn ?(root_delay_ms = 0) exe args =
  if not (Sys.file_exists exe) then Alcotest.failf "%s not built" exe;
  let env =
    if root_delay_ms = 0 then Unix.environment ()
    else
      Array.append (Unix.environment ())
        [| Printf.sprintf "RGS_CHAOS_ROOT_DELAY_MS=%d" root_delay_ms |]
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: args))
      env Unix.stdin null null
  in
  Unix.close null;
  pid

let spawn_daemon ?root_delay_ms ~sock ~dir extra =
  spawn ?root_delay_ms rgsminerd_exe
    ([ "--socket"; sock; "--state-dir"; dir ] @ extra)

let wait_ready sock =
  poll "daemon accepting connections" (fun () ->
      Sys.file_exists sock
      && match Client.connect ~timeout_s:2.0 sock with
         | c ->
           let ok = Client.ping c in
           Client.close c;
           ok
         | exception (Unix.Unix_error _ | Protocol.Protocol_error _) -> false)

let wait_exit pid = snd (Unix.waitpid [] pid)

(* The acceptance scenario: kill -9 with two jobs in flight (torn
   in-flight checkpoint records possible), restart, resubmit both —
   outputs must equal the uninterrupted batch run. *)
let test_e2e_kill9_two_jobs_resume () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let sock = Filename.concat dir "d.sock" in
      let pid =
        spawn_daemon ~root_delay_ms:50 ~sock ~dir [ "--workers"; "2" ]
      in
      wait_ready sock;
      let c = Client.connect sock in
      submit_ok c (spec "e2e-k1");
      submit_ok c (spec "e2e-k2");
      poll "both jobs in flight" (fun () -> stat c "daemon_jobs_running" = 2);
      Unix.sleepf 0.3;
      Unix.kill pid Sys.sigkill;
      Alcotest.(check bool) "killed outright" true
        (wait_exit pid = Unix.WSIGNALED Sys.sigkill);
      Client.close c;
      let pid2 = spawn_daemon ~sock ~dir [ "--workers"; "2" ] in
      wait_ready sock;
      let c2 = Client.connect sock in
      Fun.protect
        ~finally:(fun () -> Client.close c2)
        (fun () ->
          List.iter
            (fun id ->
              submit_ok c2 (spec id);
              let pats, summary = Client.collect_job c2 ~job_id:id in
              check_results (id ^ " restart-resume == batch") pats;
              Alcotest.(check string) (id ^ " completes") "completed"
                summary.Protocol.outcome)
            [ "e2e-k1"; "e2e-k2" ]);
      Unix.kill pid2 Sys.sigterm;
      Alcotest.(check bool) "clean drain exits 0" true
        (wait_exit pid2 = Unix.WEXITED 0))

let test_e2e_sigterm_drain () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let sock = Filename.concat dir "d.sock" in
      let stats_path = Filename.concat dir "daemon-stats.json" in
      let pid =
        spawn_daemon ~root_delay_ms:50 ~sock ~dir
          [
            "--workers"; "1"; "--drain-grace"; "0.2";
            "--stats"; stats_path; "--stats-interval"; "0.05";
          ]
      in
      wait_ready sock;
      let c = Client.connect sock in
      submit_ok c (spec "e2e-d1");
      poll "job in flight" (fun () -> stat c "daemon_jobs_running" = 1);
      poll "periodic stats dump landed" (fun () -> Sys.file_exists stats_path);
      Unix.kill pid Sys.sigterm;
      (* the drain is client-visible before the process exits *)
      let _, summary = Client.collect_job c ~job_id:"e2e-d1" in
      Alcotest.(check (option string)) "drained mid-job" (Some "drain")
        summary.Protocol.stopped_by;
      Alcotest.(check bool) "interrupted drain exits 130" true
        (wait_exit pid = Unix.WEXITED 130);
      Client.close c;
      let pid2 = spawn_daemon ~sock ~dir [] in
      wait_ready sock;
      let c2 = Client.connect sock in
      Fun.protect
        ~finally:(fun () -> Client.close c2)
        (fun () ->
          submit_ok c2 (spec "e2e-d1");
          let pats, summary2 = Client.collect_job c2 ~job_id:"e2e-d1" in
          check_results "post-drain resume == batch" pats;
          Alcotest.(check string) "resume completes" "completed"
            summary2.Protocol.outcome);
      Unix.kill pid2 Sys.sigterm;
      Alcotest.(check bool) "clean drain exits 0" true
        (wait_exit pid2 = Unix.WEXITED 0))

(* Kill_mid_drain, the fourth job-level chaos site: SIGTERM starts a
   drain, kill -9 lands before it finishes, and the restart still
   resumes to the batch answer. *)
let test_e2e_kill9_mid_drain () =
  let plan =
    List.hd (Chaos.job_plans ~sites:[ Chaos.Kill_mid_drain ] ~seed:31 ~count:1 ())
  in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let sock = Filename.concat dir "d.sock" in
      let pid =
        spawn_daemon ~root_delay_ms:60 ~sock ~dir
          [ "--workers"; "1"; "--drain-grace"; "5" ]
      in
      wait_ready sock;
      let c = Client.connect sock in
      submit_ok c (spec "e2e-md");
      poll "job in flight" (fun () -> stat c "daemon_jobs_running" = 1);
      Unix.kill pid Sys.sigterm;
      Unix.sleepf (float_of_int plan.Chaos.delay *. 0.02);
      Unix.kill pid Sys.sigkill;
      Alcotest.(check bool) "killed mid-drain" true
        (wait_exit pid = Unix.WSIGNALED Sys.sigkill);
      Client.close c;
      let pid2 = spawn_daemon ~sock ~dir [] in
      wait_ready sock;
      let c2 = Client.connect sock in
      Fun.protect
        ~finally:(fun () -> Client.close c2)
        (fun () ->
          submit_ok c2 (spec "e2e-md");
          let pats, summary = Client.collect_job c2 ~job_id:"e2e-md" in
          chaos_check plan ~faulty:pats ~quarantined:summary.Protocol.quarantined;
          Alcotest.(check string) "resume completes" "completed"
            summary.Protocol.outcome);
      Unix.kill pid2 Sys.sigterm;
      Alcotest.(check bool) "clean drain exits 0" true
        (wait_exit pid2 = Unix.WEXITED 0))

(* --- rgsminer --stats-interval: periodic dumps land mid-run --- *)

let test_e2e_stats_interval () =
  let stats_path = Filename.temp_file "rgs-stats" ".json" in
  Sys.remove stats_path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove stats_path with Sys_error _ -> ())
    (fun () ->
      let pid =
        spawn ~root_delay_ms:30 rgsminer_exe
          [
            "--min-sup"; "3"; "--max-length"; "3";
            "--stats"; stats_path; "--stats-interval"; "0.05";
            quest_small;
          ]
      in
      let alive_when_seen = ref false in
      poll "periodic dump lands" (fun () ->
          if Sys.file_exists stats_path then begin
            alive_when_seen := fst (Unix.waitpid [ Unix.WNOHANG ] pid) = 0;
            true
          end
          else false);
      Alcotest.(check bool) "dump landed while still mining" true
        !alive_when_seen;
      Alcotest.(check bool) "run exits 0" true (wait_exit pid = Unix.WEXITED 0);
      let ic = open_in stats_path in
      let content =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check bool) "final dump holds run metrics" true
        (contains content "dfs_nodes");
      (* a .json target must get JSON, not Prometheus text — the atomic
         temp file must not defeat the extension switch *)
      Alcotest.(check bool) "json path gets json" true
        (contains content "\"kind\": \"counter\""))

let test_stats_interval_requires_stats () =
  let pid =
    spawn rgsminer_exe
      [ "--min-sup"; "3"; "--stats-interval"; "1"; quest_small ]
  in
  Alcotest.(check bool) "--stats-interval without --stats is an error" true
    (wait_exit pid = Unix.WEXITED 1)

let suite =
  [
    Alcotest.test_case "ping and stats frames" `Quick test_ping_stats;
    Alcotest.test_case "typed rejections, daemon survives" `Quick
      test_typed_rejections;
    Alcotest.test_case "unsupported hello version refused" `Quick
      test_unsupported_version_refused;
    Alcotest.test_case "fragmented, oversized and corrupt frames" `Quick
      test_fragmented_frames;
    Alcotest.test_case "malformed query rejected, typed" `Quick
      test_malformed_query_rejected;
    Alcotest.test_case "v2 queries end-to-end, checkpoint query pin" `Quick
      test_v2_queries_end_to_end;
    Alcotest.test_case "max_gap job = Miner.mine, shard workers too" `Quick
      test_gap_job_matches_batch;
    Alcotest.test_case "v2 checkpoint rejected, typed" `Quick
      test_v2_checkpoint_rejected;
    Alcotest.test_case "v1 store job rejected by version" `Quick
      test_v1_store_rejected;
    Alcotest.test_case "submit == batch, resubmit replays" `Quick
      test_submit_matches_batch;
    Alcotest.test_case "overload sheds job K+1, in-flight undisturbed" `Quick
      test_overload_sheds;
    Alcotest.test_case "round-robin fairness across clients" `Quick
      test_fair_dispatch;
    Alcotest.test_case "duplicate live id refused" `Quick test_duplicate_live_id;
    Alcotest.test_case "disconnect cancels, resubmit resumes" `Quick
      test_disconnect_cancels_and_resumes;
    Alcotest.test_case "idle watchdog cancels a stalled job" `Quick
      test_watchdog_cancels_stalled;
    Alcotest.test_case "drain: typed cancellations, 130, restart-resume" `Quick
      test_drain_and_restart_resume;
    Alcotest.test_case "job plans are deterministic" `Quick
      test_job_plans_deterministic;
    Alcotest.test_case "job-level chaos sweep" `Quick test_job_chaos_sweep;
    writer_isolation_prop;
    Alcotest.test_case "parse_errors_skipped counts non-strict skips" `Quick
      test_parse_errors_skipped_metric;
    Alcotest.test_case "e2e: kill -9 with two jobs, restart-resume" `Quick
      test_e2e_kill9_two_jobs_resume;
    Alcotest.test_case "e2e: SIGTERM drain, exit 130, resume" `Quick
      test_e2e_sigterm_drain;
    Alcotest.test_case "e2e: kill -9 mid-drain, resume" `Quick
      test_e2e_kill9_mid_drain;
    Alcotest.test_case "e2e: rgsminer --stats-interval dumps mid-run" `Quick
      test_e2e_stats_interval;
    Alcotest.test_case "--stats-interval requires --stats" `Quick
      test_stats_interval_requires_stats;
  ]
