(* The @supervise tier: supervised multi-process shard workers.

   Three layers of proof, mirroring the supervisor's trust boundaries:

   1. Wire: Support_set.encode/decode is the identity on random support
      sets, combine over decoded parts equals the in-process combine, and
      the Shard_worker frame codecs survive a socketpair round trip
      (while a corrupt frame is caught at the CRC, and silence is caught
      by SO_RCVTIMEO — the supervisor's failure signals).

   2. Differential: mining with real rgsworker processes (plain,
      gap-constrained, multi-domain) emits output identical to the
      sequential miner, with zero restarts and no degradation.

   3. Chaos: every process fault site (kill -9, heartbeat hang, corrupt
      reply frame, slow writer) x transient/persistent, injected via the
      RGS_WORKER_FAULT environment contract, still yields identical
      output — through restarts, quarantine or full degradation — and
      a supervisor that cannot spawn at all (bad executable) degrades
      gracefully from birth. *)

open Rgs_sequence
open Rgs_core
open Rgs_server

let signatures results =
  List.map (fun r -> (Pattern.to_string r.Mined.pattern, r.Mined.support)) results

let sig_t = Alcotest.(list (pair string int))

(* the test binary runs from _build/default/test; the worker is a declared
   dune dep one directory over *)
let worker_exe = Filename.concat (Sys.getcwd ()) "../bin/rgsworker.exe"

let quest ~seed =
  Rgs_datagen.Quest_gen.generate
    (Rgs_datagen.Quest_gen.params ~d:20 ~c:8 ~n:20 ~s:3 ~seed ())

(* --- 1. the wire layer --- *)

(* random support sets with the same shape mining produces: grow a
   1-event set a few times so instances have length > 1 *)
let support_set_gen =
  QCheck2.Gen.(
    Gens.db ~num_seqs:8 ~alphabet:5 ~max_len:14 >>= fun db ->
    let idx = Inverted_index.build db in
    let events = Inverted_index.events idx in
    match events with
    | [] -> return (db, Support_set.empty)
    | _ ->
      let event = oneofl events in
      event >>= fun e0 ->
      list_size (int_bound 3) event >|= fun grows ->
      ( db,
        List.fold_left
          (fun s e -> Support_set.grow idx s e)
          (Support_set.of_event idx e0)
          grows ))

let print_support_set (db, s) =
  Format.asprintf "db:@.%a@.set: %a" Seqdb.pp db Support_set.pp s

let test_encode_roundtrip =
  Gens.make ~name:"decode (encode s) = s on random support sets" ~count:150
    support_set_gen print_support_set (fun (_, s) ->
      Support_set.equal s (Support_set.decode (Support_set.encode s)))

let test_combine_decoded_parts =
  Gens.make
    ~name:"combine over encoded/decoded shard parts = in-process grow"
    ~count:120 support_set_gen print_support_set (fun (db, s) ->
      let idx = Inverted_index.build db in
      match Inverted_index.events idx with
      | [] -> true
      | e :: _ ->
        List.for_all
          (fun shards ->
            (* the dispatch every part travels through the wire codec,
               exactly what a worker round trip does to it *)
            let wire_dispatch ~ranges base idx s ev =
              Array.map
                (fun (lo, hi) ->
                  let enc = Support_set.encode (Support_set.slice s ~lo ~hi) in
                  Support_set.decode
                    (Support_set.encode
                       (base idx (Support_set.decode enc) ev)))
                ranges
            in
            let sm = Shard_merge.make ~dispatch:wire_dispatch db ~shards in
            let direct = Support_set.grow idx s e in
            let via_wire = Shard_merge.grow sm Support_set.grow idx s e in
            Support_set.equal direct via_wire)
          [ 1; 2; 3 ])

let test_decode_rejects_garbage () =
  let enc =
    Support_set.encode (Support_set.of_event (Inverted_index.build (quest ~seed:3)) 0)
  in
  let expect_invalid name s =
    match Support_set.decode s with
    | _ -> Alcotest.failf "%s: decode accepted a corrupt payload" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "truncated" (String.sub enc 0 (String.length enc - 8));
  expect_invalid "odd length" (enc ^ "x");
  expect_invalid "trailing words" (enc ^ String.make 16 '\000');
  let flipped = Bytes.of_string enc in
  Bytes.set flipped 0 '\xff';
  expect_invalid "flipped count" (Bytes.to_string flipped)

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let sent =
        Shard_worker.Grow
          { req = 42; event = 7; gap = Some (0, 3); part = "payload" }
      in
      Shard_worker.write_to_worker a sent;
      (match Shard_worker.read_to_worker b with
      | Some (Shard_worker.Grow { req = 42; event = 7; gap = Some (0, 3); part = "payload" }) -> ()
      | _ -> Alcotest.fail "to_worker frame did not round-trip");
      Shard_worker.write_from_worker b (Shard_worker.Grown { req = 42; part = "x" });
      (match Shard_worker.read_from_worker a with
      | Some (Shard_worker.Grown { req = 42; part = "x" }) -> ()
      | _ -> Alcotest.fail "from_worker frame did not round-trip");
      (* a deliberately mis-CRC'd frame must fail loudly, not decode *)
      Shard_worker.write_corrupt_frame b;
      (match Shard_worker.read_from_worker a with
      | _ -> Alcotest.fail "corrupt frame was accepted"
      | exception Protocol.Protocol_error msg ->
        Alcotest.(check bool)
          "CRC mismatch reported" true
          (String.length msg > 0));
      (* and silence must trip the receive timeout — the liveness signal *)
      Unix.setsockopt_float a Unix.SO_RCVTIMEO 0.05;
      match Shard_worker.read_from_worker a with
      | _ -> Alcotest.fail "read returned without a frame"
      | exception Protocol.Protocol_error "read timeout" -> ())

(* --- 2. differential: real worker processes, no faults --- *)

let supervised_config ?gap ?worker_env ?(liveness_timeout_s = 5.0)
    ?(restart_budget = 2) ?flap_budget ?(exe = worker_exe) ~shards () =
  Supervisor.config ~shards ~heartbeat_ms:20 ~liveness_timeout_s
    ~restart_budget ?flap_budget ~backoff_base_ms:5 ~backoff_max_ms:20 ?gap
    ~worker_exe:exe ?worker_env ()

let with_supervisor cfg db f =
  let sup = Supervisor.create cfg db in
  Fun.protect ~finally:(fun () -> Supervisor.shutdown sup) (fun () -> f sup)

let mine_supervised ?(mode = Miner.Closed) ?max_gap ?max_length ?domains
    ~shards sup db ~min_sup =
  let config =
    Miner.config ~mode ?max_gap ?max_length ?domains ~shards
      ~shard_dispatch:(Supervisor.dispatch sup) ~min_sup ()
  in
  Miner.mine ~config db

let test_supervised_equals_sequential () =
  let db = quest ~seed:17 in
  let baseline = Miner.mine ~min_sup:3 db in
  List.iter
    (fun shards ->
      with_supervisor (supervised_config ~shards ()) db (fun sup ->
          let report = mine_supervised ~shards sup db ~min_sup:3 in
          Alcotest.check sig_t
            (Printf.sprintf "supervised = sequential (%d shards)" shards)
            (signatures baseline.Miner.results)
            (signatures report.Miner.results);
          let s = Supervisor.stats sup in
          Alcotest.(check bool) "not degraded" false s.Supervisor.degraded;
          Alcotest.(check int) "no restarts" 0 s.Supervisor.restarts;
          Alcotest.(check int) "one spawn per shard" shards s.Supervisor.spawns))
    [ 2; 4 ]

let test_supervised_gap_constrained () =
  let db = quest ~seed:23 in
  let config = Miner.config ~mode:Miner.All ~max_gap:2 ~min_sup:3 () in
  let baseline = Miner.mine ~config db in
  with_supervisor
    (supervised_config ~shards:2 ~gap:(0, 2) ())
    db
    (fun sup ->
      let report =
        mine_supervised ~mode:Miner.All ~max_gap:2 ~shards:2 sup db ~min_sup:3
      in
      Alcotest.check sig_t "supervised gap mining = sequential"
        (signatures baseline.Miner.results)
        (signatures report.Miner.results);
      Alcotest.(check bool) "not degraded" false (Supervisor.degraded sup))

let test_supervised_multi_domain () =
  let db = quest ~seed:29 in
  let baseline = Miner.mine ~min_sup:3 db in
  with_supervisor (supervised_config ~shards:2 ()) db (fun sup ->
      (* two pool domains dispatch concurrently into the same two
         workers: the ordered-lock fan-out must neither deadlock nor
         interleave replies across requests *)
      let report = mine_supervised ~domains:2 ~shards:2 sup db ~min_sup:3 in
      Alcotest.check sig_t "supervised multi-domain = sequential"
        (signatures baseline.Miner.results)
        (signatures report.Miner.results);
      let s = Supervisor.stats sup in
      Alcotest.(check int) "no restarts" 0 s.Supervisor.restarts)

let test_supervised_checkpointed () =
  let db = quest ~seed:31 in
  let baseline = Miner.mine ~min_sup:3 db in
  with_supervisor (supervised_config ~shards:2 ()) db (fun sup ->
      let config =
        Miner.config ~mode:Miner.Closed ~domains:2 ~shards:2
          ~shard_dispatch:(Supervisor.dispatch sup) ~min_sup:3 ()
      in
      let path = Filename.temp_file "rgs_supervised" ".ckpt" in
      let report =
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () -> Miner.mine ~checkpoint:path ~config db)
      in
      Alcotest.check sig_t "supervised checkpointed run = sequential"
        (signatures baseline.Miner.results)
        (signatures report.Miner.results))

(* --- 3. chaos: the process fault sites --- *)

let fault_env plan = [ (Chaos.worker_fault_env, Chaos.worker_fault_to_string plan) ]

let test_chaos_sweep () =
  (* a small db, All mode and max_length 2 bound the growth count: the
     slow-writer site costs 50 ms per grow once armed, and CloGSgrow's
     closure checks would multiply the number of grows *)
  let db =
    Rgs_datagen.Quest_gen.generate
      (Rgs_datagen.Quest_gen.params ~d:12 ~c:6 ~n:10 ~s:3 ~seed:41 ())
  in
  let baseline =
    signatures
      (Miner.mine
         ~config:(Miner.config ~mode:Miner.All ~max_length:2 ~min_sup:3 ())
         db)
        .Miner.results
  in
  let plans =
    (* low triggers so every fault actually fires inside the run *)
    List.concat_map
      (fun psite ->
        List.map
          (fun persist -> { Chaos.wid = 0; psite; after = 2; persist })
          [ false; true ])
      [ Chaos.Proc_kill; Chaos.Proc_hang; Chaos.Proc_corrupt; Chaos.Proc_slow ]
  in
  List.iter
    (fun plan ->
      let before = Metrics.snapshot () in
      with_supervisor
        (supervised_config ~shards:2 ~liveness_timeout_s:0.4
           ~worker_env:(fault_env plan) ())
        db
        (fun sup ->
          let report =
            mine_supervised ~mode:Miner.All ~max_length:2 ~shards:2 sup db
              ~min_sup:3
          in
          let name = Format.asprintf "%a" Chaos.pp_proc_plan plan in
          Alcotest.check sig_t
            (name ^ ": output identical to sequential")
            baseline
            (signatures report.Miner.results);
          let s = Supervisor.stats sup in
          let d = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
          (match plan.Chaos.psite with
          | Chaos.Proc_slow ->
            (* slowness is not a failure: no restart may fire *)
            Alcotest.(check int) (name ^ ": no restarts") 0 s.Supervisor.restarts
          | Chaos.Proc_kill | Chaos.Proc_corrupt | Chaos.Proc_hang ->
            Alcotest.(check bool)
              (name ^ ": failure detected (restarts > 0)")
              true (s.Supervisor.restarts > 0);
            Alcotest.(check bool)
              (name ^ ": worker_restarts metric moved")
              true
              (Metrics.find d "worker_restarts" > 0));
          (match plan.Chaos.psite with
          | Chaos.Proc_hang ->
            Alcotest.(check bool)
              (name ^ ": liveness deadline tripped")
              true
              (Metrics.find d "worker_heartbeats_missed" > 0)
          | _ -> ());
          if plan.Chaos.persist && plan.Chaos.psite <> Chaos.Proc_slow then
            (* a fault that re-arms on every incarnation must exhaust the
               budget: quarantined shards or a fully degraded supervisor,
               never an infinite restart loop *)
            Alcotest.(check bool)
              (name ^ ": budget enforced (quarantine or degrade)")
              true
              (s.Supervisor.quarantined > 0 || s.Supervisor.degraded)))
    plans

let test_spawn_failure_degrades () =
  let db = quest ~seed:43 in
  let baseline = Miner.mine ~min_sup:3 db in
  let before = Metrics.snapshot () in
  with_supervisor
    (supervised_config ~shards:2 ~exe:"/nonexistent/rgsworker" ())
    db
    (fun sup ->
      Alcotest.(check bool) "degraded from birth" true (Supervisor.degraded sup);
      let report = mine_supervised ~shards:2 sup db ~min_sup:3 in
      Alcotest.check sig_t "degraded run completes with identical output"
        (signatures baseline.Miner.results)
        (signatures report.Miner.results);
      let s = Supervisor.stats sup in
      Alcotest.(check int) "no processes ever spawned" 0 s.Supervisor.spawns;
      let d = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
      Alcotest.(check int) "supervisor_degraded gauge set" 1
        (Metrics.find d "supervisor_degraded"))

let test_flapping_degrades () =
  let db = quest ~seed:47 in
  let baseline = Miner.mine ~min_sup:3 db in
  (* every incarnation of both workers dies on its first request, and the
     per-shard budget is too big to save us: the global flap budget must
     cut the restart storm and degrade the whole run *)
  with_supervisor
    (supervised_config ~shards:2 ~restart_budget:1000 ~flap_budget:3
       ~worker_env:
         (fault_env { Chaos.wid = 0; psite = Chaos.Proc_kill; after = 1; persist = true })
       ())
    db
    (fun sup ->
      let report = mine_supervised ~shards:2 sup db ~min_sup:3 in
      Alcotest.check sig_t "flapping run output identical"
        (signatures baseline.Miner.results)
        (signatures report.Miner.results);
      let s = Supervisor.stats sup in
      Alcotest.(check bool) "degraded" true s.Supervisor.degraded;
      Alcotest.(check bool)
        "restart storm bounded by the flap budget" true
        (s.Supervisor.restarts <= 3 + 2))

(* --- the daemon's stale-socket probe (satellite regression) --- *)

let fresh_sock () =
  let path = Filename.temp_file "rgs-stale" ".sock" in
  Sys.remove path;
  path

let daemon_cfg sock dir = Daemon.config ~socket_path:sock ~state_dir:dir ()

let test_stale_socket_replaced () =
  let sock = fresh_sock () in
  let dir = Filename.temp_file "rgs-stale" ".dir" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  (* manufacture a crashed daemon's leftover: a bound socket file whose
     owner is gone (closed without unlink) *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX sock);
  Unix.close fd;
  Alcotest.(check bool) "stale socket file exists" true (Sys.file_exists sock);
  let t = Daemon.create (daemon_cfg sock dir) in
  (* a fresh daemon must have claimed the path *)
  Alcotest.(check bool) "socket re-bound" true (Sys.file_exists sock);
  Daemon.request_drain t;
  ignore (Daemon.serve t);
  (try Sys.remove sock with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())

let test_live_socket_refused () =
  let sock = fresh_sock () in
  let dir = Filename.temp_file "rgs-live" ".dir" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let a = Daemon.create (daemon_cfg sock dir) in
  let serving = Domain.spawn (fun () -> Daemon.serve a) in
  (* the loser must get EADDRINUSE, not silently steal the socket *)
  (match Daemon.create (daemon_cfg sock dir) with
  | _ -> Alcotest.fail "second daemon bound over a live socket"
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
  Daemon.request_drain a;
  ignore (Domain.join serving);
  (try Sys.remove sock with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())

let test_non_socket_file_preserved () =
  let path = Filename.temp_file "rgs-notsock" ".sock" in
  let oc = open_out path in
  output_string oc "precious data\n";
  close_out oc;
  let dir = Filename.temp_file "rgs-notsock" ".dir" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  (match Daemon.create (daemon_cfg path dir) with
  | _ -> Alcotest.fail "daemon bound over a regular file"
  | exception Unix.Unix_error _ -> ());
  (* the probe must never have unlinked a non-socket *)
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Alcotest.(check string) "regular file untouched" "precious data" line;
  Sys.remove path;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())

let suite =
  [
    test_encode_roundtrip;
    test_combine_decoded_parts;
    Alcotest.test_case "decode rejects garbage" `Quick
      test_decode_rejects_garbage;
    Alcotest.test_case "frame roundtrip + corrupt + timeout" `Quick
      test_frame_roundtrip;
    Alcotest.test_case "supervised = sequential" `Quick
      test_supervised_equals_sequential;
    Alcotest.test_case "supervised gap-constrained" `Quick
      test_supervised_gap_constrained;
    Alcotest.test_case "supervised multi-domain" `Quick
      test_supervised_multi_domain;
    Alcotest.test_case "supervised checkpointed run" `Quick
      test_supervised_checkpointed;
    Alcotest.test_case "chaos sweep: kill/hang/corrupt/slow" `Quick
      test_chaos_sweep;
    Alcotest.test_case "spawn failure degrades in-process" `Quick
      test_spawn_failure_degrades;
    Alcotest.test_case "flapping workers degrade" `Quick
      test_flapping_degrades;
    Alcotest.test_case "stale socket replaced after probe" `Quick
      test_stale_socket_replaced;
    Alcotest.test_case "live socket refused (EADDRINUSE)" `Quick
      test_live_socket_refused;
    Alcotest.test_case "non-socket file never deleted" `Quick
      test_non_socket_file_preserved;
  ]
