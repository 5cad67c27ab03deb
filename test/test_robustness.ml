(* Cross-semantics properties and failure injection: relations between the
   different support definitions, oracle guard rails, and I/O error
   handling. *)

open Rgs_sequence
open Rgs_core

let gen_db = Gens.db
let gen_pattern = Gens.pattern
let print_pair = Gens.print_db_pattern
let make = Gens.make

(* strict (footnote 1) support never exceeds the paper's support: strict
   non-overlap is a stronger requirement. *)
let prop_strict_le_support =
  make ~name:"strict overlap support <= repetitive support" ~count:200
    QCheck2.Gen.(pair (gen_db ~num_seqs:2 ~alphabet:3 ~max_len:6) (gen_pattern ~alphabet:3 ~max_len:3))
    print_pair
    (fun (db, p) ->
      Strict_overlap.support db p <= Sup_comp.support (Inverted_index.build db) p)

(* exact gap-constrained support is monotone in the gap bound and reaches
   the unconstrained support at large gaps *)
let prop_gap_monotone =
  make ~name:"exact gap support monotone in max_gap" ~count:150
    QCheck2.Gen.(pair (gen_db ~num_seqs:2 ~alphabet:3 ~max_len:6) (gen_pattern ~alphabet:3 ~max_len:3))
    print_pair
    (fun (db, p) ->
      let at g = Brute_force.support ~max_gap:g db p in
      let unconstrained = Brute_force.support db p in
      at 0 <= at 1
      && at 1 <= at 2
      && at 2 <= at 5
      && at 20 = unconstrained)

(* sequential support <= repetitive support (each containing sequence
   yields at least one instance) *)
let prop_sequential_le_repetitive =
  make ~name:"sequential support <= repetitive support" ~count:200
    QCheck2.Gen.(pair (gen_db ~num_seqs:4 ~alphabet:3 ~max_len:7) (gen_pattern ~alphabet:3 ~max_len:3))
    print_pair
    (fun (db, p) ->
      Rgs_baselines.Seq_mining.support db p
      <= Sup_comp.support (Inverted_index.build db) p)

(* iterative occurrences are a subset of all occurrences; minimal windows
   are no more numerous than gap-unbounded occurrences *)
let prop_iterative_le_all_occurrences =
  make ~name:"iterative occurrences <= all landmarks" ~count:200
    QCheck2.Gen.(pair (gen_db ~num_seqs:2 ~alphabet:3 ~max_len:6) (gen_pattern ~alphabet:3 ~max_len:3))
    print_pair
    (fun (db, p) ->
      Rgs_baselines.Iterative.db_support db p
      <= List.length (Brute_force.all_instances db p))

(* episode window support is monotone in the window width *)
let prop_episode_monotone_in_width =
  make ~name:"episode window support monotone in w" ~count:150
    QCheck2.Gen.(
      pair (list_size (int_range 1 8) (int_bound 2) >|= Sequence.of_list)
        (gen_pattern ~alphabet:3 ~max_len:3))
    (fun (s, p) ->
      Format.asprintf "seq: %a pattern: %s" Sequence.pp s (Pattern.to_string p))
    (fun (s, p) ->
      let at w = Rgs_baselines.Episode.window_support s p ~w in
      let n = max 1 (Sequence.length s) in
      (* wider windows contain at least the occurrences of narrower ones
         anchored at the same starts, but there are also fewer windows; the
         guaranteed monotonicity is on "some window contains": at n is 0/1 *)
      at n >= if Rgs_baselines.Seq_mining.contains s p then 1 else 0)

(* --- failure injection --- *)

let test_missing_file () =
  match Seq_io.load_tokens "/nonexistent/rgs/test/file.txt" with
  | exception Sys_error _ -> ()
  | _ -> Alcotest.fail "expected Sys_error"

let test_brute_force_budget () =
  (* A pathological sequence with exponentially many landmarks must hit
     the budget rather than hang. *)
  let s = Sequence.of_string (String.concat "" (List.init 15 (fun _ -> "AB"))) in
  let p = Pattern.of_string "ABABABAB" in
  match Brute_force.landmarks_in ~max_landmarks:1000 s p with
  | exception Brute_force.Too_large -> ()
  | landmarks ->
    Alcotest.failf "expected Too_large, got %d landmarks" (List.length landmarks)

let test_strict_overlap_budget () =
  let db = Seqdb.of_strings [ String.concat "" (List.init 40 (fun _ -> "AB")) ] in
  match Strict_overlap.support ~max_landmarks:100_000 db (Pattern.of_string "AB") with
  | exception Brute_force.Too_large -> ()
  | n -> Alcotest.failf "expected Too_large, got %d" n

let test_empty_database () =
  let db = Seqdb.of_sequences [] in
  let idx = Inverted_index.build db in
  Alcotest.(check int) "support in empty db" 0 (Sup_comp.support idx (Pattern.of_string "A"));
  let results, _ = Engine.mine Gsgrow.strategy idx ~min_sup:1 in
  Alcotest.(check int) "no patterns" 0 (List.length results);
  let closed, _ = Engine.mine Gens.closed idx ~min_sup:1 in
  Alcotest.(check int) "no closed patterns" 0 (List.length closed)

let test_empty_sequences_in_db () =
  let db = Seqdb.of_sequences [ Sequence.of_list []; Sequence.of_string "AB" ] in
  let idx = Inverted_index.build db in
  Alcotest.(check int) "AB" 1 (Sup_comp.support idx (Pattern.of_string "AB"));
  let results, _ = Engine.mine Gens.closed idx ~min_sup:1 in
  Alcotest.(check bool) "mines fine" true (results <> [])

let test_min_sup_above_everything () =
  let db = Seqdb.of_strings [ "ABCABC" ] in
  let idx = Inverted_index.build db in
  let results, _ = Engine.mine Gsgrow.strategy idx ~min_sup:1000 in
  Alcotest.(check int) "nothing frequent" 0 (List.length results)

(* --- resilient runtime: budgets, crash-isolated pool, checkpoint/resume --- *)

let signatures results =
  List.map (fun r -> (Pattern.to_string r.Mined.pattern, r.Mined.support)) results

let multiset results = List.sort compare (signatures results)

let mid_db =
  lazy
    (Rgs_datagen.Quest_gen.generate
       (Rgs_datagen.Quest_gen.params ~d:60 ~c:15 ~n:40 ~s:4 ~seed:7 ()))

let exn_injected = Failure "injected fault"

(* One root crashing in the pool — every time, so the sequential retry fails
   too — loses only that root's patterns; all other roots survive, all
   domains are joined (the call returns), and the outcome is Worker_failed. *)
let test_worker_crash_loses_one_root () =
  let db = Lazy.force mid_db in
  let idx = Inverted_index.build db in
  let min_sup = 5 in
  let events = Inverted_index.frequent_events idx ~min_sup in
  Alcotest.(check bool) "several roots" true (List.length events >= 3);
  let bad_root = List.nth events 1 in
  let bad_index = 1 in
  let full, _ = Engine.mine Gens.closed ~max_length:4 idx ~min_sup in
  let survivors =
    List.filter (fun r -> Pattern.get r.Mined.pattern 1 <> bad_root) full
  in
  let report =
    Budget.Fault.with_hook
      (function
        | Budget.Fault.Worker k when k = bad_index -> raise exn_injected
        | _ -> ())
      (fun () ->
        Gens.pool ~mode:Miner.Closed ~domains:3 ~max_length:4 idx ~min_sup)
  in
  Alcotest.(check (list (pair string int)))
    "other roots' patterns intact" (signatures survivors)
    (signatures report.Miner.results);
  Alcotest.(check bool) "worker failed" true
    (report.Miner.outcome = Budget.Worker_failed);
  Alcotest.(check int) "one root quarantined" 1 report.Miner.quarantined

(* A root crashing once recovers through the sequential retry: full results,
   Completed outcome. *)
let test_worker_crash_retry_recovers () =
  let db = Lazy.force mid_db in
  let idx = Inverted_index.build db in
  let min_sup = 5 in
  let full, _ = Engine.mine Gens.closed ~max_length:4 idx ~min_sup in
  let fired = Atomic.make false in
  let report =
    Budget.Fault.with_hook
      (function
        | Budget.Fault.Worker 0 when not (Atomic.exchange fired true) ->
          raise exn_injected
        | _ -> ())
      (fun () ->
        Gens.pool ~mode:Miner.Closed ~domains:3 ~max_length:4 idx ~min_sup)
  in
  Alcotest.(check (list (pair string int)))
    "retry recovers everything" (signatures full)
    (signatures report.Miner.results);
  Alcotest.(check bool) "completed" true
    (report.Miner.outcome = Budget.Completed)

(* Crashes injected at INSgrow granularity inside the sequential miner
   propagate to the caller (no pool to contain them). *)
let test_insgrow_fault_sequential () =
  let db = Seqdb.of_strings [ "ABCABC"; "ABCABC" ] in
  let idx = Inverted_index.build db in
  match
    Budget.Fault.with_hook
      (function Budget.Fault.Insgrow -> raise exn_injected | _ -> ())
      (fun () -> Engine.mine Gsgrow.strategy idx ~min_sup:2)
  with
  | exception Failure msg -> Alcotest.(check string) "fault surfaces" "injected fault" msg
  | _ -> Alcotest.fail "expected the injected fault to escape"

(* An expired deadline stops the search immediately with partial (here:
   empty) results instead of raising. *)
let test_deadline_immediate () =
  let db = Lazy.force mid_db in
  let idx = Inverted_index.build db in
  let budget = Budget.create ~deadline_s:0.0 () in
  let results, stats = Engine.mine Gens.closed ~budget idx ~min_sup:5 in
  Alcotest.(check bool) "deadline outcome" true
    (stats.Engine.outcome = Budget.Deadline_exceeded);
  Alcotest.(check int) "no patterns mined" 0 (List.length results);
  (* parallel flavour: pool drains gracefully, same outcome *)
  let preport =
    Miner.mine_indexed
      (Miner.config ~domains:3 ~deadline_s:0.0 ~min_sup:5 ())
      idx
  in
  Alcotest.(check int) "parallel empty too" 0
    (List.length preport.Miner.results);
  Alcotest.(check bool) "parallel deadline outcome" true
    (preport.Miner.outcome = Budget.Deadline_exceeded)

(* A DFS-node budget yields a partial result that is a sub-multiset of the
   full closed set, with outcome Truncated. *)
let test_node_budget_partial_subset () =
  let db = Lazy.force mid_db in
  let idx = Inverted_index.build db in
  let min_sup = 5 in
  let full, _ = Engine.mine Gens.closed ~max_length:4 idx ~min_sup in
  let budget = Budget.create ~max_nodes:40 () in
  let partial, stats = Engine.mine Gens.closed ~max_length:4 ~budget idx ~min_sup in
  Alcotest.(check bool) "truncated" true (stats.Engine.outcome = Budget.Truncated);
  Alcotest.(check bool) "strictly partial" true
    (List.length partial < List.length full);
  let full_set = multiset full in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%s in full set" (fst s))
        true (List.mem s full_set))
    (multiset partial)

let test_cancellation () =
  let db = Lazy.force mid_db in
  let idx = Inverted_index.build db in
  let budget = Budget.create () in
  Budget.cancel budget;
  let _, stats = Engine.mine Gsgrow.strategy ~budget idx ~min_sup:5 in
  Alcotest.(check bool) "cancelled" true (stats.Engine.outcome = Budget.Cancelled)

let test_memory_limit () =
  let db = Lazy.force mid_db in
  let idx = Inverted_index.build db in
  (* one word: trips on the first check *)
  let budget = Budget.create ~max_words:1 () in
  let _, stats = Engine.mine Gens.closed ~budget idx ~min_sup:5 in
  Alcotest.(check bool) "memory limit" true
    (stats.Engine.outcome = Budget.Memory_limit)

(* run_pool directly: exceptions are contained per root, the call returns
   (all domains joined), and untouched roots still complete. *)
let test_run_pool_isolation () =
  let mine_root k = if k mod 2 = 1 then raise exn_injected else k * 10 in
  let slots, halt = Parallel_miner.run_pool ~domains:4 ~num_roots:9 ~mine_root () in
  Alcotest.(check bool) "no budget halt" true (halt = None);
  Array.iteri
    (fun k status ->
      match status with
      | Parallel_miner.Done v when k mod 2 = 0 ->
        Alcotest.(check int) "even root mined" (k * 10) v
      | Parallel_miner.Failed e when k mod 2 = 1 ->
        Alcotest.(check bool) "odd root failed" true (e = exn_injected)
      | _ -> Alcotest.failf "unexpected status for root %d" k)
    slots;
  (* retry with a now-clean mine_root heals every failure *)
  let healed = Parallel_miner.retry_failed ~mine_root:(fun k -> k * 10) slots in
  Array.iteri
    (fun k status ->
      match status with
      | Parallel_miner.Done v -> Alcotest.(check int) "healed" (k * 10) v
      | _ -> Alcotest.failf "root %d not healed" k)
    healed

let with_temp_checkpoint f =
  let path = Filename.temp_file "rgs_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* The acceptance scenario: a node-budget-stopped run checkpoints its
   completed roots; resuming with the limit lifted yields the exact pattern
   multiset (and order) of an uninterrupted run. *)
let test_checkpoint_resume_equals_uninterrupted () =
  with_temp_checkpoint (fun path ->
      let db = Lazy.force mid_db in
      let min_sup = 5 in
      let full = Miner.mine ~config:(Miner.config ~min_sup ~max_length:4 ()) db in
      let stopped =
        Miner.mine ~checkpoint:path
          ~config:(Miner.config ~min_sup ~max_length:4 ~max_nodes:60 ())
          db
      in
      Alcotest.(check bool) "stopped early" true
        (stopped.Miner.outcome = Budget.Truncated);
      Alcotest.(check bool) "partial is smaller" true
        (List.length stopped.Miner.results < List.length full.Miner.results);
      (* partial results are a sub-multiset of the full answer *)
      let full_set = multiset full.Miner.results in
      List.iter
        (fun s -> Alcotest.(check bool) "partial in full" true (List.mem s full_set))
        (multiset stopped.Miner.results);
      (* resume without the node budget: must complete and match exactly *)
      let resumed =
        Miner.mine ~checkpoint:path ~resume:true
          ~config:(Miner.config ~min_sup ~max_length:4 ())
          db
      in
      Alcotest.(check bool) "resume completed" true
        (resumed.Miner.outcome = Budget.Completed);
      Alcotest.(check (list (pair string int)))
        "resumed = uninterrupted (order included)"
        (signatures full.Miner.results) (signatures resumed.Miner.results))

(* Resuming repeatedly under the same small budget also converges to the
   uninterrupted answer: each leg banks at least the roots it finished. *)
let test_checkpoint_resume_iterated () =
  with_temp_checkpoint (fun path ->
      let db = Lazy.force mid_db in
      let min_sup = 6 in
      let full = Miner.mine ~config:(Miner.config ~min_sup ~max_length:3 ()) db in
      let budgeted = Miner.config ~min_sup ~max_length:3 ~max_nodes:200 () in
      let rec converge resume n =
        if n > 50 then Alcotest.fail "did not converge in 50 resumes"
        else
          let report = Miner.mine ~checkpoint:path ~resume ~config:budgeted db in
          if report.Miner.outcome = Budget.Completed then report else converge true (n + 1)
      in
      let final = converge false 0 in
      Alcotest.(check (list (pair string int)))
        "iterated resume converges to the full answer"
        (signatures full.Miner.results) (signatures final.Miner.results))

(* A worker crash under the pool still checkpoints the surviving roots.
   The persistent fault crashes root 0 in the pool AND in the retry, so it
   is quarantined; a plain resume (fault cleared) skips it, and a resume
   with [retry_quarantined] re-mines it and completes. *)
let test_checkpoint_after_worker_crash () =
  with_temp_checkpoint (fun path ->
      let db = Lazy.force mid_db in
      let min_sup = 5 in
      let cfg = Miner.config ~min_sup ~max_length:4 ~domains:3 () in
      let full = Miner.mine ~config:(Miner.config ~min_sup ~max_length:4 ()) db in
      let crashed =
        Budget.Fault.with_hook
          (function Budget.Fault.Worker 0 -> raise exn_injected | _ -> ())
          (fun () -> Miner.mine ~checkpoint:path ~config:cfg db)
      in
      Alcotest.(check bool) "worker failed" true
        (crashed.Miner.outcome = Budget.Worker_failed);
      Alcotest.(check int) "root quarantined" 1 crashed.Miner.quarantined;
      let skipped = Miner.mine ~checkpoint:path ~resume:true ~config:cfg db in
      Alcotest.(check int) "plain resume skips the poison root" 1
        skipped.Miner.quarantined;
      Alcotest.(check bool) "plain resume still Worker_failed" true
        (skipped.Miner.outcome = Budget.Worker_failed);
      let resumed =
        Miner.mine ~checkpoint:path ~resume:true
          ~retry_quarantined:true ~config:cfg db
      in
      Alcotest.(check bool) "retry_quarantined resume completed" true
        (resumed.Miner.outcome = Budget.Completed);
      Alcotest.(check int) "no roots quarantined anymore" 0
        resumed.Miner.quarantined;
      Alcotest.(check (list (pair string int)))
        "resume fills in the crashed root"
        (signatures full.Miner.results) (signatures resumed.Miner.results))

(* Checkpoints refuse to resume against different parameters or data. *)
let test_checkpoint_fingerprint_mismatch () =
  with_temp_checkpoint (fun path ->
      let db = Lazy.force mid_db in
      let _ =
        Miner.mine ~checkpoint:path
          ~config:(Miner.config ~min_sup:5 ~max_length:3 ~max_nodes:60 ())
          db
      in
      match
        Miner.mine ~checkpoint:path ~resume:true
          ~config:(Miner.config ~min_sup:6 ~max_length:3 ())
          db
      with
      | exception Checkpoint.Corrupt _ -> ()
      | _ -> Alcotest.fail "expected Corrupt on changed min_sup")

(* A top-k log written under the earlier tie rule (no tie marker in its
   fingerprint) holds other tied patterns per root, so it is refused
   rather than resumed into a different answer; the All and Targeted
   fingerprints are unchanged, so their logs still resume. *)
let test_checkpoint_topk_tie_rule () =
  let db = Lazy.force mid_db in
  let resumes query extra =
    with_temp_checkpoint (fun path ->
        Checkpoint.write ~path
          ~fingerprint:
            (Checkpoint.fingerprint ~params:([ "closed"; "5"; "3" ] @ extra) db)
          ~completed:[] ~quarantined:[] ();
        match
          Miner.mine ~checkpoint:path ~resume:true
            ~config:(Miner.config ~query ~min_sup:5 ~max_length:3 ())
            db
        with
        | exception Checkpoint.Corrupt _ -> false
        | _ -> true)
  in
  Alcotest.(check bool) "earlier top-k log refused" false
    (resumes (Query.Top_k 4) [ "query=topk:4" ]);
  Alcotest.(check bool) "all log resumes" true (resumes Query.All []);
  Alcotest.(check bool) "targeted log resumes" true
    (resumes (Query.Targeted (Pattern.of_list [ 0 ])) [ "query=target:0" ])

(* A top-k log written before roots shared a board holds each root's
   local top-k answer (a fresh collector per root, its floor starting at
   min_sup): a superset of the entries a root records now. Its
   fingerprint is unchanged, so it resumes, and to the same answer —
   whether it covers every root or only the first few. *)
let test_checkpoint_topk_local_answers () =
  let db = Lazy.force mid_db in
  let k = 4 and min_sup = 5 and max_length = 3 in
  let cfg = Miner.config ~query:(Query.Top_k k) ~min_sup ~max_length () in
  let full = Miner.mine ~config:cfg db in
  let idx = Inverted_index.build db in
  let events = Inverted_index.frequent_events idx ~min_sup in
  let local root =
    let c = Query.collector ~max_length ~events ~min_sup (Query.Top_k k) in
    ignore
      (Engine.run ~max_length ~events ~roots:[ root ] ~plan:c.Query.plan
         Gens.closed idx ~min_sup ~emit:c.Query.offer);
    { Checkpoint.root; results = c.Query.results () }
  in
  let locals = List.map local events in
  let fingerprint =
    Checkpoint.fingerprint
      ~params:[ "closed"; "5"; "3"; "query=topk:4"; "ties=arrival" ]
      db
  in
  let recorded_now =
    with_temp_checkpoint (fun path ->
        ignore (Miner.mine ~checkpoint:path ~config:cfg db);
        (Checkpoint.load ~path ~expected_fingerprint:fingerprint)
          .Checkpoint.completed)
  in
  let size entries =
    List.fold_left (fun n e -> n + List.length e.Checkpoint.results) 0 entries
  in
  Alcotest.(check bool)
    (Printf.sprintf "local answers hold more (%d > %d entries)" (size locals)
       (size recorded_now))
    true
    (size locals > size recorded_now);
  List.iter
    (fun n ->
      with_temp_checkpoint (fun path ->
          Checkpoint.write ~path ~fingerprint
            ~completed:(List.filteri (fun i _ -> i < n) locals)
            ~quarantined:[] ();
          let resumed =
            Miner.mine ~checkpoint:path ~resume:true ~config:cfg db
          in
          Alcotest.(check bool) "resume completed" true
            (resumed.Miner.outcome = Budget.Completed);
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%d of %d local answers resume to the answer" n
               (List.length locals))
            (signatures full.Miner.results)
            (signatures resumed.Miner.results)))
    [ List.length locals; List.length locals / 2 ]

let test_checkpoint_corrupt_file () =
  with_temp_checkpoint (fun path ->
      let oc = open_out_bin path in
      output_string oc "not a checkpoint at all";
      close_out oc;
      match Checkpoint.load ~path ~expected_fingerprint:"x" with
      | exception Checkpoint.Corrupt _ -> ()
      | _ -> Alcotest.fail "expected Corrupt on garbage file")

let test_config_validation () =
  Alcotest.check_raises "min_sup 0" (Invalid_argument "Miner: min_sup must be >= 1")
    (fun () -> ignore (Miner.config ~min_sup:0 ()));
  Alcotest.check_raises "negative min_sup"
    (Invalid_argument "Miner: min_sup must be >= 1") (fun () ->
      ignore (Miner.config ~min_sup:(-3) ()));
  Alcotest.check_raises "negative deadline"
    (Invalid_argument "Miner: deadline_s must be >= 0") (fun () ->
      ignore (Miner.config ~min_sup:1 ~deadline_s:(-1.0) ()));
  (* hand-built configs cannot bypass validation either *)
  let bad = { (Miner.config ~min_sup:1 ()) with Miner.min_sup = 0 } in
  Alcotest.check_raises "mine rejects bad record"
    (Invalid_argument "Miner: min_sup must be >= 1") (fun () ->
      ignore (Miner.mine ~config:bad (Seqdb.of_strings [ "AB" ])))

let test_outcome_severity () =
  Alcotest.(check bool) "completed not stop" false (Budget.is_stop Budget.Completed);
  Alcotest.(check bool) "worker_failed dominates" true
    (Budget.combine Budget.Deadline_exceeded Budget.Worker_failed
    = Budget.Worker_failed);
  Alcotest.(check bool) "combine is max" true
    (Budget.combine Budget.Truncated Budget.Completed = Budget.Truncated)

(* --- durable log: checked-in corrupt-checkpoint corpus --- *)

(* The fixtures under test/fixtures/ pin the exact bytes a crash can leave
   behind; test/tools/gen_fixtures.ml regenerates them when the framing
   changes. *)
let fixture name =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "fixtures")
    name

let fixture_fp = String.make 32 'a'

let completed_roots (t : Checkpoint.t) =
  List.map (fun (e : Checkpoint.entry) -> e.Checkpoint.root) t.Checkpoint.completed

let test_fixture_full () =
  let t = Checkpoint.load ~path:(fixture "full.ckpt") ~expected_fingerprint:fixture_fp in
  Alcotest.(check (list int)) "all roots" [ 1; 2; 3 ] (completed_roots t);
  Alcotest.(check int) "clean load" 0 t.Checkpoint.salvaged_bytes;
  Alcotest.(check bool) "completed outcome" true (t.Checkpoint.outcome = Budget.Completed)

let test_fixture_truncated_mid_record () =
  let t =
    Checkpoint.load
      ~path:(fixture "truncated_mid_record.ckpt")
      ~expected_fingerprint:fixture_fp
  in
  Alcotest.(check (list int)) "whole-record prefix" [ 1; 2 ] (completed_roots t);
  Alcotest.(check bool) "torn tail measured" true (t.Checkpoint.salvaged_bytes > 0)

let test_fixture_flipped_crc () =
  let t =
    Checkpoint.load ~path:(fixture "flipped_crc.ckpt") ~expected_fingerprint:fixture_fp
  in
  (* record 2's CRC is corrupted: salvage stops before it even though
     record 3 is intact — a log is only trusted up to the first bad frame *)
  Alcotest.(check (list int)) "stops at first bad frame" [ 1 ] (completed_roots t);
  Alcotest.(check bool) "torn tail measured" true (t.Checkpoint.salvaged_bytes > 0)

let test_fixture_unusable () =
  let expect_corrupt name =
    match Checkpoint.load ~path:(fixture name) ~expected_fingerprint:fixture_fp with
    | exception Checkpoint.Corrupt _ -> ()
    | _ -> Alcotest.failf "%s: expected Corrupt" name
  in
  expect_corrupt "wrong_version.ckpt";
  expect_corrupt "empty.ckpt"

(* A genuine version-2 log (Marshal payloads) is refused by name, before
   its fingerprint or any record is looked at. *)
let test_fixture_v2_log () =
  match
    Checkpoint.load ~path:(fixture "v2_log.ckpt") ~expected_fingerprint:fixture_fp
  with
  | exception Checkpoint.Corrupt msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%S names both versions" msg)
      true
      (Filename.check_suffix msg "version 2, expected 3")
  | _ -> Alcotest.fail "v2_log.ckpt: expected Corrupt"

(* --- salvage at arbitrary truncation points --- *)

let header_len =
  String.length "RGS-CHECKPOINT\n"
  + String.length (Printf.sprintf "v%d %s\n" Checkpoint.version fixture_fp)

(* A realistic log image: real mined results marshalled into 7 roots. *)
let salvage_image =
  lazy
    (let db = Lazy.force mid_db in
     let report = Miner.mine ~config:(Miner.config ~min_sup:5 ~max_length:3 ()) db in
     let chunk k = List.filteri (fun i _ -> i mod 7 = k) report.Miner.results in
     let completed = List.init 7 (fun k -> { Checkpoint.root = k; results = chunk k }) in
     let path = Filename.temp_file "rgs_ckpt_img" ".bin" in
     Fun.protect
       ~finally:(fun () -> Sys.remove path)
       (fun () ->
         Checkpoint.write ~path ~fingerprint:fixture_fp ~completed ~quarantined:[] ();
         let ic = open_in_bin path in
         Fun.protect
           ~finally:(fun () -> close_in_noerr ic)
           (fun () -> (really_input_string ic (in_channel_length ic), completed))))

(* Load the image cut at byte [cut] and check the salvage contract: Corrupt
   iff the header itself is torn, otherwise a whole-record prefix of the
   original log with intact payloads and no invented records. *)
let check_cut image completed cut =
  let path = Filename.temp_file "rgs_ckpt_cut" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc (String.sub image 0 cut);
      close_out oc;
      match Checkpoint.load ~path ~expected_fingerprint:fixture_fp with
      | exception Checkpoint.Corrupt _ -> cut < header_len
      | t ->
        (* a header torn exactly at its final newline still carries the whole
           fingerprint (input_line EOF-terminates), so loading it as an empty
           log is acceptable — hence header_len - 1 *)
        cut >= header_len - 1
        && t.Checkpoint.salvaged_bytes >= 0
        && t.Checkpoint.salvaged_bytes <= max 0 (cut - header_len)
        && (cut < String.length image || t.Checkpoint.salvaged_bytes = 0)
        && List.length t.Checkpoint.completed <= List.length completed
        && List.for_all2
             (fun (got : Checkpoint.entry) (want : Checkpoint.entry) ->
               got.Checkpoint.root = want.Checkpoint.root
               && multiset got.Checkpoint.results = multiset want.Checkpoint.results)
             t.Checkpoint.completed
             (List.filteri
                (fun i _ -> i < List.length t.Checkpoint.completed)
                completed))

let prop_salvage_any_truncation =
  make ~name:"checkpoint salvage at any truncation point" ~count:120
    QCheck2.Gen.(int_bound 10_000)
    string_of_int
    (fun permille ->
      let image, completed = Lazy.force salvage_image in
      let len = String.length image in
      let cut = min len (permille * len / 10_000) in
      check_cut image completed cut)

(* the random property rarely lands inside the 51-byte header or the first
   frame boundary; sweep those cuts exhaustively *)
let test_salvage_header_cuts () =
  let image, completed = Lazy.force salvage_image in
  for cut = 0 to min (String.length image) (header_len + 64) do
    if not (check_cut image completed cut) then
      Alcotest.failf "salvage contract violated at cut %d" cut
  done

(* --- the frame checksum --- *)

(* The byte-at-a-time definition the frame checksum had before it became
   [Wire]'s [for] loop over [String.unsafe_get]: the oracle the fast one
   must match. *)
let crc32_oracle s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

let test_crc32_known_vector () =
  Alcotest.(check int) "CRC-32 check value" 0xCBF43926 (Wire.crc32 "123456789");
  Alcotest.(check int) "empty string" 0 (Wire.crc32 "");
  Alcotest.(check int) "sub-range" 0xCBF43926
    (Wire.crc32_sub "xx123456789yy" 2 9);
  Alcotest.check_raises "range outside the string"
    (Invalid_argument "Wire.crc32_sub") (fun () ->
      ignore (Wire.crc32_sub "abc" 2 2))

let prop_crc32_oracle =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 23 |])
    (QCheck2.Test.make ~name:"crc32 = byte-at-a-time oracle" ~count:300
       ~print:(fun (s, off, len) -> Printf.sprintf "%S [%d, +%d)" s off len)
       QCheck2.Gen.(
         string_size (int_bound 300) >>= fun s ->
         let n = String.length s in
         int_bound n >>= fun off ->
         int_bound (n - off) >|= fun len -> (s, off, len))
       (fun (s, off, len) ->
         Wire.crc32 s = crc32_oracle s
         && Wire.crc32_sub s off len = crc32_oracle (String.sub s off len)))

(* the store verifies mapped sections with [crc32_map]: it must agree
   with the string checksum over the same bytes *)
let prop_crc32_map =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |])
    (QCheck2.Test.make ~name:"crc32_map = crc32 over the same bytes" ~count:300
       ~print:(fun (s, off, len) -> Printf.sprintf "%S [%d, +%d)" s off len)
       QCheck2.Gen.(
         string_size (int_bound 300) >>= fun s ->
         let n = String.length s in
         int_bound n >>= fun off ->
         int_bound (n - off) >|= fun len -> (s, off, len))
       (fun (s, off, len) ->
         let m = Bigarray.(Array1.create char c_layout (String.length s)) in
         String.iteri (fun i c -> m.{i} <- c) s;
         Wire.crc32_map m ~pos:off ~len = Wire.crc32 (String.sub s off len)
         && (off + len + 1 <= String.length s
            || match Wire.crc32_map m ~pos:off ~len:(len + 1) with
               | _ -> false
               | exception Invalid_argument _ -> true)))

(* --- record payload mutations: salvage as torn or round-trip --- *)

(* The payloads of a realistic log (real mined results, a quarantine with
   free text, the outcome) — the mutation property's seeds. *)
let mutation_payloads =
  lazy
    (let _, completed = Lazy.force salvage_image in
     Array.of_list
       (List.map (fun e -> Checkpoint.encode_record (Checkpoint.Root_done e)) completed
       @ [
           Checkpoint.encode_record
             (Checkpoint.Root_quarantined
                { root = 42; reason = "Failure(\"boom\")"; backtrace = "at x\nat y" });
           Checkpoint.encode_record (Checkpoint.Run_outcome Budget.Interrupted);
         ]))

let frame_bytes ?len payload =
  let b = Bytes.create 8 in
  let set off v =
    for i = 0 to 3 do
      Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xFF))
    done
  in
  set 0 (Option.value len ~default:(String.length payload));
  set 4 (Wire.crc32 payload);
  Bytes.to_string b ^ payload

(* Every mutated payload either fails the codec (and a log ending in its
   frame salvages everything before it, dropping exactly that frame) or
   decodes to a record that re-encodes to the same bytes (and the log
   loads clean) — so an overlong varint, which would decode to a value
   that re-encodes shorter, must be refused. A frame whose length field
   lies is always torn. The
   frames carry a valid CRC of the mutated payload, so the codec — not
   the checksum — is what is being attacked. *)
let prop_record_mutations =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 17 |])
    (QCheck2.Test.make ~name:"checkpoint record mutations: torn or round-trip"
       ~count:400 ~print:Gens.print_mutation Gens.gen_mutation (fun (i, m) ->
         let payloads = Lazy.force mutation_payloads in
         let first = payloads.(0) in
         let payload = payloads.(1 + (i mod (Array.length payloads - 1))) in
         let mutated = Gens.apply_mutation payload m in
         let last =
           match m with
           | Gens.Frame_lie d ->
             frame_bytes ~len:(max 0 (String.length mutated + d)) mutated
           | _ -> frame_bytes mutated
         in
         let decoded =
           match Checkpoint.decode_record mutated with
           | r -> Some r
           | exception Invalid_argument _ -> None
         in
         let codec_ok =
           match decoded with
           | None -> true
           | Some r -> Checkpoint.encode_record r = mutated
         in
         let path = Filename.temp_file "rgs_ckpt_mut" ".bin" in
         Fun.protect
           ~finally:(fun () -> Sys.remove path)
           (fun () ->
             let oc = open_out_bin path in
             output_string oc
               (Printf.sprintf "RGS-CHECKPOINT\nv%d %s\n" Checkpoint.version
                  fixture_fp);
             output_string oc (frame_bytes first);
             output_string oc last;
             close_out oc;
             let t = Checkpoint.load ~path ~expected_fingerprint:fixture_fp in
             let torn =
               t.Checkpoint.salvaged_bytes = String.length last
               && List.map
                    (fun (e : Checkpoint.entry) -> e.Checkpoint.root)
                    t.Checkpoint.completed
                  = [ 0 ]
             in
             codec_ok
             &&
             match (m, decoded) with
             | Gens.Frame_lie _, _ | _, None -> torn
             | _, Some _ -> t.Checkpoint.salvaged_bytes = 0)))

(* [Root_done] with root [-1] and no results: the canonical 9-byte varint
   [ff ff ff ff ff ff ff ff 7f] sets bit 62, which no writer emits.
   [Wire.get_uint] refuses it for every boundary, so the checkpoint
   codec refuses it too and a log ending in its frame salvages that
   frame as torn. *)
let test_record_root_past_max () =
  let payload = "\x01\xff\xff\xff\xff\xff\xff\xff\xff\x7f\x00" in
  (match Checkpoint.decode_record payload with
  | _ -> Alcotest.fail "a varint at or above 2^62 was decoded"
  | exception Invalid_argument _ -> ());
  let first = (Lazy.force mutation_payloads).(0) in
  let last = frame_bytes payload in
  let path = Filename.temp_file "rgs_ckpt_root" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc
        (Printf.sprintf "RGS-CHECKPOINT\nv%d %s\n" Checkpoint.version fixture_fp);
      output_string oc (frame_bytes first);
      output_string oc last;
      close_out oc;
      let t = Checkpoint.load ~path ~expected_fingerprint:fixture_fp in
      Alcotest.(check int) "the frame is salvaged as torn" (String.length last)
        t.Checkpoint.salvaged_bytes;
      Alcotest.(check (list int)) "the record before it survives" [ 0 ]
        (List.map (fun (e : Checkpoint.entry) -> e.Checkpoint.root) t.Checkpoint.completed))

(* --- stale temp files from a killed process are swept on the next save --- *)

let test_stale_temp_sweep () =
  with_temp_checkpoint (fun path ->
      let stale =
        Filename.concat (Filename.dirname path) "rgs-ckpt-killed-123.tmp"
      in
      close_out (open_out stale);
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists stale then Sys.remove stale)
        (fun () ->
          Checkpoint.write ~path ~fingerprint:fixture_fp ~completed:[] ~quarantined:[] ();
          Alcotest.(check bool) "stale temp swept" false (Sys.file_exists stale);
          Alcotest.(check bool) "checkpoint written" true (Sys.file_exists path)))

(* --- checkpoint I/O faults degrade durability, never the mining run --- *)

let test_checkpoint_io_transient () =
  with_temp_checkpoint (fun path ->
      let db = Lazy.force mid_db in
      let cfg = Miner.config ~min_sup:5 ~max_length:3 () in
      let full = Miner.mine ~config:cfg db in
      let before = Metrics.snapshot () in
      let fired = ref false in
      let report =
        Budget.Fault.with_hook
          (function
            | Budget.Fault.Checkpoint_io when not !fired ->
              fired := true;
              failwith "injected: transient disk error"
            | _ -> ())
          (fun () -> Miner.mine ~checkpoint:path ~config:cfg db)
      in
      let delta = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
      Alcotest.(check bool) "run completed" true (report.Miner.outcome = Budget.Completed);
      Alcotest.(check (list (pair string int))) "results unaffected"
        (multiset full.Miner.results) (multiset report.Miner.results);
      Alcotest.(check bool) "write retried" true
        (Metrics.find delta "checkpoint_io_retries" >= 1);
      Alcotest.(check int) "no write abandoned" 0
        (Metrics.find delta "checkpoint_io_failures");
      (* the log survived the hiccup: a resume replays it cleanly *)
      let resumed = Miner.mine ~checkpoint:path ~resume:true ~config:cfg db in
      Alcotest.(check (list (pair string int))) "log still resumable"
        (multiset full.Miner.results) (multiset resumed.Miner.results))

let test_checkpoint_io_persistent () =
  with_temp_checkpoint (fun path ->
      let db = Lazy.force mid_db in
      let cfg = Miner.config ~min_sup:5 ~max_length:3 () in
      let full = Miner.mine ~config:cfg db in
      let before = Metrics.snapshot () in
      let report =
        Budget.Fault.with_hook
          (function
            | Budget.Fault.Checkpoint_io -> failwith "injected: disk gone"
            | _ -> ())
          (fun () -> Miner.mine ~checkpoint:path ~config:cfg db)
      in
      let delta = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
      (* durability is lost, the answer is not *)
      Alcotest.(check bool) "run completed" true (report.Miner.outcome = Budget.Completed);
      Alcotest.(check (list (pair string int))) "results unaffected"
        (multiset full.Miner.results) (multiset report.Miner.results);
      Alcotest.(check bool) "write abandoned" true
        (Metrics.find delta "checkpoint_io_failures" >= 1))

(* --- cooperative shutdown: the flag stops the run, the log records it,
       and a resume finishes the job --- *)

let test_shutdown_flag_interrupts_and_resumes () =
  with_temp_checkpoint (fun path ->
      let db = Lazy.force mid_db in
      (* max_nodes far above the run's size: present only so a budget is
         created (the shutdown flag is polled by Budget.check) *)
      let cfg = Miner.config ~min_sup:5 ~max_length:3 ~max_nodes:10_000_000 () in
      let full = Miner.mine ~config:cfg db in
      Budget.reset_shutdown ();
      let calls = ref 0 in
      let interrupted =
        Fun.protect ~finally:Budget.reset_shutdown (fun () ->
            Budget.Fault.with_hook
              (function
                | Budget.Fault.Insgrow ->
                  incr calls;
                  if !calls = 20 then Budget.request_shutdown ()
                | _ -> ())
              (fun () -> Miner.mine ~checkpoint:path ~config:cfg db))
      in
      Alcotest.(check bool) "interrupted" true
        (interrupted.Miner.outcome = Budget.Interrupted);
      Alcotest.(check bool) "partial results" true
        (List.length interrupted.Miner.results < List.length full.Miner.results);
      let resumed = Miner.mine ~checkpoint:path ~resume:true ~config:cfg db in
      Alcotest.(check bool) "resume completed" true
        (resumed.Miner.outcome = Budget.Completed);
      Alcotest.(check (list (pair string int))) "resume heals the interruption"
        (multiset full.Miner.results) (multiset resumed.Miner.results))

(* --- end-to-end: the real binary under kill -9 and SIGTERM --- *)

let rgsminer_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "rgsminer.exe"))

let quest_small =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "data" "quest_small.txt"))

let read_all fd =
  let buf = Buffer.create 8192 in
  let chunk = Bytes.create 8192 in
  let rec loop () =
    let n = Unix.read fd chunk 0 (Bytes.length chunk) in
    if n > 0 then (
      Buffer.add_subbytes buf chunk 0 n;
      loop ())
  in
  loop ();
  Unix.close fd;
  Buffer.contents buf

(* Run rgsminer as a real child process, optionally slowing each root down
   (the RGS_CHAOS_ROOT_DELAY_MS knob) and signalling it mid-run. Returns
   the wait status and the captured stdout; stderr is discarded unless
   [capture_stderr] merges it into the capture. *)
let run_rgsminer ?root_delay_ms ?kill ?(capture_stderr = false) args =
  if not (Sys.file_exists rgsminer_exe) then Alcotest.fail "rgsminer.exe not built";
  let env =
    match root_delay_ms with
    | None -> Unix.environment ()
    | Some ms ->
      Array.append (Unix.environment ())
        [| Printf.sprintf "RGS_CHAOS_ROOT_DELAY_MS=%d" ms |]
  in
  let out_read, out_write = Unix.pipe () in
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process_env rgsminer_exe
      (Array.of_list (rgsminer_exe :: args))
      env Unix.stdin out_write
      (if capture_stderr then out_write else dev_null)
  in
  Unix.close out_write;
  Unix.close dev_null;
  (match kill with
  | None -> ()
  | Some (after_s, signal) ->
    Unix.sleepf after_s;
    (try Unix.kill pid signal with Unix.Unix_error (Unix.ESRCH, _, _) -> ()));
  let out = read_all out_read in
  let _, status = Unix.waitpid [] pid in
  (status, out)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* pp_report prints the wall-clock time; strip it before comparing two
   runs' stdout byte-for-byte. *)
let normalize_report out =
  String.split_on_char '\n' out
  |> List.map (fun line ->
         if contains line " pattern" && contains line " in " then
           let rec cut i =
             if i + 4 > String.length line then line
             else if String.sub line i 4 = " in " then String.sub line 0 i
             else cut (i + 1)
           in
           cut 0
         else line)
  |> String.concat "\n"

let e2e_args extra = [ "--min-sup"; "3"; "--max-length"; "3"; "--limit"; "100000" ] @ extra @ [ quest_small ]

(* The acceptance scenario for the durable log: a run killed outright
   (kill -9, no handler runs, the in-flight record may be torn) leaves a
   salvageable log, and resuming reproduces the uninterrupted run's stdout
   exactly. *)
let test_e2e_kill9_resume () =
  with_temp_checkpoint (fun ckpt ->
      let status_base, out_base = run_rgsminer (e2e_args []) in
      Alcotest.(check bool) "baseline exit 0" true (status_base = Unix.WEXITED 0);
      let status_killed, _ =
        run_rgsminer ~root_delay_ms:50 ~kill:(0.6, Sys.sigkill)
          (e2e_args [ "--checkpoint"; ckpt ])
      in
      Alcotest.(check bool) "killed outright" true
        (status_killed = Unix.WSIGNALED Sys.sigkill);
      Alcotest.(check bool) "log left behind" true (Sys.file_exists ckpt);
      let status_res, out_res =
        run_rgsminer (e2e_args [ "--checkpoint"; ckpt; "--resume" ])
      in
      Alcotest.(check bool) "resume exit 0" true (status_res = Unix.WEXITED 0);
      Alcotest.(check string) "resumed stdout = uninterrupted stdout"
        (normalize_report out_base) (normalize_report out_res))

(* A log left by a version-2 build is refused at --resume with the
   version named, not salvaged as an empty log and silently re-mined. *)
let test_e2e_resume_refuses_v2 () =
  with_temp_checkpoint (fun ckpt ->
      let ic = open_in_bin (fixture "v2_log.ckpt") in
      let image = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin ckpt in
      output_string oc image;
      close_out oc;
      let status, out =
        run_rgsminer ~capture_stderr:true
          (e2e_args [ "--checkpoint"; ckpt; "--resume" ])
      in
      Alcotest.(check bool) "exit 1" true (status = Unix.WEXITED 1);
      Alcotest.(check bool)
        (Printf.sprintf "%S names the version" out)
        true
        (contains out "version 2, expected 3"))

(* A store packed by a version-1 build (the sequence-major CSR layout) is
   refused at --store with the FORMAT.md §2.2 version error, not mined. *)
let test_e2e_store_refuses_v1 () =
  let status, out =
    run_rgsminer ~capture_stderr:true
      [ "--min-sup"; "2"; "--store"; fixture "v1_store.rgsdb" ]
  in
  Alcotest.(check bool) "exit 1" true (status = Unix.WEXITED 1);
  Alcotest.(check bool)
    (Printf.sprintf "%S names the version" out)
    true
    (contains out "\xc2\xa72.2: unsupported version 1")

(* Processes whose command line names [needle], read from /proc (empty
   where there is no /proc). Workers are spawned with [--store PATH], so a
   store path unique to one test finds exactly that test's workers. *)
let processes_naming needle =
  match Sys.readdir "/proc" with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter (fun pid ->
           int_of_string_opt pid <> None
           &&
           match open_in_bin (Filename.concat "/proc" (Filename.concat pid "cmdline")) with
           | exception Sys_error _ -> false
           | ic ->
             let cmdline =
               Fun.protect
                 ~finally:(fun () -> close_in_noerr ic)
                 (fun () -> In_channel.input_all ic)
             in
             contains cmdline needle)

(* Same acceptance scenario with supervised shard workers: the per-shard
   merge is invisible to the checkpoint (the fingerprint deliberately
   excludes the shard count), so a kill -9 mid-run under --workers 3
   resumes without workers to exactly the uninterrupted run's stdout. The
   run mines a store packed here: a SIGKILLed supervisor cannot remove the
   temporary store it packs for text input. Its workers see EOF on their
   pipes and exit, so none outlives the test. *)
let test_e2e_kill9_resume_workers () =
  let store = Filename.temp_file "rgs_e2e_workers" ".rgsdb" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists store then Sys.remove store)
    (fun () ->
      let status_pack, _ = run_rgsminer [ "pack"; quest_small; "-o"; store ] in
      Alcotest.(check bool) "pack exit 0" true (status_pack = Unix.WEXITED 0);
      let store_args extra =
        [ "--min-sup"; "3"; "--max-length"; "3"; "--limit"; "100000"; "--store"; store ]
        @ extra
      in
      with_temp_checkpoint (fun ckpt ->
          let status_base, out_base = run_rgsminer (store_args []) in
          Alcotest.(check bool) "baseline exit 0" true (status_base = Unix.WEXITED 0);
          let status_killed, _ =
            run_rgsminer ~root_delay_ms:50 ~kill:(0.6, Sys.sigkill)
              (store_args [ "--checkpoint"; ckpt; "--workers"; "3" ])
          in
          Alcotest.(check bool) "killed outright" true
            (status_killed = Unix.WSIGNALED Sys.sigkill);
          Alcotest.(check bool) "log left behind" true (Sys.file_exists ckpt);
          (* resume WITHOUT --workers: the log must be interchangeable *)
          let status_res, out_res =
            run_rgsminer (store_args [ "--checkpoint"; ckpt; "--resume" ])
          in
          Alcotest.(check bool) "resume exit 0" true (status_res = Unix.WEXITED 0);
          Alcotest.(check string) "sharded-then-killed resume = uninterrupted"
            (normalize_report out_base) (normalize_report out_res));
      let rec no_workers left =
        match processes_naming store with
        | [] -> ()
        | pids when left = 0 ->
          Alcotest.failf "rgsworker(s) %s outlived their supervisor"
            (String.concat ", " pids)
        | _ ->
          Unix.sleepf 0.1;
          no_workers (left - 1)
      in
      no_workers 50)

(* There is no --shards: shards exist only behind --workers, so Cmdliner
   refuses it as an unknown option. *)
let test_e2e_shards_unknown () =
  let status, _ = run_rgsminer (e2e_args [ "--shards"; "2" ]) in
  Alcotest.(check bool) "exit 124" true (status = Unix.WEXITED 124)

(* SIGTERM is the graceful path: the run stops at the next budget poll,
   appends its final Run_outcome record, reports the interruption on
   stdout, and exits with the documented code 130. *)
let test_e2e_sigterm_graceful () =
  with_temp_checkpoint (fun ckpt ->
      let status_base, out_base = run_rgsminer (e2e_args []) in
      Alcotest.(check bool) "baseline exit 0" true (status_base = Unix.WEXITED 0);
      let status_term, out_term =
        run_rgsminer ~root_delay_ms:50 ~kill:(0.6, Sys.sigterm)
          (e2e_args [ "--checkpoint"; ckpt ])
      in
      Alcotest.(check bool) "documented exit code 130" true
        (status_term = Unix.WEXITED 130);
      Alcotest.(check bool) "reports the interruption" true
        (contains out_term "interrupted");
      let status_res, out_res =
        run_rgsminer (e2e_args [ "--checkpoint"; ckpt; "--resume" ])
      in
      Alcotest.(check bool) "resume exit 0" true (status_res = Unix.WEXITED 0);
      Alcotest.(check string) "resumed stdout = uninterrupted stdout"
        (normalize_report out_base) (normalize_report out_res))

(* --- end-to-end: --parallel in every mode ---

   Gap-constrained mining runs on the root pool like every other mode,
   also under a query (root-partitioned, no checkpoint asked for), and
   --max-patterns is refused rather than silently dropped. *)

let gap_args extra = e2e_args ([ "--max-gap"; "3" ] @ extra)

let run_seq_and_parallel name extra =
  let status_seq, out_seq = run_rgsminer (gap_args extra) in
  let status_par, out_par = run_rgsminer (gap_args ("--parallel" :: extra)) in
  Alcotest.(check bool) (name ^ ": sequential exit 0") true
    (status_seq = Unix.WEXITED 0);
  Alcotest.(check bool) (name ^ ": --parallel exit 0") true
    (status_par = Unix.WEXITED 0);
  (out_seq, out_par)

let check_parallel_stdout name extra =
  let out_seq, out_par = run_seq_and_parallel name extra in
  Alcotest.(check bool) (name ^ ": mined something") false
    (contains out_seq "\n0 patterns");
  Alcotest.(check string)
    (name ^ ": --parallel stdout = sequential stdout")
    (normalize_report out_seq) (normalize_report out_par)

let test_e2e_parallel_gap () = check_parallel_stdout "--max-gap" []

let test_e2e_parallel_gap_target () =
  check_parallel_stdout "--max-gap --target" [ "--target"; "26 10" ]

(* one tie rule at every entry point: the sequential and the pool run
   print the same top-k patterns, not only the same supports *)
let test_e2e_parallel_gap_top_k () =
  check_parallel_stdout "--max-gap --top-k" [ "--top-k"; "5" ]

let jboss_traces =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "data" "jboss_traces.txt"))

(* jboss mine-all ties at support 231, the 10th place: the sequential and
   the --parallel answer keep the same tied pattern *)
let test_e2e_parallel_top_k_ties () =
  let run extra =
    let status, out =
      run_rgsminer
        ([ "-a"; "-s"; "18"; "--max-length"; "4"; "--top-k"; "10" ]
        @ extra @ [ jboss_traces ])
    in
    Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
    normalize_report out
  in
  let seq = run [] in
  Alcotest.(check bool) "ten answers" true (contains seq "10 patterns");
  Alcotest.(check string) "--parallel stdout = sequential stdout" seq
    (run [ "--parallel" ])

let test_e2e_parallel_max_patterns () =
  let status, out =
    run_rgsminer ~capture_stderr:true
      (e2e_args [ "--parallel"; "--max-patterns"; "5" ])
  in
  Alcotest.(check bool) "exit 1" true (status = Unix.WEXITED 1);
  Alcotest.(check bool)
    (Printf.sprintf "%S names the conflict" out)
    true
    (contains out "domains cannot be combined with max_patterns")

(* a queried --parallel run's refusal of --max-patterns must name
   --parallel's domains, not a checkpoint that was never asked for *)
let test_e2e_parallel_max_patterns_target () =
  let status, out =
    run_rgsminer ~capture_stderr:true
      (e2e_args [ "--parallel"; "--max-patterns"; "5"; "--target"; "26 10" ])
  in
  Alcotest.(check bool) "exit 1" true (status = Unix.WEXITED 1);
  Alcotest.(check bool)
    (Printf.sprintf "%S names the conflict" out)
    true
    (contains out "domains cannot be combined with max_patterns")

let suite =
  [
    prop_strict_le_support;
    prop_gap_monotone;
    prop_sequential_le_repetitive;
    prop_iterative_le_all_occurrences;
    prop_episode_monotone_in_width;
    Alcotest.test_case "missing input file" `Quick test_missing_file;
    Alcotest.test_case "brute-force budget" `Quick test_brute_force_budget;
    Alcotest.test_case "strict-overlap budget" `Quick test_strict_overlap_budget;
    Alcotest.test_case "empty database" `Quick test_empty_database;
    Alcotest.test_case "empty sequences" `Quick test_empty_sequences_in_db;
    Alcotest.test_case "min_sup above everything" `Quick test_min_sup_above_everything;
    Alcotest.test_case "worker crash loses one root" `Quick test_worker_crash_loses_one_root;
    Alcotest.test_case "worker crash retry recovers" `Quick test_worker_crash_retry_recovers;
    Alcotest.test_case "insgrow fault sequential" `Quick test_insgrow_fault_sequential;
    Alcotest.test_case "deadline immediate" `Quick test_deadline_immediate;
    Alcotest.test_case "node budget partial subset" `Quick test_node_budget_partial_subset;
    Alcotest.test_case "cancellation" `Quick test_cancellation;
    Alcotest.test_case "memory limit" `Quick test_memory_limit;
    Alcotest.test_case "run_pool isolation" `Quick test_run_pool_isolation;
    Alcotest.test_case "checkpoint resume = uninterrupted" `Quick
      test_checkpoint_resume_equals_uninterrupted;
    Alcotest.test_case "checkpoint resume iterated" `Quick test_checkpoint_resume_iterated;
    Alcotest.test_case "checkpoint after worker crash" `Quick
      test_checkpoint_after_worker_crash;
    Alcotest.test_case "checkpoint fingerprint mismatch" `Quick
      test_checkpoint_fingerprint_mismatch;
    Alcotest.test_case "checkpoint top-k tie rule" `Quick
      test_checkpoint_topk_tie_rule;
    Alcotest.test_case "checkpoint: local top-k answers resume" `Quick
      test_checkpoint_topk_local_answers;
    Alcotest.test_case "checkpoint corrupt file" `Quick test_checkpoint_corrupt_file;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "outcome severity" `Quick test_outcome_severity;
    Alcotest.test_case "fixture: full log" `Quick test_fixture_full;
    Alcotest.test_case "fixture: truncated mid-record" `Quick
      test_fixture_truncated_mid_record;
    Alcotest.test_case "fixture: flipped CRC" `Quick test_fixture_flipped_crc;
    Alcotest.test_case "fixture: unusable files" `Quick test_fixture_unusable;
    Alcotest.test_case "fixture: v2 log refused" `Quick test_fixture_v2_log;
    prop_record_mutations;
    Alcotest.test_case "checkpoint root past 2^62 is torn" `Quick
      test_record_root_past_max;
    Alcotest.test_case "crc32 known vector" `Quick test_crc32_known_vector;
    prop_crc32_oracle;
    prop_crc32_map;
    prop_salvage_any_truncation;
    Alcotest.test_case "salvage: header-area cuts" `Quick test_salvage_header_cuts;
    Alcotest.test_case "stale temp sweep" `Quick test_stale_temp_sweep;
    Alcotest.test_case "checkpoint io fault transient" `Quick
      test_checkpoint_io_transient;
    Alcotest.test_case "checkpoint io fault persistent" `Quick
      test_checkpoint_io_persistent;
    Alcotest.test_case "shutdown flag interrupts and resumes" `Quick
      test_shutdown_flag_interrupts_and_resumes;
    Alcotest.test_case "e2e: kill -9 then resume" `Quick test_e2e_kill9_resume;
    Alcotest.test_case "e2e: --resume refuses a v2 log" `Quick test_e2e_resume_refuses_v2;
    Alcotest.test_case "e2e: --store refuses a v1 store" `Quick test_e2e_store_refuses_v1;
    Alcotest.test_case "e2e: kill -9 under --workers then resume" `Quick
      test_e2e_kill9_resume_workers;
    Alcotest.test_case "e2e: --shards is an unknown option" `Quick
      test_e2e_shards_unknown;
    Alcotest.test_case "e2e: SIGTERM graceful exit" `Quick test_e2e_sigterm_graceful;
    Alcotest.test_case "e2e: --parallel --max-gap = sequential" `Quick
      test_e2e_parallel_gap;
    Alcotest.test_case "e2e: --parallel --max-gap --target = sequential" `Quick
      test_e2e_parallel_gap_target;
    Alcotest.test_case "e2e: --parallel --max-gap --top-k" `Quick
      test_e2e_parallel_gap_top_k;
    Alcotest.test_case "e2e: --parallel --top-k ties" `Quick
      test_e2e_parallel_top_k_ties;
    Alcotest.test_case "e2e: --parallel refuses --max-patterns" `Quick
      test_e2e_parallel_max_patterns;
    Alcotest.test_case "e2e: --parallel --target refuses --max-patterns" `Quick
      test_e2e_parallel_max_patterns_target;
  ]
