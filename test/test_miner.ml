(* Integration tests: the Miner facade, budgets, metrics, and
   cross-algorithm consistency on generated datasets. *)

open Rgs_sequence
open Rgs_core

let table3 = Seqdb.of_strings [ "ABCACBDDB"; "ACDBACADD" ]

let test_miner_facade () =
  let report = Miner.mine ~min_sup:3 table3 in
  Alcotest.(check int) "closed count" 7 (List.length report.Miner.results);
  Alcotest.(check bool) "not truncated" false report.Miner.truncated;
  let all = Miner.mine ~config:(Miner.config ~mode:Miner.All ~min_sup:3 ()) table3 in
  Alcotest.(check int) "all count" 23 (List.length all.Miner.results);
  Alcotest.check_raises "no arguments"
    (Invalid_argument "Miner.mine: provide ~config or ~min_sup") (fun () ->
      ignore (Miner.mine table3))

let test_miner_max_patterns () =
  let config = Miner.config ~mode:Miner.All ~min_sup:3 ~max_patterns:5 () in
  let report = Miner.mine ~config table3 in
  Alcotest.(check int) "budget respected" 5 (List.length report.Miner.results);
  Alcotest.(check bool) "marked truncated" true report.Miner.truncated

let test_miner_max_length () =
  let config = Miner.config ~mode:Miner.All ~min_sup:3 ~max_length:2 () in
  let report = Miner.mine ~config table3 in
  Alcotest.(check bool) "length bound" true
    (List.for_all (fun r -> Pattern.length r.Mined.pattern <= 2) report.Miner.results);
  (* 1- and 2-event frequent patterns of the running example *)
  Alcotest.(check int) "count" 13 (List.length report.Miner.results)

(* an already-expired deadline stops both miners at their first node *)
let test_budget_stop_immediate () =
  let idx = Inverted_index.build table3 in
  let stop strategy =
    let budget = Budget.create ~deadline_s:0.0 () in
    let results, stats = Engine.mine ~budget strategy idx ~min_sup:3 in
    results = [] && stats.Engine.outcome = Budget.Deadline_exceeded
  in
  Alcotest.(check bool) "gsgrow stopped" true (stop Gsgrow.strategy);
  Alcotest.(check bool) "clogsgrow stopped" true (stop Gens.closed)

let test_landmarks_and_support () =
  Alcotest.(check int) "support helper" 3 (Miner.support table3 (Pattern.of_string "ACB"));
  let landmarks = Miner.landmarks table3 (Pattern.of_string "ACB") in
  Alcotest.(check int) "landmark count" 3 (List.length landmarks)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

let test_pp_report () =
  let report = Miner.mine ~min_sup:3 table3 in
  let text = Format.asprintf "%a" (fun ppf r -> Miner.pp_report ~limit:3 ppf r) report in
  Alcotest.(check bool) "mentions total" true (contains_substring text "7 patterns");
  (* limit 3 of 7: a "more" line must appear *)
  Alcotest.(check bool) "mentions more-line" true (contains_substring text "4 more")

(* Cross-check GSgrow vs CloGSgrow on generated data: every closed pattern
   is frequent with the same support, and for every frequent pattern there
   is a closed super-pattern with the same support. *)
let test_cross_check_generated () =
  let db =
    Rgs_datagen.Quest_gen.generate
      (Rgs_datagen.Quest_gen.params ~d:40 ~c:12 ~n:30 ~s:4 ~seed:5 ())
  in
  let idx = Inverted_index.build db in
  let min_sup = 8 in
  let all, _ = Engine.mine Gsgrow.strategy ~max_length:5 idx ~min_sup in
  let closed, _ = Engine.mine Gens.closed ~max_length:5 idx ~min_sup in
  Alcotest.(check bool) "closed smaller" true (List.length closed <= List.length all);
  let all_map = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace all_map (Pattern.to_string r.Mined.pattern) r.Mined.support) all;
  List.iter
    (fun r ->
      match Hashtbl.find_opt all_map (Pattern.to_string r.Mined.pattern) with
      | Some sup -> Alcotest.(check int) "closed in all" sup r.Mined.support
      | None -> Alcotest.fail "closed pattern missing from GSgrow output")
    closed;
  (* caution: closed super-pattern may exceed max_length 5; only check
     frequent patterns of length < 5 *)
  List.iter
    (fun r ->
      if Pattern.length r.Mined.pattern < 5 then
        Alcotest.(check bool)
          (Printf.sprintf "closed cover for %s" (Pattern.to_string r.Mined.pattern))
          true
          (List.exists
             (fun c ->
               c.Mined.support = r.Mined.support
               && Pattern.is_subpattern r.Mined.pattern ~of_:c.Mined.pattern)
             closed))
    all

let test_config_variants () =
  (* the facade's execution paths agree where they should *)
  let closed = Miner.mine ~min_sup:3 table3 in
  let parallel = Miner.mine ~config:(Miner.config ~min_sup:3 ~domains:2 ()) table3 in
  let signatures r =
    List.map (fun x -> (Pattern.to_string x.Mined.pattern, x.Mined.support)) r.Miner.results
  in
  Alcotest.(check (list (pair string int))) "parallel = sequential" (signatures closed)
    (signatures parallel);
  (* gap-constrained path *)
  let gapped = Miner.mine ~config:(Miner.config ~min_sup:3 ~max_gap:50 ()) table3 in
  Alcotest.(check int) "unbounded gap = all frequent patterns" 23
    (List.length gapped.Miner.results);
  (* invalid combinations *)
  Alcotest.check_raises "domains + max_patterns"
    (Invalid_argument "Miner: domains cannot be combined with max_patterns") (fun () ->
      ignore
        (Miner.mine ~config:(Miner.config ~min_sup:3 ~domains:2 ~max_patterns:5 ()) table3));
  (* gap-constrained mining runs on the root pool like every other mode *)
  let gap_cfg ?domains () = Miner.config ~min_sup:3 ?domains ~max_gap:1 () in
  Alcotest.(check (list (pair string int))) "domains + max_gap = sequential"
    (signatures (Miner.mine ~config:(gap_cfg ()) table3))
    (signatures (Miner.mine ~config:(gap_cfg ~domains:2 ()) table3))

(* Gap runs checkpoint like any other run: the fingerprint carries the
   gap, so an interrupted gap run resumes to the uninterrupted answer and
   a gap log is refused under another gap. *)
let test_gap_checkpoint_resume () =
  let signatures r =
    List.map (fun x -> (Pattern.to_string x.Mined.pattern, x.Mined.support)) r.Miner.results
  in
  let db = Seqdb.of_strings [ "ABCACBDDBACD"; "ACDBACADDBCA"; "BCADBACDAB" ] in
  let gap_cfg ?domains ?max_nodes ?(max_gap = 1) () =
    Miner.config ~min_sup:3 ?domains ?max_nodes ~max_gap ~max_length:4 ()
  in
  let expected = signatures (Miner.mine ~config:(gap_cfg ()) db) in
  Alcotest.(check bool) "gap run mined something" true (expected <> []);
  Alcotest.(check (list (pair string int))) "pool = sequential" expected
    (signatures (Miner.mine ~config:(gap_cfg ~domains:2 ()) db));
  let path = Filename.temp_file "rgs_miner_gap" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let stopped =
        Miner.mine ~checkpoint:path ~config:(gap_cfg ~max_nodes:6 ()) db
      in
      Alcotest.(check bool) "stopped early" true
        (stopped.Miner.outcome = Budget.Truncated);
      Alcotest.check_raises "another gap refused"
        (Checkpoint.Corrupt
           (path ^ ": fingerprint mismatch (different database or parameters)"))
        (fun () ->
          ignore
            (Miner.mine ~checkpoint:path ~resume:true
               ~config:(gap_cfg ~max_gap:2 ()) db));
      let resumed =
        Miner.mine ~checkpoint:path ~resume:true ~config:(gap_cfg ()) db
      in
      Alcotest.(check bool) "resume completed" true
        (resumed.Miner.outcome = Budget.Completed);
      Alcotest.(check (list (pair string int)))
        "interrupted + resumed = uninterrupted" expected (signatures resumed))

(* max_patterns is refused with several domains and with a checkpoint
   (the message names what it was combined with, so a queried --parallel
   run is not told about a checkpoint it never asked for); a one-domain
   run stops after the cap with a prefix of the uncapped answer *)
let test_resumable_max_patterns_message () =
  let query = Query.Targeted (Pattern.of_string "A") in
  let cfg ?domains ?max_patterns () =
    Miner.config ~min_sup:3 ?domains ?max_patterns ~query ()
  in
  Alcotest.check_raises "with domains"
    (Invalid_argument "Miner: domains cannot be combined with max_patterns")
    (fun () ->
      ignore (Miner.mine ~config:(cfg ~domains:2 ~max_patterns:5 ()) table3));
  let path = Filename.temp_file "rgs_miner_cap" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Alcotest.check_raises "with a checkpoint"
        (Invalid_argument "Miner: checkpointing is not supported with max_patterns")
        (fun () ->
          ignore
            (Miner.mine ~checkpoint:path
               ~config:(cfg ~domains:2 ~max_patterns:5 ()) table3)));
  let full = (Miner.mine ~config:(cfg ()) table3).Miner.results in
  Alcotest.(check bool) "more than the cap" true (List.length full > 5);
  let capped = Miner.mine ~config:(cfg ~max_patterns:5 ()) table3 in
  Alcotest.(check bool) "truncated" true (capped.Miner.outcome = Budget.Truncated);
  let sigs = List.map (fun x -> (Pattern.to_string x.Mined.pattern, x.Mined.support)) in
  Alcotest.(check (list (pair string int))) "one domain: the sequential prefix"
    (sigs (List.filteri (fun i _ -> i < 5) full))
    (sigs capped.Miner.results)

let test_metrics_counters () =
  Metrics.reset ();
  Alcotest.(check (list (pair string int))) "reset empties" [] (Metrics.dump ());
  let idx = Inverted_index.build table3 in
  ignore (Engine.mine Gens.closed idx ~min_sup:3);
  let dump = Metrics.dump () in
  Alcotest.(check bool) "insgrow counted" true (List.mem_assoc "insgrow_calls" dump);
  Alcotest.(check bool) "bound checks counted" true
    (List.mem_assoc "closure_bound_checks" dump)

let test_support_set_well_formed_everywhere () =
  let db =
    Rgs_datagen.Trace_gen.generate
      (Rgs_datagen.Trace_gen.params ~num_sequences:30 ~num_events:20 ~seed:3 ())
  in
  let idx = Inverted_index.build db in
  let results, _ = Engine.mine Gens.closed ~max_length:4 idx ~min_sup:10 in
  Alcotest.(check bool) "nonempty" true (results <> []);
  (* answers carry no sets: recompute each one's leftmost set (Algorithm 1)
     and check it against the reported support *)
  List.iter
    (fun r ->
      let set = Sup_comp.support_set idx r.Mined.pattern in
      Alcotest.(check bool) "well-formed" true (Support_set.well_formed set);
      Alcotest.(check int) "size = support" r.Mined.support (Support_set.size set))
    results

(* Mid-size determinism check: a fixed seed must always yield the same
   dataset and the same mined pattern counts — catches regressions in the
   generators and in the miners at a scale where subtle bugs surface. *)
let test_midsize_determinism () =
  let db =
    Rgs_datagen.Quest_gen.generate
      (Rgs_datagen.Quest_gen.params ~d:150 ~c:18 ~n:60 ~s:5 ~seed:2026 ())
  in
  let idx = Inverted_index.build db in
  let all_1, _ = Engine.mine Gsgrow.strategy ~max_length:5 idx ~min_sup:12 in
  let all_2, _ = Engine.mine Gsgrow.strategy ~max_length:5 idx ~min_sup:12 in
  Alcotest.(check int) "gsgrow deterministic" (List.length all_1) (List.length all_2);
  let closed, _ = Engine.mine Gens.closed ~max_length:5 idx ~min_sup:12 in
  Alcotest.(check bool) "closed smaller" true (List.length closed < List.length all_1);
  (* every closed pattern's support matches a fresh supComp *)
  List.iter
    (fun r ->
      Alcotest.(check int)
        (Pattern.to_string r.Mined.pattern)
        (Sup_comp.support idx r.Mined.pattern)
        r.Mined.support)
    closed

let suite =
  [
    Alcotest.test_case "facade" `Quick test_miner_facade;
    Alcotest.test_case "mid-size determinism" `Slow test_midsize_determinism;
    Alcotest.test_case "max_patterns budget" `Quick test_miner_max_patterns;
    Alcotest.test_case "max_length bound" `Quick test_miner_max_length;
    Alcotest.test_case "budget stops immediately" `Quick
      test_budget_stop_immediate;
    Alcotest.test_case "landmarks/support helpers" `Quick test_landmarks_and_support;
    Alcotest.test_case "pp_report" `Quick test_pp_report;
    Alcotest.test_case "cross-check on generated data" `Quick test_cross_check_generated;
    Alcotest.test_case "config variants" `Quick test_config_variants;
    Alcotest.test_case "max_gap checkpoint and resume" `Quick
      test_gap_checkpoint_resume;
    Alcotest.test_case "resumable max_patterns message" `Quick
      test_resumable_max_patterns_message;
    Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
    Alcotest.test_case "support sets well-formed" `Quick test_support_set_well_formed_everywhere;
  ]
