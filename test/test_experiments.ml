(* Tests for the experiment harness: timed runs honour budgets, sweeps
   have the right shape, the case study pipeline is wired correctly. *)

open Rgs_sequence
module E = Rgs_experiments

let tiny_db = Seqdb.of_strings [ "ABCABCA"; "AABBCCC"; "CBACBA" ]

let test_run_counts () =
  let idx = Inverted_index.build tiny_db in
  let all = E.Exp_common.run_gsgrow idx ~min_sup:3 in
  let closed = E.Exp_common.run_clogsgrow idx ~min_sup:3 in
  Alcotest.(check bool) "all not timed out" false all.E.Exp_common.timed_out;
  Alcotest.(check bool) "counts consistent" true
    (closed.E.Exp_common.patterns <= all.E.Exp_common.patterns);
  (* counts match direct mining *)
  let direct, _ = Rgs_core.Engine.mine Rgs_core.Gsgrow.strategy idx ~min_sup:3 in
  Alcotest.(check int) "all count" (List.length direct) all.E.Exp_common.patterns

let test_run_timeout_marks () =
  (* A zero budget must abort immediately and mark the run. *)
  let db =
    Rgs_datagen.Quest_gen.generate (Rgs_datagen.Quest_gen.params ~d:200 ~c:20 ~n:50 ~s:6 ())
  in
  let idx = Inverted_index.build db in
  let run = E.Exp_common.run_gsgrow ~timeout_s:0.0 idx ~min_sup:2 in
  Alcotest.(check bool) "timed out" true run.E.Exp_common.timed_out

let test_sweep_shape () =
  let rows = E.Sweeps.min_sup_sweep ~timeout_s:10. tiny_db ~min_sups:[ 3; 5; 4 ] in
  Alcotest.(check (list int)) "descending thresholds" [ 5; 4; 3 ]
    (List.map (fun r -> r.E.Sweeps.x) rows);
  List.iter
    (fun r ->
      match r.E.Sweeps.all with
      | Some all ->
        Alcotest.(check bool)
          (Printf.sprintf "closed <= all at %d" r.E.Sweeps.x)
          true
          (r.E.Sweeps.closed.E.Exp_common.patterns <= all.E.Exp_common.patterns)
      | None -> Alcotest.fail "tiny sweep should not skip GSgrow")
    rows;
  (* monotone: lower min_sup, more (or equal) patterns *)
  let counts = List.map (fun r -> r.E.Sweeps.closed.E.Exp_common.patterns) rows in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "closed counts grow as min_sup drops" true (non_decreasing counts)

let test_sweep_report_renders () =
  let rows = E.Sweeps.min_sup_sweep ~timeout_s:10. tiny_db ~min_sups:[ 3; 4 ] in
  let rendered = Rgs_post.Report.to_string (E.Sweeps.report ~x_label:"min_sup" rows) in
  Alcotest.(check bool) "mentions closed_patterns column" true
    (String.length rendered > 0);
  Alcotest.(check bool) "two data rows" true
    (List.length (String.split_on_char '\n' (String.trim rendered)) = 4)

let test_comparators_entries () =
  let entries = E.Comparators.compare_all ~timeout_s:10. ~max_length:4 tiny_db ~min_sup:2 in
  Alcotest.(check int) "five miners" 5 (List.length entries);
  List.iter
    (fun e ->
      Alcotest.(check bool) (e.E.Comparators.miner ^ " ran") true
        (e.E.Comparators.elapsed_s >= 0.);
      Alcotest.(check bool) (e.E.Comparators.miner ^ " found") true
        (e.E.Comparators.patterns > 0))
    entries;
  (* closed sequential miners agree with each other *)
  let find name =
    (List.find (fun e -> e.E.Comparators.miner = name) entries).E.Comparators.patterns
  in
  Alcotest.(check int) "CloSpan = BIDE"
    (find "CloSpan (closed, sequential)")
    (find "BIDE (closed, sequential)")

let test_ablation_entries () =
  let entries = E.Ablation.run ~timeout_s:10. tiny_db ~min_sup:3 in
  Alcotest.(check int) "five variants" 5 (List.length entries);
  let patterns_of k = (List.nth entries k).E.Ablation.patterns in
  (* full CloGSgrow and CCheck-only emit the same closed set *)
  Alcotest.(check int) "LBCheck output-invariant" (patterns_of 0) (patterns_of 1);
  Alcotest.(check bool) "GSgrow emits more" true (patterns_of 2 >= patterns_of 0);
  (* the post-hoc filter finds the same closed set when GSgrow finishes *)
  Alcotest.(check int) "post-filter = CloGSgrow" (patterns_of 0) (patterns_of 3);
  (* levelwise finds the same frequent set as GSgrow *)
  Alcotest.(check int) "levelwise = GSgrow" (patterns_of 2) (patterns_of 4)

let test_case_study_smoke () =
  (* High threshold + small budget: fast, still exercises the pipeline. *)
  let o = E.Case_study.run ~min_sup:150 ~max_patterns:200 () in
  Alcotest.(check int) "28 traces" 28 o.E.Case_study.traces;
  Alcotest.(check bool) "pipeline monotone" true
    (o.E.Case_study.after_postprocessing <= o.E.Case_study.closed_patterns);
  Alcotest.(check bool) "lock-unlock support positive" true
    (o.E.Case_study.lock_unlock_support > 0);
  (* report renders *)
  let rendered = Rgs_post.Report.to_string (E.Case_study.report o) in
  Alcotest.(check bool) "report non-empty" true (String.length rendered > 100)

(* --stats smoke: the experiments CLI must write the same Metrics JSON as
   rgsminer --stats, scoped to the experiment's own work (a snapshot diff,
   so counters from process startup are excluded). *)
let test_stats_flag_smoke () =
  (* resolve against the test binary, not the cwd: dune runtest and a bare
     dune exec run from different directories *)
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "experiments.exe"))
  in
  if not (Sys.file_exists exe) then Alcotest.fail "experiments.exe not built";
  Test_trace.with_temp_file (fun path ->
      let cmd =
        Printf.sprintf "%s table1 --stats %s >/dev/null 2>/dev/null"
          (Filename.quote exe) (Filename.quote path)
      in
      Alcotest.(check int) "exit code" 0 (Sys.command cmd);
      let j = Test_trace.Json.parse (Test_trace.read_file path) in
      let counter name =
        let entry = Test_trace.Json.get name j in
        Alcotest.(check string)
          (name ^ " kind") "counter"
          (Test_trace.Json.(to_str (get "kind" entry)));
        int_of_float Test_trace.Json.(to_num (get "value" entry))
      in
      (* Table I mines Example 1.1, so the hot-path counters must have
         registered real work *)
      Alcotest.(check bool) "next_calls > 0" true (counter "next_calls" > 0);
      Alcotest.(check bool) "insgrow_calls > 0" true
        (counter "insgrow_calls" > 0);
      Alcotest.(check bool) "cursor_gallops present" true
        (counter "cursor_gallops" >= 0))

(* --trace smoke: the experiments CLI exports the ambient trace its sweeps
   record into as the same Chrome trace_event JSON rgsminer writes. *)
let test_trace_flag_smoke () =
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "experiments.exe"))
  in
  if not (Sys.file_exists exe) then Alcotest.fail "experiments.exe not built";
  Test_trace.with_temp_file (fun path ->
      let cmd =
        Printf.sprintf
          "%s fig2 --scale 0.01 --timeout 1 --trace %s >/dev/null 2>/dev/null"
          (Filename.quote exe) (Filename.quote path)
      in
      Alcotest.(check int) "exit code" 0 (Sys.command cmd);
      let doc = Test_trace.Json.parse (Test_trace.read_file path) in
      let events = Test_trace.Json.(to_arr (get "traceEvents" doc)) in
      Alcotest.(check bool) "trace nonempty" true (events <> []);
      (* the sweep's mining runs show up as complete ("X") spans *)
      let spans =
        List.filter
          (fun e -> Test_trace.Json.(to_str (get "ph" e)) = "X")
          events
      in
      Alcotest.(check bool) "has spans" true (spans <> []))

let suite =
  [
    Alcotest.test_case "timed run counts" `Quick test_run_counts;
    Alcotest.test_case "timeout marking" `Quick test_run_timeout_marks;
    Alcotest.test_case "sweep shape" `Quick test_sweep_shape;
    Alcotest.test_case "sweep report renders" `Quick test_sweep_report_renders;
    Alcotest.test_case "comparators entries" `Quick test_comparators_entries;
    Alcotest.test_case "ablation entries" `Quick test_ablation_entries;
    Alcotest.test_case "case study smoke" `Quick test_case_study_smoke;
    Alcotest.test_case "--stats flag smoke" `Quick test_stats_flag_smoke;
    Alcotest.test_case "--trace flag smoke" `Quick test_trace_flag_smoke;
  ]
