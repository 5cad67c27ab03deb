(* Tests for post-processing filters (case-study pipeline) and the report
   table renderer. *)

open Rgs_core
open Rgs_post

let p = Pattern.of_string
let mined s sup = { Mined.pattern = p s; support = sup }

let names results = List.map (fun r -> Pattern.to_string r.Mined.pattern) results

let test_density () =
  Alcotest.(check (float 0.0001)) "ABAB" 0.5 (Filters.density (p "ABAB"));
  Alcotest.(check (float 0.0001)) "ABCD" 1.0 (Filters.density (p "ABCD"));
  Alcotest.(check (float 0.0001)) "AAAA" 0.25 (Filters.density (p "AAAA"));
  Alcotest.(check (float 0.0001)) "empty" 0.0 (Filters.density Pattern.empty)

let test_density_filter_strict () =
  let results = [ mined "ABAB" 5; mined "AAAAA" 9; mined "ABC" 3 ] in
  (* > 0.5 is strict: ABAB (0.5) is dropped *)
  Alcotest.(check (list string)) "strict" [ "ABC" ]
    (names (Filters.density_filter ~min_density:0.5 results));
  Alcotest.(check (list string)) "40%" [ "ABAB"; "ABC" ]
    (names (Filters.density_filter ~min_density:0.4 results))

let test_maximal_filter () =
  let results = [ mined "AB" 5; mined "ABC" 4; mined "ABCD" 3; mined "XY" 2 ] in
  Alcotest.(check (list string)) "keep maximal only" [ "ABCD"; "XY" ]
    (names (Filters.maximal_filter results));
  (* supports are irrelevant to maximality *)
  let results = [ mined "AB" 3; mined "AXB" 3 ] in
  Alcotest.(check (list string)) "subpattern dropped" [ "AXB" ]
    (names (Filters.maximal_filter results))

let test_rank_by_length () =
  let results = [ mined "AB" 9; mined "ABCDE" 2; mined "ABC" 5 ] in
  Alcotest.(check (list string)) "longest first" [ "ABCDE"; "ABC"; "AB" ]
    (names (Filters.rank_by_length results))

let test_pipeline () =
  let results =
    [
      mined "AB" 5;    (* dense but subsumed by ACB? no - AB ⊑ ACB *)
      mined "ACB" 4;
      mined "AAAAAAA" 9;  (* fails density *)
      mined "XYZ" 2;
    ]
  in
  Alcotest.(check (list string)) "pipeline" [ "ACB"; "XYZ" ]
    (names (Filters.case_study_pipeline results))

let test_report_table () =
  let t = Report.create ~columns:[ "a"; "b" ] in
  Report.add_row t [ "x"; "1" ];
  Report.add_int_row t "y" [ 22 ];
  let rendered = Report.to_string t in
  Alcotest.(check bool) "has header" true
    (String.length rendered > 0 && String.sub rendered 0 1 = "|");
  (* columns align: every line has the same length *)
  let lines = String.split_on_char '\n' (String.trim rendered) in
  let lens = List.map String.length lines in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun l -> l = List.hd lens) lens);
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  Alcotest.check_raises "row width" (Invalid_argument "Report.add_row: row width mismatch")
    (fun () -> Report.add_row t [ "only-one" ])

let test_ascii_chart () =
  let open Ascii_chart in
  let chart =
    render ~width:10 ~title:"runtime"
      [
        { label = "All"; points = [ ("10", Some 100.); ("5", None) ] };
        { label = "Closed"; points = [ ("10", Some 100.); ("5", Some 1.) ] };
      ]
  in
  let lines = String.split_on_char '\n' (String.trim chart) in
  Alcotest.(check int) "title + header + 2 rows" 4 (List.length lines);
  Alcotest.(check bool) "log-scale label" true
    (String.length (List.hd lines) > 0 && List.hd lines = "runtime (log scale)");
  (* max bar has full width; None renders blank *)
  let row10 = List.nth lines 2 in
  Alcotest.(check bool) "full bar present" true
    (String.length (String.concat "" (String.split_on_char ' ' row10)) >= 20);
  (* inconsistent ticks rejected *)
  Alcotest.check_raises "tick mismatch"
    (Invalid_argument "Ascii_chart.render: series have inconsistent ticks")
    (fun () ->
      ignore
        (render ~title:"x"
           [
             { label = "a"; points = [ ("1", Some 1.) ] };
             { label = "b"; points = [ ("2", Some 1.) ] };
           ]))

let test_sweep_charts_render () =
  let db = Rgs_sequence.Seqdb.of_strings [ "ABCABCA"; "AABBCCC" ] in
  let rows = Rgs_experiments.Sweeps.min_sup_sweep ~timeout_s:10. db ~min_sups:[ 3; 4 ] in
  let charts = Rgs_experiments.Sweeps.charts rows in
  Alcotest.(check bool) "both panels" true
    (String.length charts > 0
    && String.split_on_char '\n' charts
       |> List.exists (fun l -> l = "(a) runtime [s] (log scale)"))

let test_report_cells () =
  Alcotest.(check string) "float" "0.123" (Report.cell_float 0.1234);
  Alcotest.(check string) "int" "42" (Report.cell_int 42)

let suite =
  [
    Alcotest.test_case "density" `Quick test_density;
    Alcotest.test_case "density filter strict" `Quick test_density_filter_strict;
    Alcotest.test_case "maximal filter" `Quick test_maximal_filter;
    Alcotest.test_case "rank by length" `Quick test_rank_by_length;
    Alcotest.test_case "case-study pipeline" `Quick test_pipeline;
    Alcotest.test_case "report table" `Quick test_report_table;
    Alcotest.test_case "ascii chart" `Quick test_ascii_chart;
    Alcotest.test_case "sweep charts render" `Quick test_sweep_charts_render;
    Alcotest.test_case "report cells" `Quick test_report_cells;
  ]
