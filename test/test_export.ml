(* Tests for WINEPI episode mining and CSV export. *)

open Rgs_sequence
open Rgs_core

let p = Pattern.of_string

(* --- Winepi --- *)

let test_winepi_matches_counter () =
  let s = Sequence.of_string "AABCDABB" in
  let results, stats = Rgs_baselines.Winepi.mine s ~w:4 ~min_sup:3 in
  Alcotest.(check bool) "found some" true (stats.Rgs_baselines.Winepi.episodes > 0);
  (* every reported support matches the definition-level counter *)
  List.iter
    (fun (q, sup) ->
      Alcotest.(check int) (Pattern.to_string q) (Rgs_baselines.Episode.window_support s q ~w:4) sup;
      Alcotest.(check bool) "meets threshold" true (sup >= 3))
    results;
  (* AB has support 4 >= 3: it must be reported *)
  Alcotest.(check bool) "AB reported" true
    (List.exists (fun (q, _) -> Pattern.equal q (p "AB")) results)

let test_winepi_complete () =
  (* exhaustive cross-check on a small sequence *)
  let s = Sequence.of_string "ABCABC" in
  let w = 3 and min_sup = 2 in
  let results, _ = Rgs_baselines.Winepi.mine s ~w ~min_sup in
  let got = List.sort compare (List.map (fun (q, c) -> (Pattern.to_string q, c)) results) in
  (* oracle: enumerate all patterns over {A,B,C} up to length 3 *)
  let expected = ref [] in
  let events = [ 0; 1; 2 ] in
  let rec enum q =
    List.iter
      (fun e ->
        let q' = Pattern.grow q e in
        let sup = Rgs_baselines.Episode.window_support s q' ~w in
        if sup >= min_sup then begin
          expected := (Pattern.to_string q', sup) :: !expected;
          if Pattern.length q' < w then enum q'
        end)
      events
  in
  enum Pattern.empty;
  Alcotest.(check (list (pair string int))) "complete" (List.sort compare !expected) got

let test_winepi_frequency () =
  let s = Sequence.of_string "AABCDABB" in
  Alcotest.(check (float 0.0001)) "AB at w=4" (4. /. 5.)
    (Rgs_baselines.Winepi.frequency s (p "AB") ~w:4);
  Alcotest.check_raises "bad w" (Invalid_argument "Winepi.mine: w must be >= 1")
    (fun () -> ignore (Rgs_baselines.Winepi.mine s ~w:0 ~min_sup:1))

(* --- Export --- *)

let mined s sup = { Mined.pattern = p s; support = sup }

let test_results_csv () =
  let csv = Rgs_post.Export.results_to_csv [ mined "AB" 4; mined "ACB" 3 ] in
  Alcotest.(check string) "csv"
    "pattern,length,support\nAB,2,4\nACB,3,3\n" csv

let test_results_csv_with_codec () =
  let codec = Codec.of_names [ "lock, acquire"; "unlock" ] in
  let r = { Mined.pattern = Pattern.of_list [ 0; 1 ]; support = 7 } in
  let csv = Rgs_post.Export.results_to_csv ~codec [ r ] in
  (* the comma inside the event name forces quoting *)
  Alcotest.(check string) "quoted"
    "pattern,length,support\n\"lock, acquire unlock\",2,7\n" csv

let test_features_csv () =
  let db = Seqdb.of_strings [ "ABAB"; "AB" ] in
  let report = Miner.mine ~config:(Miner.config ~mode:Miner.All ~min_sup:3 ()) db in
  let m = Rgs_post.Features.feature_matrix (Inverted_index.build db) report.Miner.results in
  let csv = Rgs_post.Export.features_to_csv m in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check bool) "row ids" true
    (String.length (List.nth lines 1) > 0 && (List.nth lines 1).[0] = '1')

let test_report_csv () =
  let t = Rgs_post.Report.create ~columns:[ "x"; "y" ] in
  Rgs_post.Report.add_row t [ "1"; "hello" ];
  Rgs_post.Report.add_row t [ "2"; "wo,rld" ];
  Alcotest.(check string) "csv" "x,y\n1,hello\n2,\"wo,rld\"\n"
    (Rgs_post.Export.report_to_csv t)

let test_save_roundtrip () =
  let path = Filename.temp_file "rgs_export" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Rgs_post.Export.save path "a,b\n1,2\n";
      let ic = open_in path in
      let contents =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check string) "roundtrip" "a,b\n1,2\n" contents)

let suite =
  [
    Alcotest.test_case "winepi matches counter" `Quick test_winepi_matches_counter;
    Alcotest.test_case "winepi complete" `Quick test_winepi_complete;
    Alcotest.test_case "winepi frequency" `Quick test_winepi_frequency;
    Alcotest.test_case "results csv" `Quick test_results_csv;
    Alcotest.test_case "results csv quoting" `Quick test_results_csv_with_codec;
    Alcotest.test_case "features csv" `Quick test_features_csv;
    Alcotest.test_case "report csv" `Quick test_report_csv;
    Alcotest.test_case "save roundtrip" `Quick test_save_roundtrip;
  ]
