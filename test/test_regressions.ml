(* Targeted regression tests for subtle algorithmic corners found during
   development. *)

open Rgs_sequence
open Rgs_core

let p = Pattern.of_string

(* CloSpan's equivalence pruning fires only in the safe direction (current
   pattern contained in an already-explored pattern with an identical
   projection). Construct a database where the unsafe direction (explored
   pattern contained in the current one) occurs: the closed output must
   still be exact. In {XAYB, XAYB, AB}: patterns "AB" and "XAB"/"AYB"
   interact through shared projected suffixes. *)
let test_clospan_unsafe_direction () =
  let db = Seqdb.of_strings [ "XAYB"; "XAYB"; "AB" ] in
  let got, _ = Rgs_baselines.Clospan.mine ~max_length:5 db ~min_sup:2 in
  let all, _ = Rgs_baselines.Prefixspan.mine ~max_length:5 db ~min_sup:2 in
  let expected = Rgs_baselines.Clospan.closed_filter all in
  Alcotest.(check (list (pair string int)))
    "exact closed set"
    (List.sort compare (List.map (fun (q, s) -> (Pattern.to_string q, s)) expected))
    (List.sort compare (List.map (fun (q, s) -> (Pattern.to_string q, s)) got))

(* max_patterns yields a PREFIX of the untruncated DFS enumeration. *)
let test_budget_prefix_property () =
  let db = Seqdb.of_strings [ "ABCACBDDB"; "ACDBACADD" ] in
  let idx = Inverted_index.build db in
  let full, _ = Engine.mine Gsgrow.strategy idx ~min_sup:3 in
  let full_sigs = List.map (fun r -> Pattern.to_string r.Mined.pattern) full in
  List.iter
    (fun budget ->
      let { Miner.results = part; truncated; _ } =
        Miner.mine_indexed
          (Miner.config ~mode:Miner.All ~max_patterns:budget ~min_sup:3 ())
          idx
      in
      Alcotest.(check int) (Printf.sprintf "budget %d count" budget) budget
        (List.length part);
      Alcotest.(check bool) "truncated" true truncated;
      let part_sigs = List.map (fun r -> Pattern.to_string r.Mined.pattern) part in
      Alcotest.(check (list string))
        (Printf.sprintf "budget %d prefix" budget)
        (List.filteri (fun i _ -> i < budget) full_sigs)
        part_sigs)
    [ 1; 5; 10; 22 ]

(* The closure pre-filter bound must never reject a genuinely equal-support
   extension: cross-check is_closed against the oracle on dense repetitive
   inputs where envelope regions are tight. *)
let test_prefilter_no_false_rejects () =
  let dbs =
    [
      Seqdb.of_strings [ "AAAA"; "AAA" ];
      Seqdb.of_strings [ "ABABAB"; "BABA" ];
      Seqdb.of_strings [ "ABCABCABC" ];
      Seqdb.of_strings [ "AABBAABB"; "ABAB" ];
    ]
  in
  List.iter
    (fun db ->
      let idx = Inverted_index.build db in
      let patterns = [ "A"; "AA"; "AB"; "ABA"; "ABC"; "BC"; "BB" ] in
      List.iter
        (fun s ->
          let pat = p s in
          let sup = Sup_comp.support idx pat in
          if sup > 0 then begin
            let freq = Brute_force.frequent db ~min_sup:sup in
            let closed_def =
              not
                (List.exists
                   (fun (q, sq) ->
                     sq = sup
                     && Pattern.length q > Pattern.length pat
                     && Pattern.is_subpattern pat ~of_:q)
                   freq)
            in
            Alcotest.(check bool)
              (Format.asprintf "%s closed in %a" s Seqdb.pp db)
              closed_def (Closure.is_closed idx pat)
          end)
        patterns)
    dbs

(* Instance growth with duplicate events in the pattern: the same database
   position may serve different pattern indices in different instances
   (the paper's ACA discussion, Example 3.1 step 3'). *)
let test_shared_position_across_indices () =
  let db = Seqdb.of_strings [ "ACDBACADD" ] in
  let idx = Inverted_index.build db in
  let landmarks = Sup_comp.landmarks idx (p "ACA") in
  let as_lists = List.map (fun (f : Instance.full) -> Array.to_list f.Instance.landmark) landmarks in
  (* (2,<1,2,5>) and (2,<5,6,7>) in the paper's S2 share position 5 at
     different indices *)
  Alcotest.(check (list (list int))) "ACA instances"
    [ [ 1; 2; 5 ]; [ 5; 6; 7 ] ] as_lists

(* Answers returned by the miners stay consistent with a from-scratch
   supComp after truncation. *)
let test_truncated_results_valid () =
  let db =
    Rgs_datagen.Quest_gen.generate
      (Rgs_datagen.Quest_gen.params ~d:30 ~c:15 ~n:20 ~s:4 ~seed:3 ())
  in
  let idx = Inverted_index.build db in
  let results =
    (Miner.mine_indexed (Miner.config ~max_patterns:10 ~min_sup:5 ()) idx)
      .Miner.results
  in
  List.iter
    (fun r ->
      Alcotest.(check int) "support consistent" r.Mined.support
        (Sup_comp.support idx r.Mined.pattern);
      Alcotest.(check bool) "set well-formed" true
        (Support_set.well_formed (Sup_comp.support_set idx r.Mined.pattern)))
    results

let suite =
  [
    Alcotest.test_case "clospan unsafe direction" `Quick test_clospan_unsafe_direction;
    Alcotest.test_case "budget prefix property" `Quick test_budget_prefix_property;
    Alcotest.test_case "pre-filter no false rejects" `Quick test_prefilter_no_false_rejects;
    Alcotest.test_case "shared position across indices" `Quick test_shared_position_across_indices;
    Alcotest.test_case "truncated results valid" `Quick test_truncated_results_valid;
  ]
