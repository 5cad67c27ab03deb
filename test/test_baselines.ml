(* Tests for the related-work baselines: sequential miners (PrefixSpan /
   CloSpan / BIDE) and the Table I support semantics. *)

open Rgs_sequence
open Rgs_core
open Rgs_baselines

let p = Pattern.of_string
let fig1 = Seqdb.of_strings [ "AABCDABB"; "ABCD" ]

(* --- Seq_mining --- *)

let test_contains () =
  let s = Sequence.of_string "AABCDABB" in
  Alcotest.(check bool) "AB" true (Seq_mining.contains s (p "AB"));
  Alcotest.(check bool) "ABBB" true (Seq_mining.contains s (p "ABBB"));
  Alcotest.(check bool) "ABBBB" false (Seq_mining.contains s (p "ABBBB"));
  Alcotest.(check bool) "empty" true (Seq_mining.contains s Pattern.empty);
  Alcotest.(check bool) "DAB" true (Seq_mining.contains s (p "DAB"))

let test_leftmost_match () =
  let s = Sequence.of_string "AABCDABB" in
  Alcotest.(check (option (list int))) "AB" (Some [ 1; 3 ])
    (Option.map Array.to_list (Seq_mining.leftmost_match s (p "AB")));
  Alcotest.(check (option (list int))) "AB from 3" (Some [ 6; 7 ])
    (Option.map Array.to_list (Seq_mining.leftmost_match s ~from:3 (p "AB")));
  Alcotest.(check (option (list int))) "missing" None
    (Option.map Array.to_list (Seq_mining.leftmost_match s (p "DD")))

let test_seq_support () =
  Alcotest.(check int) "AB" 2 (Seq_mining.support fig1 (p "AB"));
  Alcotest.(check int) "CD" 2 (Seq_mining.support fig1 (p "CD"));
  Alcotest.(check int) "ABB" 1 (Seq_mining.support fig1 (p "ABB"));
  Alcotest.(check int) "missing" 0 (Seq_mining.support fig1 (p "DD"))

(* --- PrefixSpan: against definition-level counting --- *)

let seq_support_oracle db pattern = Seq_mining.support db pattern

let enumerate_frequent_oracle db ~min_sup ~max_length =
  (* exhaustive DFS with Apriori on sequential support *)
  let events = Seqdb.alphabet db in
  let results = ref [] in
  let rec dfs q =
    List.iter
      (fun e ->
        let q' = Pattern.grow q e in
        let sup = seq_support_oracle db q' in
        if sup >= min_sup then begin
          results := (Pattern.to_string q', sup) :: !results;
          if Pattern.length q' < max_length then dfs q'
        end)
      events
  in
  dfs Pattern.empty;
  List.sort compare !results

let test_prefixspan_complete () =
  let db = Seqdb.of_strings [ "ABCAB"; "BCA"; "AACB"; "CBA" ] in
  let got, _ = Prefixspan.mine ~max_length:4 db ~min_sup:2 in
  let got = List.sort compare (List.map (fun (q, s) -> (Pattern.to_string q, s)) got) in
  Alcotest.(check (list (pair string int)))
    "prefixspan = oracle"
    (enumerate_frequent_oracle db ~min_sup:2 ~max_length:4)
    got

let test_prefixspan_min_sup_validation () =
  Alcotest.check_raises "min_sup 0" (Invalid_argument "Prefixspan.mine: min_sup must be >= 1")
    (fun () -> ignore (Prefixspan.mine fig1 ~min_sup:0))

(* --- Closed sequential: CloSpan and BIDE agree with filtered PrefixSpan --- *)

let closed_oracle db ~min_sup ~max_length =
  let all, _ = Prefixspan.mine ~max_length db ~min_sup in
  List.sort compare
    (List.map (fun (q, s) -> (Pattern.to_string q, s)) (Clospan.closed_filter all))

let dbs_for_closed =
  [
    Seqdb.of_strings [ "ABCAB"; "BCA"; "AACB"; "CBA" ];
    Seqdb.of_strings [ "AABB"; "ABAB"; "BBAA" ];
    Seqdb.of_strings [ "ABCD"; "ACBD"; "ABD"; "AD" ];
    fig1;
  ]

let test_clospan_closed () =
  List.iteri
    (fun k db ->
      let got, _ = Clospan.mine ~max_length:5 db ~min_sup:2 in
      let got = List.sort compare (List.map (fun (q, s) -> (Pattern.to_string q, s)) got) in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "db %d" k)
        (closed_oracle db ~min_sup:2 ~max_length:5)
        got)
    dbs_for_closed

let test_bide_closed () =
  List.iteri
    (fun k db ->
      let got, _ = Bide.mine ~max_length:5 db ~min_sup:2 in
      let got = List.sort compare (List.map (fun (q, s) -> (Pattern.to_string q, s)) got) in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "db %d" k)
        (closed_oracle db ~min_sup:2 ~max_length:5)
        got)
    dbs_for_closed

let test_bide_backscan_invariant () =
  List.iteri
    (fun k db ->
      let with_bs, _ = Bide.mine ~max_length:5 ~use_backscan:true db ~min_sup:2 in
      let without_bs, _ = Bide.mine ~max_length:5 ~use_backscan:false db ~min_sup:2 in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "db %d" k)
        (List.sort compare (List.map (fun (q, s) -> (Pattern.to_string q, s)) without_bs))
        (List.sort compare (List.map (fun (q, s) -> (Pattern.to_string q, s)) with_bs)))
    dbs_for_closed

let test_bide_is_closed_sequential () =
  (* In {ABC, ABC}: AB is not closed (ABC has equal support); ABC is. *)
  let db = Seqdb.of_strings [ "ABC"; "ABC" ] in
  Alcotest.(check bool) "AB not closed" false (Bide.is_closed_sequential db (p "AB"));
  Alcotest.(check bool) "ABC closed" true (Bide.is_closed_sequential db (p "ABC"));
  Alcotest.(check bool) "BC not closed" false (Bide.is_closed_sequential db (p "BC"));
  (* backward extension case: in {XABC, ABC, XABC}: ABC closed, but in
     {XABC, XABC}: ABC is not (X extends backward). *)
  let db2 = Seqdb.of_strings [ "XABC"; "XABC" ] in
  Alcotest.(check bool) "ABC backward-extensible" false (Bide.is_closed_sequential db2 (p "ABC"))

(* --- Episode mining (Mannila) --- *)

let s1 = Sequence.of_string "AABCDABB"

let test_episode_windows () =
  Alcotest.(check int) "AB w=4 in S1" 4 (Episode.window_support s1 (p "AB") ~w:4);
  Alcotest.(check int) "AB w=2 in S1" 2 (Episode.window_support s1 (p "AB") ~w:2);
  Alcotest.(check int) "AB w=8 in S1" 1 (Episode.window_support s1 (p "AB") ~w:8);
  Alcotest.(check int) "A w=1 in S1" 3 (Episode.window_support s1 (p "A") ~w:1);
  Alcotest.check_raises "w=0" (Invalid_argument "Episode.window_support: w must be >= 1")
    (fun () -> ignore (Episode.window_support s1 (p "A") ~w:0))

let test_episode_minimal_windows () =
  Alcotest.(check (list (pair int int))) "AB minimal windows"
    [ (2, 3); (6, 7) ]
    (Episode.minimal_windows s1 (p "AB"));
  Alcotest.(check int) "support" 2 (Episode.minimal_window_support s1 (p "AB"));
  Alcotest.(check (list (pair int int))) "ABB minimal windows"
    [ (2, 7); (6, 8) ]
    (Episode.minimal_windows s1 (p "ABB"));
  Alcotest.(check (list (pair int int))) "missing" []
    (Episode.minimal_windows s1 (p "DD"))

(* --- Gap requirement (Zhang) --- *)

let test_gap_counts () =
  Alcotest.(check int) "AB gaps 0..3" 4 (Gap_occurrences.count s1 (p "AB") ~gmin:0 ~gmax:3);
  Alcotest.(check int) "AB unbounded" 8
    (Gap_occurrences.count s1 (p "AB") ~gmin:0 ~gmax:8);
  Alcotest.(check int) "AB gap exactly 0" 2
    (Gap_occurrences.count s1 (p "AB") ~gmin:0 ~gmax:0);
  Alcotest.(check int) "Nl" 22
    (Gap_occurrences.max_possible ~seq_len:8 ~pat_len:2 ~gmin:0 ~gmax:3);
  Alcotest.(check (float 0.0001)) "ratio" (4. /. 22.)
    (Gap_occurrences.support_ratio s1 (p "AB") ~gmin:0 ~gmax:3);
  Alcotest.check_raises "bad bounds" (Invalid_argument "Gap_occurrences: bad gap bounds")
    (fun () -> ignore (Gap_occurrences.count s1 (p "AB") ~gmin:2 ~gmax:1))

let test_gap_counts_against_enumeration () =
  (* On a small sequence, compare with explicit landmark enumeration. *)
  let s = Sequence.of_string "ABABAB" in
  let db = Seqdb.of_sequences [ s ] in
  List.iter
    (fun (gmin, gmax) ->
      let by_dp = Gap_occurrences.count s (p "AB") ~gmin ~gmax in
      let by_enum =
        List.length
          (List.filter
             (fun lm -> lm.(1) - lm.(0) - 1 >= gmin && lm.(1) - lm.(0) - 1 <= gmax)
             (Brute_force.landmarks_in s (p "AB")))
      in
      ignore db;
      Alcotest.(check int) (Printf.sprintf "gaps %d..%d" gmin gmax) by_enum by_dp)
    [ (0, 0); (0, 1); (0, 5); (1, 3); (2, 2) ]

(* --- Interaction patterns (El-Ramly) --- *)

let test_interaction () =
  Alcotest.(check int) "AB in S1" 8 (Interaction.support s1 (p "AB"));
  Alcotest.(check int) "AB db" 9 (Interaction.db_support fig1 (p "AB"));
  Alcotest.(check int) "CD db" 2 (Interaction.db_support fig1 (p "CD"));
  Alcotest.(check int) "A singletons" 3 (Interaction.support s1 (p "A"));
  Alcotest.(check int) "missing" 0 (Interaction.support s1 (p "DD"))

(* --- Iterative patterns (Lo et al.) --- *)

let test_iterative () =
  Alcotest.(check (list (pair int int))) "AB occurrences in S1"
    [ (2, 3); (6, 7) ]
    (Iterative.occurrences s1 (p "AB"));
  Alcotest.(check int) "AB db" 3 (Iterative.db_support fig1 (p "AB"));
  Alcotest.(check int) "CD db" 2 (Iterative.db_support fig1 (p "CD"));
  (* gap events from the pattern alphabet break an occurrence *)
  let s = Sequence.of_string "ACB" in
  Alcotest.(check int) "foreign gap ok" 1 (Iterative.support s (p "AB"));
  let s = Sequence.of_string "AAB" in
  Alcotest.(check int) "own-alphabet gap breaks" 1 (Iterative.support s (p "AB"))

(* --- Levelwise baseline = GSgrow output --- *)

let test_levelwise_equals_gsgrow () =
  List.iter
    (fun db ->
      let idx = Inverted_index.build db in
      let level_results, stats = Levelwise.mine ~max_length:5 idx ~min_sup:2 in
      let dfs_results, _ = Rgs_core.Engine.mine Rgs_core.Gsgrow.strategy ~max_length:5 idx ~min_sup:2 in
      let norm l = List.sort compare l in
      Alcotest.(check (list (pair string int)))
        "same frequent set"
        (norm
           (List.map
              (fun r -> (Rgs_core.Pattern.to_string r.Rgs_core.Mined.pattern, r.Rgs_core.Mined.support))
              dfs_results))
        (norm (List.map (fun (q, s) -> (Rgs_core.Pattern.to_string q, s)) level_results));
      Alcotest.(check bool) "did candidate work" true
        (stats.Levelwise.candidates >= List.length level_results))
    dbs_for_closed

let test_levelwise_levels () =
  let idx = Inverted_index.build (Seqdb.of_strings [ "ABC"; "ABC" ]) in
  let _, stats = Levelwise.mine idx ~min_sup:2 in
  Alcotest.(check int) "deepest level" 3 stats.Levelwise.levels;
  let idx = Inverted_index.build (Seqdb.of_strings [ "AB"; "BA" ]) in
  let _, stats = Levelwise.mine idx ~min_sup:2 in
  Alcotest.(check int) "singletons only" 1 stats.Levelwise.levels

(* --- Table I assembled --- *)

let test_table1_rows () =
  let rows = Rgs_experiments.Table1.rows () in
  Alcotest.(check int) "7 rows" 7 (List.length rows);
  List.iter2
    (fun (name, a, c) (ename, ea, ec) ->
      Alcotest.(check string) "row name" ename name;
      Alcotest.(check int) (name ^ " sup(AB)") ea a;
      Alcotest.(check int) (name ^ " sup(CD)") ec c)
    rows Rgs_experiments.Table1.expected

let suite =
  [
    Alcotest.test_case "seq contains" `Quick test_contains;
    Alcotest.test_case "leftmost match" `Quick test_leftmost_match;
    Alcotest.test_case "sequential support" `Quick test_seq_support;
    Alcotest.test_case "prefixspan complete" `Quick test_prefixspan_complete;
    Alcotest.test_case "prefixspan validation" `Quick test_prefixspan_min_sup_validation;
    Alcotest.test_case "clospan = closed oracle" `Quick test_clospan_closed;
    Alcotest.test_case "bide = closed oracle" `Quick test_bide_closed;
    Alcotest.test_case "bide backscan invariant" `Quick test_bide_backscan_invariant;
    Alcotest.test_case "bide closedness check" `Quick test_bide_is_closed_sequential;
    Alcotest.test_case "episode windows" `Quick test_episode_windows;
    Alcotest.test_case "episode minimal windows" `Quick test_episode_minimal_windows;
    Alcotest.test_case "gap-requirement counts" `Quick test_gap_counts;
    Alcotest.test_case "gap DP = enumeration" `Quick test_gap_counts_against_enumeration;
    Alcotest.test_case "interaction support" `Quick test_interaction;
    Alcotest.test_case "iterative support" `Quick test_iterative;
    Alcotest.test_case "levelwise = GSgrow" `Quick test_levelwise_equals_gsgrow;
    Alcotest.test_case "levelwise levels" `Quick test_levelwise_levels;
    Alcotest.test_case "Table I rows" `Quick test_table1_rows;
  ]
