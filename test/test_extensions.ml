(* Tests for the future-work extensions: gap-constrained repetitive mining
   (Section V) and pattern-based sequence features / classification. *)

open Rgs_sequence
open Rgs_core

let p = Pattern.of_string

(* --- Gap_constrained --- *)

let test_gap_grow_basic () =
  (* S = ABAB, pattern AB, max_gap 0: only adjacent pairs *)
  let idx = Inverted_index.build (Seqdb.of_strings [ "ABAB" ]) in
  Alcotest.(check int) "gap 0" 2 (Gap_constrained.support idx ~max_gap:0 (p "AB"));
  let idx = Inverted_index.build (Seqdb.of_strings [ "ACBAB" ]) in
  Alcotest.(check int) "gap 0 blocks C" 1 (Gap_constrained.support idx ~max_gap:0 (p "AB"));
  Alcotest.(check int) "gap 1 allows C" 2 (Gap_constrained.support idx ~max_gap:1 (p "AB"))

let test_gap_skip_not_break () =
  (* S = AAB with gap 0: the leftmost A cannot reach B, but the second can.
     A break-style growth would report 0; skip-style reports 1. *)
  let idx = Inverted_index.build (Seqdb.of_strings [ "AAB" ]) in
  Alcotest.(check int) "skip recovers" 1 (Gap_constrained.support idx ~max_gap:0 (p "AB"))

let test_gap_matches_paper_example () =
  (* Zhang-style gaps on Example 1.1's S1: 4 occurrences of AB with gaps
     0..3 — but the non-overlapping count is 2 (A@1/A@2 -> B@3 shares B). *)
  let db = Seqdb.of_strings [ "AABCDABB" ] in
  let idx = Inverted_index.build db in
  Alcotest.(check int) "non-overlap, gaps<=3" 2
    (Gap_constrained.support idx ~max_gap:3 (p "AB"));
  Alcotest.(check int) "oracle agrees" 2 (Brute_force.support ~max_gap:3 db (p "AB"))

let test_gap_unbounded_equals_unconstrained () =
  let db = Seqdb.of_strings [ "ABCACBDDB"; "ACDBACADD" ] in
  let idx = Inverted_index.build db in
  List.iter
    (fun s ->
      Alcotest.(check int) s
        (Sup_comp.support idx (p s))
        (Gap_constrained.support idx ~max_gap:100 (p s)))
    [ "A"; "AB"; "ACB"; "ACA"; "AA"; "ACAD" ]

let test_gap_mine_sound () =
  let db = Seqdb.of_strings [ "ABABAB"; "AABB"; "ABBA" ] in
  let idx = Inverted_index.build db in
  let results, stats =
    Engine.mine (Gap_constrained.strategy ~min_gap:0 ~max_gap:1) idx ~min_sup:2
  in
  Alcotest.(check bool) "found some" true (stats.Engine.emitted > 0);
  List.iter
    (fun r ->
      let exact = Brute_force.support ~max_gap:1 db r.Mined.pattern in
      Alcotest.(check bool)
        (Printf.sprintf "%s: greedy %d <= exact %d >= min_sup"
           (Pattern.to_string r.Mined.pattern) r.Mined.support exact)
        true
        (r.Mined.support <= exact && exact >= 2))
    results

let test_min_gap () =
  (* two-sided gap requirement: with min_gap = 1 adjacent pairs no longer
     count. *)
  let p = Pattern.of_string in
  (* ABAB: adjacent pairs excluded; only A@1 -> B@4 (gap 2) survives *)
  let db0 = Seqdb.of_strings [ "ABAB" ] in
  let idx = Inverted_index.build db0 in
  Alcotest.(check int) "adjacent excluded" 1
    (Gap_constrained.support ~min_gap:1 idx ~max_gap:3 (p "AB"));
  Alcotest.(check int) "oracle agrees on ABAB" 1
    (Brute_force.support ~min_gap:1 ~max_gap:3 db0 (p "AB"));
  Alcotest.(check int) "min_gap 3 excludes all" 0
    (Gap_constrained.support ~min_gap:3 idx ~max_gap:5 (p "AB"));
  let db = Seqdb.of_strings [ "ACBACB" ] in
  let idx = Inverted_index.build db in
  Alcotest.(check int) "gap exactly 1 kept" 2
    (Gap_constrained.support ~min_gap:1 idx ~max_gap:1 (p "AB"));
  Alcotest.(check int) "oracle agrees" 2
    (Brute_force.support ~min_gap:1 ~max_gap:1 db (p "AB"));
  Alcotest.check_raises "min > max"
    (Invalid_argument "Gap_constrained: min_gap > max_gap") (fun () ->
      ignore (Gap_constrained.support ~min_gap:3 idx ~max_gap:1 (p "AB")))

let test_gap_validation () =
  let idx = Inverted_index.build (Seqdb.of_strings [ "AB" ]) in
  Alcotest.check_raises "negative gap"
    (Invalid_argument "Gap_constrained: max_gap must be >= 0") (fun () ->
      ignore
        (Engine.mine (Gap_constrained.strategy ~min_gap:0 ~max_gap:(-1)) idx
           ~min_sup:1));
  Alcotest.check_raises "min_sup"
    (Invalid_argument "Gap_constrained: min_sup must be >= 1") (fun () ->
      ignore
        (Engine.mine (Gap_constrained.strategy ~min_gap:0 ~max_gap:1) idx
           ~min_sup:0))

(* invalid gaps are refused when the strategy is built, so a pool run
   raises to its caller instead of quarantining every root whose grow
   would have raised *)
let test_gap_strategy_validation () =
  let raises name msg ~min_gap ~max_gap =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Gap_constrained.strategy ~min_gap ~max_gap))
  in
  raises "negative max_gap" "Gap_constrained: max_gap must be >= 0" ~min_gap:0
    ~max_gap:(-1);
  raises "negative min_gap" "Gap_constrained: min_gap must be >= 0"
    ~min_gap:(-1) ~max_gap:1;
  raises "min_gap > max_gap" "Gap_constrained: min_gap > max_gap" ~min_gap:2
    ~max_gap:1;
  let db = Seqdb.of_strings [ "ABAB"; "ABBA" ] in
  Alcotest.check_raises "pool run through Miner"
    (Invalid_argument "Gap_constrained: max_gap must be >= 0") (fun () ->
      ignore
        (Miner.mine
           ~config:(Miner.config ~min_sup:1 ~max_gap:(-1) ~domains:2 ())
           db))

(* qcheck: greedy gap-constrained support is a lower bound of the exact
   gap-constrained support. *)
let prop_gap_lower_bound =
  let gen =
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 3)
           (list_size (int_bound 7) (int_bound 2)))
        (list_size (int_range 1 3) (int_bound 2))
        (int_bound 3))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"gap-constrained greedy <= exact" ~count:300
       ~print:(fun (seqs, pat, gap) ->
         Printf.sprintf "seqs=%s pat=%s gap=%d"
           (String.concat ";"
              (List.map (fun s -> String.concat "," (List.map string_of_int s)) seqs))
           (String.concat "," (List.map string_of_int pat))
           gap)
       gen
       (fun (seqs, pat, gap) ->
         let db = Seqdb.of_sequences (List.map Sequence.of_list seqs) in
         let idx = Inverted_index.build db in
         let pattern = Pattern.of_list pat in
         Gap_constrained.support idx ~max_gap:gap pattern
         <= Brute_force.support ~max_gap:gap db pattern))

(* --- Features / classification --- *)

let repeaters_and_oneshots () =
  (* 6 repeaters (ABABAB...) and 6 one-shots (ABCD) *)
  let seqs =
    List.init 12 (fun k -> if k < 6 then "CABABABD" else "ABCD")
  in
  Seqdb.of_strings seqs

let test_feature_matrix () =
  let db = repeaters_and_oneshots () in
  let report = Rgs_core.Miner.mine ~config:(Miner.config ~min_sup:12 ()) db in
  let m = Rgs_post.Features.feature_matrix (Inverted_index.build db) report.Miner.results in
  Alcotest.(check int) "12 rows" 12 (Array.length m.Rgs_post.Features.counts);
  (* the AB column separates the groups *)
  let ab_col =
    match
      Array.to_list m.Rgs_post.Features.patterns
      |> List.mapi (fun j q -> (j, q))
      |> List.find_opt (fun (_, q) -> Pattern.equal q (p "AB"))
    with
    | Some (j, _) -> j
    | None -> Alcotest.fail "AB not mined"
  in
  Array.iteri
    (fun i row ->
      let expected = if i < 6 then 3 else 1 in
      Alcotest.(check int) (Printf.sprintf "row %d" i) expected row.(ab_col))
    m.Rgs_post.Features.counts

let test_discriminative_and_classify () =
  let db = repeaters_and_oneshots () in
  let report = Rgs_core.Miner.mine ~config:(Miner.config ~min_sup:12 ()) db in
  let m = Rgs_post.Features.feature_matrix (Inverted_index.build db) report.Miner.results in
  let labels = Array.init 12 (fun i -> i < 6) in
  let scored = Rgs_post.Features.discriminative_scores m ~labels in
  (* the best discriminator must involve the repeated AB behaviour, not CD *)
  let best, best_score = scored.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "best=%s score=%.2f" (Pattern.to_string best) best_score)
    true
    (Pattern.is_subpattern (p "AB") ~of_:best && best_score > 1.0);
  let top = Rgs_post.Features.select_top 2 scored in
  Alcotest.(check int) "top-2" 2 (List.length top);
  (* nearest-centroid separates the training data perfectly *)
  let model = Rgs_post.Features.train_nearest_centroid m ~labels in
  Array.iteri
    (fun i row ->
      Alcotest.(check bool) (Printf.sprintf "classify row %d" i) labels.(i)
        (Rgs_post.Features.classify model row))
    m.Rgs_post.Features.counts;
  (* unseen sequences *)
  let fresh = Rgs_post.Features.features_of_sequence db ~patterns:m.Rgs_post.Features.patterns 1 in
  Alcotest.(check bool) "fresh repeater" true (Rgs_post.Features.classify model fresh)

(* The matrix against an independent oracle: cell (i, j) is the exact
   repetitive support of pattern j on the one-sequence database [seq i]
   (instances in different sequences never overlap), and column j sums to
   the pattern's support over the whole database. Gap-constrained results
   get the same unconstrained counts (features.mli), so their columns sum
   to the unconstrained support, not to the mined one. *)
let prop_feature_matrix_oracle =
  let gen =
    QCheck2.Gen.(
      triple (Gens.db ~num_seqs:4 ~alphabet:3 ~max_len:7) bool
        (opt (int_bound 2)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"feature matrix = per-sequence brute force" ~count:150
       ~print:(fun (db, closed, gap) ->
         Printf.sprintf "%s\nclosed=%b max_gap=%s" (Gens.print_db db) closed
           (match gap with None -> "none" | Some g -> string_of_int g))
       gen
       (fun (db, closed, gap) ->
         let idx = Inverted_index.build db in
         let results =
           match gap with
           | Some max_gap ->
             fst
               (Engine.mine ~max_length:3
                  (Gap_constrained.strategy ~min_gap:0 ~max_gap)
                  idx ~min_sup:2)
           | None ->
             let mode = if closed then Miner.Closed else Miner.All in
             (Miner.mine ~config:(Miner.config ~mode ~min_sup:2 ~max_length:3 ()) db)
               .Miner.results
         in
         let m = Rgs_post.Features.feature_matrix idx results in
         let rows = Array.length m.Rgs_post.Features.counts in
         let singles =
           Array.init rows (fun i -> Seqdb.of_sequences [ Seqdb.seq db (i + 1) ])
         in
         rows = Seqdb.size db
         && List.for_all
              (fun (j, (r : Mined.t)) ->
                let column =
                  Array.map (fun row -> row.(j)) m.Rgs_post.Features.counts
                in
                let sum = Array.fold_left ( + ) 0 column in
                Pattern.equal m.Rgs_post.Features.patterns.(j) r.pattern
                && Array.for_all2
                     (fun cell single -> cell = Brute_force.support single r.pattern)
                     column singles
                && sum = Brute_force.support db r.pattern
                && (gap <> None || sum = r.support))
              (List.mapi (fun j r -> (j, r)) results)))

let test_features_validation () =
  let db = repeaters_and_oneshots () in
  let report = Rgs_core.Miner.mine ~config:(Miner.config ~min_sup:12 ()) db in
  let m = Rgs_post.Features.feature_matrix (Inverted_index.build db) report.Miner.results in
  Alcotest.check_raises "bad labels length"
    (Invalid_argument "Features: labels length must match the number of sequences")
    (fun () -> ignore (Rgs_post.Features.discriminative_scores m ~labels:[| true |]));
  Alcotest.check_raises "one-group labels"
    (Invalid_argument "Features: both groups must be non-empty") (fun () ->
      ignore
        (Rgs_post.Features.discriminative_scores m ~labels:(Array.make 12 true)))

let suite =
  [
    Alcotest.test_case "gap grow basic" `Quick test_gap_grow_basic;
    Alcotest.test_case "gap skip-not-break" `Quick test_gap_skip_not_break;
    Alcotest.test_case "gap paper example" `Quick test_gap_matches_paper_example;
    Alcotest.test_case "gap unbounded = unconstrained" `Quick test_gap_unbounded_equals_unconstrained;
    Alcotest.test_case "gap mine sound" `Quick test_gap_mine_sound;
    Alcotest.test_case "gap min_gap" `Quick test_min_gap;
    Alcotest.test_case "gap validation" `Quick test_gap_validation;
    Alcotest.test_case "gap strategy validates when built" `Quick
      test_gap_strategy_validation;
    prop_gap_lower_bound;
    Alcotest.test_case "feature matrix" `Quick test_feature_matrix;
    Alcotest.test_case "discriminative + classify" `Quick test_discriminative_and_classify;
    Alcotest.test_case "features validation" `Quick test_features_validation;
    prop_feature_matrix_oracle;
  ]
