(* Every worked example of the paper, checked literally.

   Table II database: S1 = ABCABCA, S2 = AABBCCC.
   Table III database: S1 = ABCACBDDB, S2 = ACDBACADD. *)

open Rgs_sequence
open Rgs_core

let table2 = Seqdb.of_strings [ "ABCABCA"; "AABBCCC" ]
let table3 = Seqdb.of_strings [ "ABCACBDDB"; "ACDBACADD" ]
let fig1 = Seqdb.of_strings [ "AABCDABB"; "ABCD" ]
let idx2 = Inverted_index.build table2
let idx3 = Inverted_index.build table3
let idx1 = Inverted_index.build fig1
let p = Pattern.of_string
let sup idx s = Sup_comp.support idx (p s)

let check_sup idx name expected =
  Alcotest.(check int) (Printf.sprintf "sup(%s)" name) expected (sup idx name)

let full_landmarks idx s =
  List.map
    (fun (f : Instance.full) -> (f.Instance.fseq, Array.to_list f.Instance.landmark))
    (Sup_comp.landmarks idx (p s))

(* --- Example 1.1 / Figure 1 --- *)

let test_example_1_1 () =
  check_sup idx1 "AB" 4;
  check_sup idx1 "CD" 2

(* The 100-sequence example from the Related Work discussion:
   S1..S50 = CABABABABABD, S51..S100 = ABCD;
   sup(AB) = 5*50 + 50 = 300, sup(CD) = 100. *)
let test_related_work_example () =
  let seqs =
    List.init 100 (fun k -> if k < 50 then "CABABABABABD" else "ABCD")
  in
  let idx = Inverted_index.build (Seqdb.of_strings seqs) in
  Alcotest.(check int) "sup(AB)" 300 (Sup_comp.support idx (p "AB"));
  Alcotest.(check int) "sup(CD)" 100 (Sup_comp.support idx (p "CD"))

(* supall overcounting example from Section II-A:
   SeqDB = {AABBCC...ZZ}; |SeqDB(AB)| = 4 but |SeqDB(ABC..Z)| = 2^26. *)
let test_overcounting_motivation () =
  let s = String.concat "" (List.init 26 (fun i ->
      let c = Char.chr (Char.code 'A' + i) in String.make 2 c))
  in
  let db = Seqdb.of_strings [ s ] in
  let ab_instances = Brute_force.all_instances db (p "AB") in
  Alcotest.(check int) "|SeqDB(AB)| = 4" 4 (List.length ab_instances);
  (* repetitive support avoids the blowup: *)
  let idx = Inverted_index.build db in
  Alcotest.(check int) "sup(AB) = 2" 2 (Sup_comp.support idx (p "AB"));
  let alphabet_pattern = Pattern.of_string "ABCDEFGHIJKLMNOPQRSTUVWXYZ" in
  Alcotest.(check int) "sup(A..Z) = 2" 2 (Sup_comp.support idx alphabet_pattern)

(* --- Example 2.1 / Table II --- *)

let test_example_2_1_instances () =
  let ab = Brute_force.all_instances table2 (p "AB") in
  Alcotest.(check int) "|S1(AB)| + |S2(AB)|" 7 (List.length ab);
  let in_s1 = List.filter (fun (f : Instance.full) -> f.Instance.fseq = 1) ab in
  let in_s2 = List.filter (fun (f : Instance.full) -> f.Instance.fseq = 2) ab in
  Alcotest.(check int) "3 instances of AB in S1" 3 (List.length in_s1);
  Alcotest.(check int) "4 instances of AB in S2" 4 (List.length in_s2);
  let landmarks_s1 =
    List.map (fun (f : Instance.full) -> Array.to_list f.Instance.landmark) in_s1
  in
  Alcotest.(check (list (list int)))
    "S1(AB) landmarks" [ [ 1; 2 ]; [ 1; 5 ]; [ 4; 5 ] ]
    (List.sort compare landmarks_s1);
  (* ABA: instances in S1 only. The paper's Example 2.1 lists three
     landmarks but omits <1,5,7>, which is also valid (S1[1]=A, S1[5]=B,
     S1[7]=A); the true count is 4. sup(ABA) = 2 is unaffected. *)
  let aba = Brute_force.all_instances table2 (p "ABA") in
  Alcotest.(check int) "|SeqDB(ABA)|" 4 (List.length aba);
  let aba_landmarks =
    List.sort compare
      (List.map (fun (f : Instance.full) -> Array.to_list f.Instance.landmark) aba)
  in
  Alcotest.(check (list (list int)))
    "SeqDB(ABA) landmarks"
    [ [ 1; 2; 4 ]; [ 1; 2; 7 ]; [ 1; 5; 7 ]; [ 4; 5; 7 ] ]
    aba_landmarks;
  Alcotest.check Alcotest.bool "all ABA instances in S1" true
    (List.for_all (fun (f : Instance.full) -> f.Instance.fseq = 1) aba)

let test_example_2_1_overlap () =
  let inst lm = { Instance.fseq = 1; landmark = Array.of_list lm } in
  (* (1,<1,2>) and (1,<1,5>) overlap at the first event *)
  Alcotest.check Alcotest.bool "overlap" true
    (Instance.overlap (inst [ 1; 2 ]) (inst [ 1; 5 ]));
  (* (1,<1,2>) and (1,<4,5>) are non-overlapping *)
  Alcotest.check Alcotest.bool "non-overlap" true
    (Instance.non_overlapping (inst [ 1; 2 ]) (inst [ 4; 5 ]));
  (* ABA: (1,<1,2,7>) and (1,<4,5,7>) overlap (l3 = l'3) *)
  Alcotest.check Alcotest.bool "ABA overlap" true
    (Instance.overlap (inst [ 1; 2; 7 ]) (inst [ 4; 5; 7 ]));
  (* ABA: (1,<1,2,4>) and (1,<4,5,7>) non-overlapping although l3 = l'1 = 4 *)
  Alcotest.check Alcotest.bool "ABA non-overlap across indices" true
    (Instance.non_overlapping (inst [ 1; 2; 4 ]) (inst [ 4; 5; 7 ]));
  (* ... but they do overlap under the stronger footnote-1 semantics *)
  Alcotest.check Alcotest.bool "ABA strict overlap" true
    (Instance.strictly_overlap (inst [ 1; 2; 4 ]) (inst [ 4; 5; 7 ]))

(* --- Example 2.2 --- *)

let test_example_2_2_supports () =
  check_sup idx2 "AB" 4;
  check_sup idx2 "ABA" 2

(* --- Example 2.3: sup(ABC) = sup(AB) = 4, so AB is not closed --- *)

let test_example_2_3_closedness () =
  check_sup idx2 "ABC" 4;
  Alcotest.check Alcotest.bool "AB not closed in Table II" false
    (Closure.is_closed idx2 (p "AB"));
  let landmarks = full_landmarks idx2 "ABC" in
  Alcotest.(check (list (pair int (list int))))
    "leftmost support set of ABC"
    [ (1, [ 1; 2; 3 ]); (1, [ 4; 5; 6 ]); (2, [ 1; 3; 5 ]); (2, [ 2; 4; 6 ]) ]
    landmarks

(* --- Example 3.1 / Table IV: instance growth from A to ACB --- *)

let test_example_3_1_table4 () =
  check_sup idx3 "A" 5;
  check_sup idx3 "AC" 4;
  check_sup idx3 "ACB" 3;
  Alcotest.(check (list (pair int (list int))))
    "support set I_A"
    [ (1, [ 1 ]); (1, [ 4 ]); (2, [ 1 ]); (2, [ 5 ]); (2, [ 7 ]) ]
    (full_landmarks idx3 "A");
  Alcotest.(check (list (pair int (list int))))
    "support set I_AC"
    [ (1, [ 1; 3 ]); (1, [ 4; 5 ]); (2, [ 1; 2 ]); (2, [ 5; 6 ]) ]
    (full_landmarks idx3 "AC");
  Alcotest.(check (list (pair int (list int))))
    "support set I_ACB"
    [ (1, [ 1; 3; 6 ]); (1, [ 4; 5; 9 ]); (2, [ 1; 2; 4 ]) ]
    (full_landmarks idx3 "ACB")

let test_example_3_1_aca () =
  check_sup idx3 "ACA" 3;
  Alcotest.(check (list (pair int (list int))))
    "support set I_ACA"
    [ (1, [ 1; 3; 4 ]); (2, [ 1; 2; 5 ]); (2, [ 5; 6; 7 ]) ]
    (full_landmarks idx3 "ACA")

(* --- Example 3.2: leftmost support sets --- *)

let test_example_3_2_leftmost () =
  (* The leftmost support set of AB in Table III is
     {(1,<1,2>), (1,<4,6>), (2,<1,4>)} — not the right-shifted variant. *)
  Alcotest.(check (list (pair int (list int))))
    "leftmost support set of AB"
    [ (1, [ 1; 2 ]); (1, [ 4; 6 ]); (2, [ 1; 4 ]) ]
    (full_landmarks idx3 "AB")

(* --- Example 3.4: GSgrow on Table III with min_sup = 3 --- *)

let test_example_3_4_gsgrow () =
  let results, stats = Engine.mine Gsgrow.strategy idx3 ~min_sup:3 in
  Alcotest.check Alcotest.bool "not truncated" false stats.Engine.truncated;
  let find s =
    List.find_opt (fun r -> Pattern.equal r.Mined.pattern (p s)) results
  in
  let sup_of s =
    match find s with Some r -> r.Mined.support | None -> -1
  in
  Alcotest.(check int) "AA frequent with sup 3" 3 (sup_of "AA");
  Alcotest.(check int) "ACB frequent with sup 3" 3 (sup_of "ACB");
  Alcotest.(check int) "ABD frequent with sup 3" 3 (sup_of "ABD");
  (* AAA has support 1 < 3: pruned *)
  Alcotest.check Alcotest.bool "AAA not frequent" true (find "AAA" = None);
  (* supports of all reported patterns match supComp *)
  List.iter
    (fun r ->
      Alcotest.(check int)
        (Format.asprintf "sup(%a)" Pattern.pp r.Mined.pattern)
        (Sup_comp.support idx3 r.Mined.pattern)
        r.Mined.support)
    results

(* --- Example 3.5: AB is non-closed (ACB has equal support) but must not be
   LB-pruned: ABD is closed with prefix AB. --- *)

let test_example_3_5 () =
  check_sup idx3 "AB" 3;
  check_sup idx3 "ACB" 3;
  Alcotest.check Alcotest.bool "AB not closed" false (Closure.is_closed idx3 (p "AB"));
  Alcotest.check Alcotest.bool "AB not LB-prunable" false
    (Closure.lb_prunable idx3 (p "AB"));
  check_sup idx3 "ABD" 3

(* --- Example 3.6: AA is both non-closed and LB-prunable via ACA --- *)

let test_example_3_6 () =
  check_sup idx3 "AA" 3;
  check_sup idx3 "ACA" 3;
  Alcotest.(check (list (pair int (list int))))
    "leftmost support set of AA"
    [ (1, [ 1; 4 ]); (2, [ 1; 5 ]); (2, [ 5; 7 ]) ]
    (full_landmarks idx3 "AA");
  Alcotest.check Alcotest.bool "AA not closed" false (Closure.is_closed idx3 (p "AA"));
  Alcotest.check Alcotest.bool "AA LB-prunable" true (Closure.lb_prunable idx3 (p "AA"));
  check_sup idx3 "AAD" 3;
  check_sup idx3 "ACAD" 3;
  Alcotest.check Alcotest.bool "AAD not closed" false (Closure.is_closed idx3 (p "AAD"))

(* --- CloGSgrow on Table III agrees with the brute-force closed set --- *)

let test_clogsgrow_table3 () =
  let closed_oracle = Brute_force.closed table3 ~min_sup:3 in
  let results, _ = Engine.mine Gens.closed idx3 ~min_sup:3 in
  let got =
    List.sort compare
      (List.map (fun r -> (Pattern.to_string r.Mined.pattern, r.Mined.support)) results)
  in
  let expected =
    List.sort compare
      (List.map (fun (q, s) -> (Pattern.to_string q, s)) closed_oracle)
  in
  Alcotest.(check (list (pair string int))) "closed set" expected got

(* --- Footnote 1: stronger overlap semantics --- *)

let test_footnote_strict_overlap () =
  Alcotest.(check int) "strict sup(ABA) = 1" 1
    (Strict_overlap.support table2 (p "ABA"));
  Alcotest.(check int) "paper sup(ABA) = 2" 2 (Sup_comp.support idx2 (p "ABA"));
  (* AABBAB is in the iterated shuffle of AB; ABBA is not. *)
  Alcotest.check Alcotest.bool "AABBAB in shuffle(AB)" true
    (Strict_overlap.in_iterated_shuffle ~v:(Sequence.of_string "AB")
       ~w:(Sequence.of_string "AABBAB"));
  Alcotest.check Alcotest.bool "ABBA not in shuffle(AB)" false
    (Strict_overlap.in_iterated_shuffle ~v:(Sequence.of_string "AB")
       ~w:(Sequence.of_string "ABBA"))

let suite =
  [
    Alcotest.test_case "example 1.1 (Figure 1)" `Quick test_example_1_1;
    Alcotest.test_case "related-work 100-sequence example" `Quick test_related_work_example;
    Alcotest.test_case "supall overcounting motivation" `Quick test_overcounting_motivation;
    Alcotest.test_case "example 2.1: instances" `Quick test_example_2_1_instances;
    Alcotest.test_case "example 2.1: overlap" `Quick test_example_2_1_overlap;
    Alcotest.test_case "example 2.2: supports" `Quick test_example_2_2_supports;
    Alcotest.test_case "example 2.3: closedness" `Quick test_example_2_3_closedness;
    Alcotest.test_case "example 3.1: Table IV growth" `Quick test_example_3_1_table4;
    Alcotest.test_case "example 3.1: ACA" `Quick test_example_3_1_aca;
    Alcotest.test_case "example 3.2: leftmost" `Quick test_example_3_2_leftmost;
    Alcotest.test_case "example 3.4: GSgrow" `Quick test_example_3_4_gsgrow;
    Alcotest.test_case "example 3.5: CCheck only" `Quick test_example_3_5;
    Alcotest.test_case "example 3.6: LBCheck prunes AA" `Quick test_example_3_6;
    Alcotest.test_case "CloGSgrow = oracle on Table III" `Quick test_clogsgrow_table3;
    Alcotest.test_case "footnote 1: strict overlap" `Quick test_footnote_strict_overlap;
  ]
