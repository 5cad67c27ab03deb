(* Unit tests for instances, support sets, instance growth and supComp on
   hand-checked inputs beyond the paper's own examples. *)

open Rgs_sequence
open Rgs_core

let p = Pattern.of_string

let inst seq lm = { Instance.fseq = seq; landmark = Array.of_list lm }

(* --- Instance --- *)

let test_compress () =
  let c = Instance.compress (inst 3 [ 2; 5; 9 ]) in
  Alcotest.(check int) "seq" 3 c.Instance.seq;
  Alcotest.(check int) "first" 2 c.Instance.first;
  Alcotest.(check int) "last" 9 c.Instance.last;
  Alcotest.check_raises "empty" (Invalid_argument "Instance.compress: empty landmark")
    (fun () -> ignore (Instance.compress (inst 1 [])))

let test_right_shift_order () =
  let a = { Instance.seq = 1; first = 1; last = 5 } in
  let b = { Instance.seq = 1; first = 2; last = 7 } in
  let c = { Instance.seq = 2; first = 1; last = 2 } in
  Alcotest.(check bool) "a before b" true (Instance.right_shift_compare a b < 0);
  Alcotest.(check bool) "b before c" true (Instance.right_shift_compare b c < 0);
  Alcotest.(check int) "reflexive" 0 (Instance.right_shift_compare a a)

let test_right_shift_order_full_tiebreak () =
  (* Regression: instances agreeing on sequence and last landmark used to
     compare equal even when earlier landmark positions differed, making
     the "order" non-total — sorting could then interleave distinct
     instances nondeterministically. Earlier positions now break ties
     lexicographically. *)
  let a = inst 1 [ 1; 3; 9 ] in
  let b = inst 1 [ 1; 4; 9 ] in
  Alcotest.(check bool) "lex tie-break a<b" true
    (Instance.right_shift_compare_full a b < 0);
  Alcotest.(check bool) "antisymmetric" true
    (Instance.right_shift_compare_full b a > 0);
  Alcotest.(check int) "reflexive" 0 (Instance.right_shift_compare_full a a);
  (* first position decides, consistent with the compressed order *)
  let c = inst 1 [ 2; 3; 9 ] in
  Alcotest.(check bool) "first decides" true
    (Instance.right_shift_compare_full a c < 0);
  Alcotest.(check bool) "matches compressed" true
    (Instance.right_shift_compare (Instance.compress a) (Instance.compress c) < 0);
  (* equal last but different length: lex scan decides at the first
     divergence *)
  let short = inst 1 [ 9 ] in
  let long = inst 1 [ 3; 9 ] in
  Alcotest.(check bool) "lex across lengths" true
    (Instance.right_shift_compare_full long short < 0);
  (* last landmark still dominates everything after the sequence *)
  let early = inst 1 [ 7; 8 ] in
  Alcotest.(check bool) "last dominates" true
    (Instance.right_shift_compare_full early a < 0);
  Alcotest.(check bool) "seq dominates" true
    (Instance.right_shift_compare_full a (inst 2 [ 1 ]) < 0)

let test_overlap_mismatched () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Instance.overlap: landmark lengths differ") (fun () ->
      ignore (Instance.overlap (inst 1 [ 1; 2 ]) (inst 1 [ 1; 2; 3 ])))

let test_different_sequences_never_overlap () =
  Alcotest.(check bool) "diff seq" true
    (Instance.non_overlapping (inst 1 [ 1; 2 ]) (inst 2 [ 1; 2 ]));
  Alcotest.(check bool) "strict diff seq" false
    (Instance.strictly_overlap (inst 1 [ 1; 2 ]) (inst 2 [ 1; 2 ]))

let test_is_landmark_of () =
  let s = Sequence.of_string "ABCAB" in
  Alcotest.(check bool) "valid" true (Instance.is_landmark_of (p "AB") s [| 1; 2 |]);
  Alcotest.(check bool) "valid gapped" true (Instance.is_landmark_of (p "AB") s [| 1; 5 |]);
  Alcotest.(check bool) "wrong event" false (Instance.is_landmark_of (p "AB") s [| 1; 3 |]);
  Alcotest.(check bool) "not increasing" false (Instance.is_landmark_of (p "AB") s [| 2; 2 |]);
  Alcotest.(check bool) "decreasing" false (Instance.is_landmark_of (p "AB") s [| 4; 2 |]);
  Alcotest.(check bool) "out of bounds" false (Instance.is_landmark_of (p "AB") s [| 1; 6 |]);
  Alcotest.(check bool) "wrong length" false (Instance.is_landmark_of (p "AB") s [| 1 |])

(* --- Support_set --- *)

let db = Seqdb.of_strings [ "ABCABCA"; "AABBCCC" ]
let idx = Inverted_index.build db

let test_of_event () =
  let i = Support_set.of_event idx 0 in
  Alcotest.(check int) "size" 5 (Support_set.size i);
  Alcotest.(check int) "sequences" 2 (Support_set.num_sequences i);
  Alcotest.(check (list int)) "sequence ids" [ 1; 2 ] (Support_set.sequences i);
  Alcotest.(check (list (pair int int))) "per-seq counts" [ (1, 3); (2, 2) ]
    (Support_set.per_sequence_counts i);
  let lasts = Array.to_list (Support_set.lasts i) in
  Alcotest.(check (list (pair int int))) "lasts"
    [ (1, 1); (1, 4); (1, 7); (2, 1); (2, 2) ] lasts

let test_of_event_missing () =
  let i = Support_set.of_event idx 9 in
  Alcotest.(check int) "empty" 0 (Support_set.size i);
  Alcotest.(check bool) "is_empty" true (Support_set.is_empty i)

let test_grow_step () =
  (* A -> AB on S1=ABCABCA, S2=AABBCCC:
     S1: (1)->2, (4)->5; (7) dies. S2: (1)->3, (2)->4. *)
  let i = Support_set.grow idx (Support_set.of_event idx 0) 1 in
  Alcotest.(check int) "size" 4 (Support_set.size i);
  let insts = Support_set.instances i in
  let as_triples = List.map (fun x -> Instance.(x.seq, (x.first, x.last))) insts in
  Alcotest.(check (list (pair int (pair int int)))) "instances"
    [ (1, (1, 2)); (1, (4, 5)); (2, (1, 3)); (2, (2, 4)) ]
    as_triples

let test_grow_to_empty () =
  let i = Support_set.grow idx (Support_set.of_event idx 0) 9 in
  Alcotest.(check int) "no extension" 0 (Support_set.size i)

let test_instances_in () =
  let i = Support_set.of_event idx 2 in
  Alcotest.(check int) "C in S1" 2 (Array.length (Support_set.instances_in i ~seq:1));
  Alcotest.(check int) "C in S2" 3 (Array.length (Support_set.instances_in i ~seq:2));
  Alcotest.(check int) "C in S3" 0 (Array.length (Support_set.instances_in i ~seq:3))

(* --- Insgrow full-landmark variant agrees with the compressed one --- *)

let test_full_variant_agrees () =
  let patterns = [ "A"; "AB"; "ABC"; "AA"; "ABA"; "CC"; "CCC"; "BC" ] in
  List.iter
    (fun s ->
      let pat = p s in
      let compressed = Sup_comp.support_set idx pat in
      let full = Sup_comp.landmarks idx pat in
      Alcotest.(check int) (s ^ ": same size") (Support_set.size compressed)
        (List.length full);
      (* compressing the full set gives exactly the compressed set *)
      let compressed_from_full = List.map Instance.compress full in
      Alcotest.(check bool) (s ^ ": same instances") true
        (compressed_from_full = Support_set.instances compressed);
      (* every full landmark is a real landmark *)
      List.iter
        (fun (f : Instance.full) ->
          Alcotest.(check bool) (s ^ ": landmark valid") true
            (Instance.is_landmark_of pat (Seqdb.seq db f.Instance.fseq) f.Instance.landmark))
        full;
      (* pairwise non-overlapping *)
      List.iteri
        (fun k1 f1 ->
          List.iteri
            (fun k2 f2 ->
              if k1 < k2 then
                Alcotest.(check bool) (s ^ ": non-overlap") true
                  (Instance.non_overlapping f1 f2))
            full)
        full)
    patterns

(* --- supComp edge cases --- *)

let test_supcomp_edges () =
  Alcotest.(check int) "empty pattern" 0 (Sup_comp.support idx Pattern.empty);
  Alcotest.(check int) "absent event" 0 (Sup_comp.support idx (p "Z"));
  Alcotest.(check int) "pattern longer than sequences" 0
    (Sup_comp.support idx (p "ABCABCABCABC"));
  Alcotest.(check int) "single event" 5 (Sup_comp.support idx (p "A"))

let test_supcomp_single_sequence_repeats () =
  (* AAAA: instances may share positions as long as they differ at every
     pattern index (Definition 2.3), so {<1,2>, <2,3>, <3,4>} is a
     non-redundant instance set of AA and sup(AA) = 3 (not 2!). Under the
     stronger footnote-1 semantics it would be 2. *)
  let db = Seqdb.of_strings [ "AAAA" ] in
  let idx = Inverted_index.build db in
  Alcotest.(check int) "A" 4 (Sup_comp.support idx (p "A"));
  Alcotest.(check int) "AA" 3 (Sup_comp.support idx (p "AA"));
  Alcotest.(check int) "AAA" 2 (Sup_comp.support idx (p "AAA"));
  Alcotest.(check int) "AAAA" 1 (Sup_comp.support idx (p "AAAA"));
  Alcotest.(check int) "strict AA" 2 (Strict_overlap.support db (p "AA"));
  Alcotest.(check int) "strict AAA" 1 (Strict_overlap.support db (p "AAA"))

let test_reconstruct_from_triples () =
  (* Section III-D: full landmarks re-derived from (i, l1, ln) triples
     coincide with the recomputed leftmost support set. *)
  List.iter
    (fun s ->
      let pat = p s in
      let set = Sup_comp.support_set idx pat in
      let reconstructed = Sup_comp.reconstruct idx pat set in
      let recomputed = Sup_comp.landmarks idx pat in
      Alcotest.(check bool) (s ^ ": reconstruct = landmarks") true
        (List.for_all2 Instance.equal_full reconstructed recomputed))
    [ "A"; "AB"; "ABC"; "ABA"; "CC"; "BC" ];
  (* a non-leftmost set is rejected *)
  let bogus =
    Support_set.unsafe_of_groups
      [| (1, [| { Instance.seq = 1; first = 4; last = 5 } |]) |]
  in
  Alcotest.check_raises "bogus set rejected"
    (Invalid_argument "Sup_comp.reconstruct: set is not a leftmost support set of p")
    (fun () -> ignore (Sup_comp.reconstruct idx (p "ABC") bogus))

let suite =
  [
    Alcotest.test_case "instance compress" `Quick test_compress;
    Alcotest.test_case "right-shift order" `Quick test_right_shift_order;
    Alcotest.test_case "right-shift order full tie-break" `Quick
      test_right_shift_order_full_tiebreak;
    Alcotest.test_case "overlap length mismatch" `Quick test_overlap_mismatched;
    Alcotest.test_case "cross-sequence overlap" `Quick test_different_sequences_never_overlap;
    Alcotest.test_case "is_landmark_of" `Quick test_is_landmark_of;
    Alcotest.test_case "support set of event" `Quick test_of_event;
    Alcotest.test_case "support set of missing event" `Quick test_of_event_missing;
    Alcotest.test_case "single grow step" `Quick test_grow_step;
    Alcotest.test_case "grow to empty" `Quick test_grow_to_empty;
    Alcotest.test_case "instances_in" `Quick test_instances_in;
    Alcotest.test_case "full variant agrees" `Quick test_full_variant_agrees;
    Alcotest.test_case "supComp edge cases" `Quick test_supcomp_edges;
    Alcotest.test_case "supComp within-sequence repeats" `Quick test_supcomp_single_sequence_repeats;
    Alcotest.test_case "reconstruct from triples" `Quick test_reconstruct_from_triples;
  ]
