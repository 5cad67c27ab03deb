(* Customer purchase-history analysis — the motivating scenario of the
   paper's introduction (Example 1.1 and the Related Work discussion).

   Events model a trading company's request handling:
     place   - request placed
     process - request in-process
     cancel  - request cancelled
     deliver - product delivered

   Sequential pattern mining cannot distinguish a behaviour that happens
   once per customer from one that repeats within customers; repetitive
   support can. We mine both and compare.

   Run with: dune exec examples/customer_behavior.exe *)

open Rgs_sequence
open Rgs_core

let () =
  let codec = Codec.of_names [ "place"; "process"; "cancel"; "deliver" ] in
  let s names = Sequence.of_list (List.map (fun n -> Option.get (Codec.find codec n)) names) in

  (* 50 heavy repeat-purchasers and 50 one-shot customers, as in the
     paper's 100-sequence example: S1..S50 = CABABABABABD, S51..S100 = ABCD
     with A = place, B = process, C = cancel, D = deliver. *)
  let repeat_purchaser =
    s [ "cancel"; "place"; "process"; "place"; "process"; "place"; "process";
        "place"; "process"; "place"; "process"; "deliver" ]
  in
  let one_shot = s [ "place"; "process"; "cancel"; "deliver" ] in
  let db =
    Seqdb.of_sequences
      (List.init 100 (fun k -> if k < 50 then repeat_purchaser else one_shot))
  in

  let place_process = Pattern.of_list [ 0; 1 ] in
  let cancel_deliver = Pattern.of_list [ 2; 3 ] in

  (* Sequential support: both patterns look identical (100 customers). *)
  Format.printf "sequential support  place->process : %d@."
    (Rgs_baselines.Seq_mining.support db place_process);
  Format.printf "sequential support  cancel->deliver: %d@."
    (Rgs_baselines.Seq_mining.support db cancel_deliver);

  (* Repetitive support separates them: 5*50 + 50 = 300 vs 100. *)
  Format.printf "repetitive support  place->process : %d@."
    (Miner.support db place_process);
  Format.printf "repetitive support  cancel->deliver: %d@."
    (Miner.support db cancel_deliver);

  (* Mine closed patterns and show per-customer-group feature values: the
     future-work section suggests per-sequence supports as classification
     features; here they cleanly separate the two customer groups. *)
  let report = Miner.mine ~config:(Miner.config ~min_sup:100 ()) db in
  Format.printf "@.Closed patterns with min_sup = 100:@.%a@."
    (Miner.pp_report ~codec ~limit:10) report;

  (* Mined answers are (pattern, support); the per-customer split comes
     from recomputing each pattern's leftmost support set (Algorithm 1). *)
  let idx = Inverted_index.build db in
  List.iter
    (fun r ->
      let per_seq =
        Support_set.per_sequence_counts (Sup_comp.support_set idx r.Mined.pattern)
      in
      let group_a = List.filter (fun (i, _) -> i <= 50) per_seq in
      let group_b = List.filter (fun (i, _) -> i > 50) per_seq in
      let avg l =
        if l = [] then 0.
        else
          float_of_int (List.fold_left (fun a (_, c) -> a + c) 0 l)
          /. float_of_int (List.length l)
      in
      Format.printf "%a: avg instances/customer — repeaters %.1f, one-shots %.1f@."
        (Pattern.pp_with codec) r.Mined.pattern (avg group_a) (avg group_b))
    report.Miner.results
