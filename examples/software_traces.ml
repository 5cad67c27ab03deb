(* Software behaviour mining — the paper's case study (Section IV-B).

   Mines closed repetitive gapped subsequences from JBoss-style transaction
   component traces, applies the case study's post-processing (density >
   40%, maximality, ranking by length), and contrasts the result with
   iterative-pattern occurrence counting.

   Run with: dune exec examples/software_traces.exe *)

open Rgs_sequence
open Rgs_core
open Rgs_datagen

let () =
  let db, codec = Jboss_gen.generate (Jboss_gen.params ()) in
  Format.printf "JBoss-style traces:@.%a@.@." Seqdb.pp_stats (Seqdb.stats db);

  (* The paper uses min_sup = 18 on 28 traces. We additionally bound the
     output so the example stays fast; `experiments casestudy` runs it fully. *)
  let config =
    Miner.config ~mode:Miner.Closed ~min_sup:18 ~max_patterns:1000 ()
  in
  let report = Miner.mine ~config db in
  Format.printf "closed patterns (min_sup=18): %d%s in %.2fs@."
    (List.length report.Miner.results)
    (if report.Miner.truncated then "+ (truncated)" else "")
    report.Miner.elapsed_s;

  (* Case-study post-processing: density > 40%, maximal only, rank by
     length. *)
  let kept = Rgs_post.Filters.case_study_pipeline report.Miner.results in
  Format.printf "after density>40%% + maximality + ranking: %d patterns@.@."
    (List.length kept);

  (* The longest pattern should span several semantic blocks of the
     transaction life cycle. *)
  (match kept with
  | [] -> Format.printf "no pattern survived post-processing@."
  | longest :: _ ->
    Format.printf "longest pattern (length %d, sup %d):@."
      (Pattern.length longest.Mined.pattern)
      longest.Mined.support;
    List.iter
      (fun e -> Format.printf "  %s@." (Codec.name codec e))
      (Pattern.to_list longest.Mined.pattern);
    (* Label which life-cycle blocks the pattern touches. *)
    let touched =
      List.filter
        (fun (_, events) ->
          List.exists
            (fun n ->
              match Codec.find codec n with
              | Some e -> List.mem e (Pattern.to_list longest.Mined.pattern)
              | None -> false)
            events)
        Jboss_gen.blocks
    in
    Format.printf "blocks touched: %s@."
      (String.concat " -> " (List.map fst touched)));

  (* The most frequent fine-grained behaviour: lock -> unlock. *)
  let lock = Option.get (Codec.find codec "TransImpl.lock") in
  let unlock = Option.get (Codec.find codec "TransImpl.unlock") in
  let lock_unlock = Pattern.of_list [ lock; unlock ] in
  Format.printf "@.sup(TransImpl.lock -> TransImpl.unlock) = %d@."
    (Miner.support db lock_unlock);

  (* Contrast with iterative patterns (Lo et al.): their QRE semantics
     forbids pattern events inside gaps, so repeated enlistment blocks
     break one long behaviour into pieces; repetitive gapped subsequences
     keep it whole. *)
  Format.printf "iterative-pattern occurrences of lock->unlock = %d@."
    (Rgs_baselines.Iterative.db_support db lock_unlock)
