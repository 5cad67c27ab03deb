(* Classifying program traces with repetitive patterns as features — the
   paper's future-work proposal (Section V): "The patterns which repeat
   frequently in some sequences while infrequently in others could be
   discriminative features for classification", e.g. buggy vs non-buggy
   execution traces.

   We synthesise two trace populations from the same control-flow model —
   a healthy one, and a "buggy" one in which a retry loop spins more and a
   cleanup block is sometimes skipped — mine closed repetitive patterns
   over the combined database, score them for discriminativeness, and
   cross-validate a nearest-centroid classifier on held-out traces.

   Run with: dune exec examples/trace_classification.exe *)

open Rgs_sequence
open Rgs_core
open Rgs_datagen
module Features = Rgs_post.Features

let healthy_model =
  let open Trace_gen in
  Seq
    [
      Emit 0; Emit 1; (* init *)
      Loop { body = Seq [ Emit 2; Emit 3; Emit 4 ]; continue_p = 0.3; max_iters = 3 };
      Emit 5; Emit 6; (* cleanup *)
    ]

let buggy_model =
  let open Trace_gen in
  Seq
    [
      Emit 0; Emit 1;
      (* the bug: the retry loop spins much longer and sometimes takes an
         error path (7 = warn, 8 = retry) inside an iteration *)
      Loop
        {
          body = Seq [ Emit 2; Emit 3; Opt (0.4, Seq [ Emit 7; Emit 8 ]); Emit 4 ];
          continue_p = 0.85;
          max_iters = 10;
        };
      (* ... and cleanup is sometimes skipped *)
      Opt (0.5, Seq [ Emit 5; Emit 6 ]);
    ]

let make_traces rng model n =
  List.init n (fun _ -> Trace_gen.run_model rng ~max_length:60 model)

let () =
  let rng = Splitmix.create ~seed:13 in
  let n_train = 30 and n_test = 10 in
  let healthy = make_traces rng healthy_model (n_train + n_test) in
  let buggy = make_traces rng buggy_model (n_train + n_test) in
  let train_db =
    Seqdb.of_sequences
      (List.filteri (fun i _ -> i < n_train) healthy
      @ List.filteri (fun i _ -> i < n_train) buggy)
  in
  let labels = Array.init (2 * n_train) (fun i -> i >= n_train) (* true = buggy *) in

  (* Mine closed repetitive patterns over the combined training traces.
     min_sup below one-instance-per-trace so behaviours present in only one
     population (like the sometimes-skipped cleanup block) are still
     mined. *)
  let report =
    Miner.mine ~config:(Miner.config ~min_sup:(n_train * 2 / 3) ~max_length:10 ()) train_db
  in
  Format.printf "mined %d closed patterns over %d training traces@."
    (List.length report.Miner.results)
    (Seqdb.size train_db);

  (* Which behaviours discriminate? The retry-loop patterns should win,
     with the skipped-cleanup patterns next. *)
  let m = Features.feature_matrix (Inverted_index.build train_db) report.Miner.results in
  let scored_indices = Features.discriminative_indices m ~labels in
  Format.printf "@.top discriminative patterns (|mean buggy - mean healthy|):@.";
  Array.iteri
    (fun k (j, score) ->
      if k < 5 then
        Format.printf "  %a  score %.2f@." Pattern.pp m.Features.patterns.(j) score)
    scored_indices;

  (* Keep only the strongest features, then cross-validate nearest-centroid
     on held-out traces. *)
  let top_k = min 5 (Array.length scored_indices) in
  let columns = Array.init top_k (fun k -> fst scored_indices.(k)) in
  let projected = Features.project m ~columns in
  let model = Features.train_nearest_centroid projected ~labels in
  let test_one expected trace =
    let single = Seqdb.of_sequences [ trace ] in
    let v =
      Features.features_of_sequence single ~patterns:projected.Features.patterns 1
    in
    Features.classify model v = expected
  in
  let held_out label pool =
    List.filteri (fun i _ -> i >= n_train) pool |> List.map (test_one label)
  in
  let outcomes = held_out false healthy @ held_out true buggy in
  let correct = List.length (List.filter Fun.id outcomes) in
  Format.printf "@.held-out accuracy: %d/%d@." correct (List.length outcomes)
