open Rgs_core

type matrix = {
  patterns : Pattern.t array;
  counts : int array array;
}

(* Mined answers carry no support sets, so each column is one supComp
   run (Algorithm 1) over the index — the same leftmost set the DFS held,
   materialised only while its column is filled. *)
let feature_matrix idx results =
  let patterns = Array.of_list (List.map (fun r -> r.Mined.pattern) results) in
  let num_sequences = Rgs_sequence.Seqdb.size (Rgs_sequence.Inverted_index.db idx) in
  let counts = Array.make_matrix num_sequences (Array.length patterns) 0 in
  Array.iteri
    (fun j p ->
      List.iter
        (fun (i, c) -> counts.(i - 1).(j) <- c)
        (Support_set.per_sequence_counts (Sup_comp.support_set idx p)))
    patterns;
  { patterns; counts }

let group_means m ~labels =
  let rows = Array.length m.counts in
  if Array.length labels <> rows then
    invalid_arg "Features: labels length must match the number of sequences";
  let cols = Array.length m.patterns in
  let sum = [| Array.make cols 0.; Array.make cols 0. |] in
  let n = [| 0; 0 |] in
  Array.iteri
    (fun i row ->
      let g = if labels.(i) then 1 else 0 in
      n.(g) <- n.(g) + 1;
      Array.iteri (fun j v -> sum.(g).(j) <- sum.(g).(j) +. float_of_int v) row)
    m.counts;
  if n.(0) = 0 || n.(1) = 0 then invalid_arg "Features: both groups must be non-empty";
  Array.iteri (fun g s -> Array.iteri (fun j v -> s.(j) <- v /. float_of_int n.(g)) s) sum;
  sum

let discriminative_scores m ~labels =
  let means = group_means m ~labels in
  let scored =
    Array.mapi
      (fun j p -> (p, Float.abs (means.(1).(j) -. means.(0).(j))))
      m.patterns
  in
  Array.sort (fun (_, a) (_, b) -> Float.compare b a) scored;
  scored

let select_top k scored =
  Array.to_list scored
  |> List.filteri (fun i _ -> i < k)
  |> List.map fst

let discriminative_indices m ~labels =
  let means = group_means m ~labels in
  let scored =
    Array.mapi (fun j _ -> (j, Float.abs (means.(1).(j) -. means.(0).(j)))) m.patterns
  in
  Array.sort (fun (_, a) (_, b) -> Float.compare b a) scored;
  scored

let project m ~columns =
  {
    patterns = Array.map (fun j -> m.patterns.(j)) columns;
    counts = Array.map (fun row -> Array.map (fun j -> row.(j)) columns) m.counts;
  }

type centroid_model = {
  centroids : float array array; (* standardized; (0) = false class, (1) = true *)
  mean : float array;
  std : float array;
}

(* Features are z-scored before computing centroids and distances —
   without this, high-variance columns (e.g. loop-iteration counts) drown
   low-variance but informative ones (e.g. a sometimes-skipped block). *)
let train_nearest_centroid m ~labels =
  let rows = Array.length m.counts in
  let cols = Array.length m.patterns in
  let mean = Array.make cols 0. in
  let std = Array.make cols 0. in
  Array.iter (fun row -> Array.iteri (fun j v -> mean.(j) <- mean.(j) +. float_of_int v) row) m.counts;
  Array.iteri (fun j s -> mean.(j) <- s /. float_of_int (max rows 1)) mean;
  Array.iter
    (fun row ->
      Array.iteri
        (fun j v ->
          let d = float_of_int v -. mean.(j) in
          std.(j) <- std.(j) +. (d *. d))
        row)
    m.counts;
  Array.iteri
    (fun j s ->
      let v = sqrt (s /. float_of_int (max rows 1)) in
      std.(j) <- (if v > 1e-9 then v else 1.))
    std;
  let z row = Array.mapi (fun j v -> (float_of_int v -. mean.(j)) /. std.(j)) row in
  let sum = [| Array.make cols 0.; Array.make cols 0. |] in
  let n = [| 0; 0 |] in
  Array.iteri
    (fun i row ->
      let g = if labels.(i) then 1 else 0 in
      n.(g) <- n.(g) + 1;
      Array.iteri (fun j v -> sum.(g).(j) <- sum.(g).(j) +. v) (z row))
    m.counts;
  if n.(0) = 0 || n.(1) = 0 then invalid_arg "Features: both groups must be non-empty";
  Array.iteri (fun g s -> Array.iteri (fun j v -> s.(j) <- v /. float_of_int n.(g)) s) sum;
  { centroids = sum; mean; std }

let classify model v =
  let z = Array.mapi (fun j x -> (float_of_int x -. model.mean.(j)) /. model.std.(j)) v in
  let dist c =
    let acc = ref 0. in
    Array.iteri
      (fun j x ->
        let d = x -. z.(j) in
        acc := !acc +. (d *. d))
      c;
    !acc
  in
  dist model.centroids.(1) < dist model.centroids.(0)

let features_of_sequence db ~patterns i =
  let single = Rgs_sequence.Seqdb.of_sequences [ Rgs_sequence.Seqdb.seq db i ] in
  let idx = Rgs_sequence.Inverted_index.build single in
  Array.map (fun p -> Sup_comp.support idx p) patterns
