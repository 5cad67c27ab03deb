open Rgs_sequence
open Rgs_core

type cover = { representative : Mined.t; covered : Mined.t list }

(* [p] is absorbed by [r] when [r] keeps all of [p]'s structure (P ⊑ R)
   and loses at most a [delta] fraction of its support. Containment makes
   sup(R) <= sup(P) (an instance of R embeds one of P), so the distance
   below is nonnegative for real inputs. *)
let covers ~delta r p =
  float_of_int (p.Mined.support - r.Mined.support)
  <= delta *. float_of_int p.Mined.support
  && Pattern.is_subpattern p.Mined.pattern ~of_:r.Mined.pattern

let popcount w =
  let c = ref 0 in
  let w = ref w in
  while !w <> 0 do
    w := !w land (!w - 1);
    incr c
  done;
  !c

let delta_cover ~delta results =
  if not (delta >= 0. && delta <= 1.) then
    invalid_arg "Compress.delta_cover: delta must be in [0, 1]";
  let order = Array.of_list results in
  (* longest first so greedy ties break toward the patterns most likely to
     absorb others; the order is total, so the output is deterministic *)
  Array.sort Mined.compare_by_length_desc order;
  let n = Array.length order in
  let words = (n + 62) / 63 in
  (* The cover relation, materialised once as n bitset rows: cov.(i) has
     bit j set iff i absorbs j. The support-band test is a float compare,
     so it gates the (much costlier) containment test. *)
  let cov = Array.init n (fun _ -> Array.make words 0) in
  for i = 0 to n - 1 do
    let row = cov.(i) in
    for j = 0 to n - 1 do
      if covers ~delta order.(i) order.(j) then
        row.(j / 63) <- row.(j / 63) lor (1 lsl (j mod 63))
    done
  done;
  let uncovered = Array.make words 0 in
  for j = 0 to n - 1 do
    uncovered.(j / 63) <- uncovered.(j / 63) lor (1 lsl (j mod 63))
  done;
  let remaining = ref n in
  let reps = ref [] in
  while !remaining > 0 do
    (* classic greedy set cover: the uncovered pattern absorbing the most
       uncovered patterns becomes the next representative. Every uncovered
       pattern covers at least itself, so each round makes progress. *)
    let best = ref (-1) in
    let best_count = ref (-1) in
    for i = 0 to n - 1 do
      if uncovered.(i / 63) land (1 lsl (i mod 63)) <> 0 then begin
        let cnt = ref 0 in
        let row = cov.(i) in
        for w = 0 to words - 1 do
          cnt := !cnt + popcount (row.(w) land uncovered.(w))
        done;
        if !cnt > !best_count then begin
          best := i;
          best_count := !cnt
        end
      end
    done;
    if !best_count = 1 then begin
      (* nobody absorbs anybody else: every remaining pattern is its own
         representative, in the same index order the round loop would
         emit them — finishing in one sweep instead of one round each *)
      for i = 0 to n - 1 do
        if uncovered.(i / 63) land (1 lsl (i mod 63)) <> 0 then
          reps := { representative = order.(i); covered = [] } :: !reps
      done;
      Array.fill uncovered 0 words 0;
      remaining := 0
    end
    else begin
      let r = order.(!best) in
      let absorbed = ref [] in
      let row = cov.(!best) in
      for j = n - 1 downto 0 do
        let w = j / 63 and b = 1 lsl (j mod 63) in
        if uncovered.(w) land b <> 0 && row.(w) land b <> 0 then begin
          uncovered.(w) <- uncovered.(w) lxor b;
          if j <> !best then absorbed := order.(j) :: !absorbed
        end
      done;
      remaining := !remaining - !best_count;
      reps := { representative = r; covered = !absorbed } :: !reps
    end
  done;
  let reps = List.rev !reps in
  Metrics.observe_max Metrics.query_delta_reps (List.length reps);
  Metrics.add Metrics.query_delta_covered (n - List.length reps);
  reps

let representatives covers_list =
  List.map (fun c -> c.representative) covers_list
