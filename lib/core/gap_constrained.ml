open Rgs_sequence

let validate_gaps ~min_gap ~max_gap =
  if max_gap < 0 then invalid_arg "Gap_constrained: max_gap must be >= 0";
  if min_gap < 0 then invalid_arg "Gap_constrained: min_gap must be >= 0";
  if min_gap > max_gap then invalid_arg "Gap_constrained: min_gap > max_gap"

(* Skip-on-failure instance growth with per-step gap bounds. Instances are
   still processed in right-shift order and take the earliest admissible
   occurrence after max(last_position, last + min_gap), but the occurrence
   must also lie within last + max_gap + 1. Both components of the lowest
   bound are nondecreasing along a group, so one monotone index cursor
   serves the whole per-sequence pass, exactly as in Support_set.grow —
   a miss (occurrence beyond the deadline) leaves the cursor parked at
   that occurrence, which later instances can still consume. *)
let grow ?(min_gap = 0) idx ~max_gap s e =
  validate_gaps ~min_gap ~max_gap;
  Metrics.hit Metrics.insgrow_calls;
  let num = Support_set.num_groups s in
  if num = 0 then Support_set.empty
  else begin
    let out = ref [] in
    let c = Inverted_index.cursor idx ~seq:(Support_set.group_seq s 0) e in
    for gi = num - 1 downto 0 do
      let i = Support_set.group_seq s gi in
      let firsts = Support_set.group_firsts s gi in
      let lasts = Support_set.group_lasts s gi in
      let n = Support_set.group_len s gi in
      Inverted_index.reseat c ~seq:i;
      let new_firsts = Array.make n 0 in
      let new_lasts = Array.make n 0 in
      let count = ref 0 in
      let last_position = ref 0 in
      for k = 0 to n - 1 do
        let lowest = max !last_position (lasts.(k) + min_gap) in
        let deadline = lasts.(k) + max_gap + 1 in
        if lowest < deadline then begin
          let lj = Inverted_index.seek_pos c ~lowest in
          if lj >= 0 && lj <= deadline then begin
            last_position := lj;
            new_firsts.(!count) <- firsts.(k);
            new_lasts.(!count) <- lj;
            incr count
          end
        end
      done;
      let cnt = !count in
      if cnt > 0 then
        out :=
          (i, Array.sub new_firsts 0 cnt, Array.sub new_lasts 0 cnt) :: !out
    done;
    Inverted_index.cursor_finish c;
    Support_set.unsafe_of_packed (Array.of_list !out)
  end

let support_set ?min_gap idx ~max_gap p =
  if Pattern.is_empty p then Support_set.empty
  else begin
    let i = ref (Support_set.of_event idx (Pattern.get p 1)) in
    for j = 2 to Pattern.length p do
      i := grow ?min_gap idx ~max_gap !i (Pattern.get p j)
    done;
    !i
  end

let support ?min_gap idx ~max_gap p =
  Support_set.size (support_set ?min_gap idx ~max_gap p)

(* The gap-constrained miner is the engine with the skip-on-failure
   gap-bounded growth above and no closure machinery. *)
let strategy ~min_gap ~max_gap =
  validate_gaps ~min_gap ~max_gap;
  {
    Engine.name = "Gap_constrained";
    grow = (fun idx i e -> grow ~min_gap idx ~max_gap i e);
    closure = None;
  }
