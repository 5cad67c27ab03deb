open Rgs_sequence

type verdict = {
  closed : bool;
  prunable : bool;
}

exception Prunable

(* Greedy rightmost landmark of [arr] in [s], written to
   [dst.(off) .. dst.(off + m - 1)]; [arr] must occur in [s]. *)
let rightmost_landmark s arr dst off =
  let pos = ref (Sequence.length s) in
  for j = Array.length arr - 1 downto 0 do
    let e = arr.(j) in
    while !pos >= 1 && not (Event.equal (Sequence.unsafe_get s !pos) e) do
      decr pos
    done;
    if !pos < 1 then invalid_arg "Closure.check: pattern absent from a supporting sequence";
    dst.(off + j) <- !pos;
    decr pos
  done

let check ?event_sets ?(trace = Trace.null) idx ~candidate_events ~prefix_sets
    ~pattern ~support_set ~has_equal_append =
  let event_sets =
    match event_sets with Some f -> f | None -> Support_set.of_event idx
  in
  let m = Pattern.length pattern in
  let sup_p = Support_set.size support_set in
  let arr = Pattern.to_array pattern in
  let db = Inverted_index.db idx in
  let alpha = Seqdb.dense_alphabet db in
  let events =
    Array.of_list
      (List.filter (fun e -> Inverted_index.occurrence_count idx e >= sup_p) candidate_events)
  in
  (* Surviving candidate [events.(k)] owns counter slot [k]; [slot_of] maps
     dense event ids to slots, -1 for events that cannot reach sup(P). *)
  let nslots = Array.length events in
  let slot_of = Array.make (Alphabet.size alpha) (-1) in
  Array.iteri
    (fun k e ->
      let d = Alphabet.dense alpha e in
      if d >= 0 then slot_of.(d) <- k)
    events;
  (* Landmark envelopes of the sequences holding instances: any landmark of
     P in S_i lies position-wise between the leftmost landmark [fl] and the
     rightmost landmark [rl] (row [c] of each flat matrix belongs to the
     [c]-th group of the support set). [sups.(c)] is S_i's contribution to
     sup(P). The leftmost landmark needs no walk: its [j]-th position is
     the last landmark of the first instance of S_i's group in the
     length-[j] prefix's leftmost support set, since that instance is
     INSgrow's greedy leftmost match. *)
  let ncontrib = Support_set.num_groups support_set in
  let seqs =
    Array.init ncontrib (fun c -> Seqdb.seq db (Support_set.group_seq support_set c))
  in
  let sups = Array.init ncontrib (Support_set.group_len support_set) in
  let fl = Array.make (ncontrib * m) 0 and rl = Array.make (ncontrib * m) 0 in
  for j = 1 to m - 1 do
    let set = prefix_sets.(j - 1) in
    let g = ref 0 in
    for c = 0 to ncontrib - 1 do
      let i = Support_set.group_seq support_set c in
      while Support_set.group_seq set !g < i do
        incr g
      done;
      fl.((c * m) + j - 1) <- (Support_set.group_lasts set !g).(0)
    done
  done;
  Array.iteri (fun c s -> rightmost_landmark s arr rl (c * m)) seqs;
  (* Sound pre-filter for inserting e' at gap j (one pass per gap, all
     events at once): instances of the extension P' in S_i project to
     non-overlapping instances of P (Lemma 1), so S_i holds at most
     min(sup_i, occurrences of e' between fl_j and rl_{j+1}) of them — two
     non-overlapping P'-instances need distinct e' positions, and every
     such position lies inside the envelope gap. If the sum over sequences
     is below sup(P), growing the extension cannot reach equal support.
     Counting is array increments on slots: [local] counts one sequence's
     window and is reset through the [touched] slot list, [totals] sums
     the capped counts over sequences. *)
  let local = Array.make nslots 0 in
  let totals = Array.make nslots 0 in
  let touched = Array.make nslots 0 in
  let gap_bounds j =
    Array.fill totals 0 nslots 0;
    for c = 0 to ncontrib - 1 do
      let lo = if j = 0 then 0 else fl.((c * m) + j - 1) in
      let hi = rl.((c * m) + j) in
      if hi > lo + 1 then begin
        let s = seqs.(c) in
        let ntouched = ref 0 in
        for pos = lo + 1 to hi - 1 do
          let k = slot_of.(Alphabet.dense alpha (Sequence.unsafe_get s pos)) in
          if k >= 0 then begin
            let n = local.(k) in
            if n = 0 then begin
              touched.(!ntouched) <- k;
              incr ntouched
            end;
            local.(k) <- n + 1
          end
        done;
        let sup_i = sups.(c) in
        for t = 0 to !ntouched - 1 do
          let k = touched.(t) in
          totals.(k) <- totals.(k) + min sup_i local.(k);
          local.(k) <- 0
        done
      end
    done
  in
  let non_closed = ref has_equal_append in
  (* Insertion position j in [0 .. m-1]: extension e1..ej e' e_{j+1}..e_m. *)
  let scan_position j =
    gap_bounds j;
    let suffix = Pattern.of_array (Array.sub arr j (m - j)) in
    let base e' =
      if j = 0 then event_sets e' else Support_set.grow idx prefix_sets.(j - 1) e'
    in
    let scan_event n e' =
      Metrics.hit Metrics.closure_bound_checks;
      if totals.(n) < sup_p then
        Metrics.hit Metrics.closure_bound_rejects
      else begin
        Metrics.hit Metrics.closure_base_grows;
        let i0 = base e' in
        if Support_set.size i0 >= sup_p then
          match Sup_comp.grow_from_until idx i0 suffix ~min_size:sup_p with
          | None -> ()
          | Some i' ->
            (* sup(P') <= sup(P) by Lemma 1, so reaching min_size means
               equality. *)
            Metrics.hit Metrics.closure_full_grows;
            non_closed := true;
            (* Theorem 5 condition (ii), on the packed lasts arrays. *)
            if Support_set.border_dominated ~extension:i' ~pattern:support_set then
              raise Prunable
      end
    in
    Array.iteri scan_event events
  in
  match
    for j = 0 to m - 1 do
      scan_position j
    done
  with
  | () ->
    Trace.instant trace Trace.Closure_check
      ~a0:(if !non_closed then 1 else 0)
      ~a1:m;
    { closed = not !non_closed; prunable = false }
  | exception Prunable ->
    Trace.instant trace Trace.Closure_check ~a0:2 ~a1:m;
    { closed = false; prunable = true }

let prefix_sets_of idx pattern =
  let m = Pattern.length pattern in
  let sets = Array.make m Support_set.empty in
  for j = 1 to m do
    sets.(j - 1) <-
      (if j = 1 then Support_set.of_event idx (Pattern.get pattern 1)
       else Support_set.grow idx sets.(j - 2) (Pattern.get pattern j))
  done;
  sets

let standalone ?events idx pattern =
  if Pattern.is_empty pattern then { closed = false; prunable = false }
  else begin
    let events = match events with Some es -> es | None -> Inverted_index.events idx in
    let prefix_sets = prefix_sets_of idx pattern in
    let support_set = prefix_sets.(Pattern.length pattern - 1) in
    let sup_p = Support_set.size support_set in
    let has_equal_append =
      List.exists
        (fun e -> Support_set.size (Support_set.grow idx support_set e) = sup_p)
        events
    in
    check idx ~candidate_events:events ~prefix_sets ~pattern ~support_set ~has_equal_append
  end

let is_closed ?events idx pattern = (standalone ?events idx pattern).closed
let lb_prunable ?events idx pattern = (standalone ?events idx pattern).prunable
