open Rgs_sequence

type verdict = {
  closed : bool;
  prunable : bool;
}

exception Prunable

(* The closure state of one DFS depth. Frame [k] belongs to the length-(k+1)
   prefix whose leftmost support set is [owner] (compared physically).

   - [bases.(r)] caches grow(owner, candidate r): the base set of an
     insertion at gap k+1. It depends on the prefix alone, so every
     descendant of the owner shares it.
   - [states] are extension states, in ascending [key = j * ncands + r]:
     the set of inserting candidate [r] at gap [j] after [grown] of the
     owner's suffix events. The owner's check records one for every
     candidate that passed its bound; a child that grows a candidate the
     owner did not adds the state at the owner's length, for its later
     siblings. The owner's children resume these growths.
   - [fl]/[rl] hold the owner's landmark envelope rows once [rows] is set,
     row [c] for the owner's [c]-th group, one entry per pattern event.
     The owner's children derive theirs from them. *)
type state = { key : int; set : Support_set.t; grown : int }

type frame = {
  mutable owner : Support_set.t;
  bases : Support_set.t option array;
  mutable states : state list;
  mutable rows : bool;
  mutable fl : int array;
  mutable rl : int array;
}

(* Candidate [r] is [cands.(r)]. A check selects the candidates that can
   reach sup(P) and gives the [k]-th of them counter slot [k]: [sel.(k)] is
   its rank and [slot_of] maps its dense id back to [k] (-1 for every other
   dense id; the next check releases the slots through [sel]). *)
type stack = {
  idx : Inverted_index.t;
  cands : Event.t array;
  cdense : int array;
  cocc : int array;
  roots : Support_set.t option array;  (* size-1 sets: the gap-0 bases *)
  slot_of : int array;
  sel : int array;
  mutable nsel : int;
  local : int array;
  totals : int array;
  touched : int array;
  mutable views : int array array;
  mutable frames : frame array;
}

let new_frame n =
  { owner = Support_set.empty; bases = Array.make n None; states = [];
    rows = false; fl = [||]; rl = [||] }

let stack idx ~candidate_events =
  let cands = Array.of_list candidate_events in
  let n = Array.length cands in
  let alpha = Seqdb.dense_alphabet (Inverted_index.db idx) in
  {
    idx;
    cands;
    cdense = Array.map (Alphabet.dense alpha) cands;
    cocc = Array.map (Inverted_index.occurrence_count idx) cands;
    roots = Array.make n None;
    slot_of = Array.make (Alphabet.size alpha) (-1);
    sel = Array.make n 0;
    nsel = 0;
    local = Array.make n 0;
    totals = Array.make n 0;
    touched = Array.make n 0;
    views = [||];
    frames = [||];
  }

(* what a root reads as its parent's frame: no extension states, no rows;
   never written, so sharing it is safe *)
let no_parent = new_frame 0

(* Hands [f] to [owner], dropping what it held for the previous one. *)
let release f owner =
  f.owner <- owner;
  f.states <- [];
  f.rows <- false;
  Array.fill f.bases 0 (Array.length f.bases) None

(* Frames [0 .. m-1] must belong to [prefix_sets]; a frame owned by another
   prefix is wiped. The empty set is one shared value, so it owns nothing.
   Deeper frames belong to finished subtrees: they are emptied so that
   their sets can be collected. *)
let claim_frames st prefix_sets m =
  if Array.length st.frames < m then
    st.frames <-
      Array.init m (fun k ->
          if k < Array.length st.frames then st.frames.(k)
          else new_frame (Array.length st.cands));
  Array.iteri
    (fun k f ->
      if k < m then begin
        let s = prefix_sets.(k) in
        if f.owner != s || Support_set.is_empty s then release f s
      end
      else if f.owner != Support_set.empty then release f Support_set.empty)
    st.frames

let rec drop_below key = function
  | x :: rest when x.key < key -> drop_below key rest
  | l -> l

(* Greedy rightmost landmark of the dense pattern [pd] in the dense view
   [ds] (0-based), written 1-based to [dst.(off) .. dst.(off + m - 1)];
   [pd] must occur in [ds]. With [~carried:true], [prl.(poff) ..] holds the
   rightmost landmark of [pd] minus its last event in the same sequence.
   That landmark is position-wise >= this one, so once its [j]-th position
   lies before this one's [(j+1)]-th, the greedy walk would find exactly
   its positions [1..j]: they are copied instead of walked. *)
let rightmost_landmark ~carried ds pd dst off prl poff =
  let pos = ref (Array.length ds - 1) in
  let j = ref (Array.length pd - 1) in
  while !j >= 0 do
    let d = pd.(!j) in
    while !pos >= 0 && ds.(!pos) <> d do
      decr pos
    done;
    if !pos < 0 then invalid_arg "Closure.check: pattern absent from a supporting sequence";
    dst.(off + !j) <- !pos + 1;
    decr j;
    if carried && !j >= 0 && prl.(poff + !j) <= !pos then begin
      Array.blit prl poff dst off (!j + 1);
      j := -1
    end
    else decr pos
  done

let check ?(trace = Trace.null) st ~prefix_sets ~pattern ~has_equal_append =
  let idx = st.idx in
  let m = Pattern.length pattern in
  let support_set = prefix_sets.(m - 1) in
  let sup_p = Support_set.size support_set in
  let arr = Pattern.to_array pattern in
  let db = Inverted_index.db idx in
  let alpha = Seqdb.dense_alphabet db in
  claim_frames st prefix_sets m;
  let own = st.frames.(m - 1) in
  (* the parent's frame, already wiped if it belongs to another prefix *)
  let parent = if m >= 2 then st.frames.(m - 2) else no_parent in
  let ncands = Array.length st.cands in
  let slot_of = st.slot_of and sel = st.sel in
  for k = 0 to st.nsel - 1 do
    let d = st.cdense.(sel.(k)) in
    if d >= 0 then slot_of.(d) <- -1
  done;
  st.nsel <- 0;
  for r = 0 to ncands - 1 do
    if st.cocc.(r) >= sup_p then begin
      let d = st.cdense.(r) in
      if d >= 0 then slot_of.(d) <- st.nsel;
      sel.(st.nsel) <- r;
      st.nsel <- st.nsel + 1
    end
  done;
  let nslots = st.nsel in
  (* Landmark envelopes of the sequences holding instances: any landmark of
     P in S_i lies position-wise between the leftmost landmark [fl] and the
     rightmost landmark [rl] (row [c] of each flat matrix belongs to the
     [c]-th group of the support set). The leftmost landmark needs no walk:
     its [j]-th position is the last landmark of the first instance of
     S_i's group in the length-[j] prefix's leftmost support set, since
     that instance is INSgrow's greedy leftmost match. *)
  let ncontrib = Support_set.num_groups support_set in
  own.rows <- false;
  if Array.length own.fl < ncontrib * m then begin
    own.fl <- Array.make (2 * ncontrib * m) 0;
    own.rl <- Array.make (2 * ncontrib * m) 0
  end;
  if Array.length st.views < ncontrib then st.views <- Array.make (2 * ncontrib) [||];
  let fl = own.fl and rl = own.rl and views = st.views in
  for c = 0 to ncontrib - 1 do
    views.(c) <- Seqdb.dense_seq db (Support_set.group_seq support_set c)
  done;
  let pd = Array.map (Alphabet.dense alpha) arr in
  if parent.rows then begin
    (* The parent's groups include this pattern's: its row for the same
       sequence supplies the leftmost positions 1..m-2 as they are, and
       the rightmost walk stops once it meets the parent's landmark. *)
    let pset = prefix_sets.(m - 2) in
    let g = ref 0 in
    for c = 0 to ncontrib - 1 do
      let i = Support_set.group_seq support_set c in
      while Support_set.group_seq pset !g < i do
        incr g
      done;
      let off = c * m and poff = !g * (m - 1) in
      Array.blit parent.fl poff fl off (m - 2);
      fl.(off + m - 2) <- (Support_set.group_lasts pset !g).(0);
      rightmost_landmark ~carried:true views.(c) pd rl off parent.rl poff
    done
  end
  else begin
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
    for c = 0 to ncontrib - 1 do
      rightmost_landmark ~carried:false views.(c) pd rl (c * m) [||] 0
    done
  end;
  own.rows <- true;
  (* Sound pre-filter for inserting e' at gap j (one pass per gap, all
     events at once): instances of the extension P' in S_i project to
     non-overlapping instances of P (Lemma 1), so S_i holds at most
     min(sup_i, occurrences of e' between fl_j and rl_{j+1}) of them — two
     non-overlapping P'-instances need distinct e' positions, and every
     such position lies inside the envelope gap. If the sum over sequences
     is below sup(P), growing the extension cannot reach equal support.
     The window scan reads dense ids straight from the views: one array
     load and at most one increment per position. [local] counts one
     sequence's window and is reset through the [touched] slot list,
     [totals] sums the capped counts over sequences. *)
  let local = st.local and totals = st.totals and touched = st.touched in
  let gap_bounds j =
    Array.fill totals 0 nslots 0;
    for c = 0 to ncontrib - 1 do
      let lo = if j = 0 then 0 else fl.((c * m) + j - 1) in
      let hi = rl.((c * m) + j) in
      if hi > lo + 1 then begin
        let ds = views.(c) in
        let ntouched = ref 0 in
        (* positions lo+1 .. hi-1, 0-based in the view *)
        for p = lo to hi - 2 do
          let k = Array.unsafe_get slot_of (Array.unsafe_get ds p) in
          if k >= 0 then begin
            let n = local.(k) in
            if n = 0 then begin
              touched.(!ntouched) <- k;
              incr ntouched
            end;
            local.(k) <- n + 1
          end
        done;
        let sup_i = Support_set.group_len support_set c in
        for t = 0 to !ntouched - 1 do
          let k = touched.(t) in
          totals.(k) <- totals.(k) + min sup_i local.(k);
          local.(k) <- 0
        done
      end
    done
  in
  (* The base set of inserting candidate [r] at gap [j]: its size-1 set at
     gap 0, else grow(prefix_j, e') from frame [j-1]'s cache. *)
  let base j r =
    let cache = if j = 0 then st.roots else st.frames.(j - 1).bases in
    match cache.(r) with
    | Some b -> b
    | None ->
      let e = st.cands.(r) in
      let b =
        if j = 0 then Support_set.of_event idx e
        else Support_set.grow idx prefix_sets.(j - 1) e
      in
      cache.(r) <- Some b;
      b
  in
  let non_closed = ref has_equal_append in
  (* [pending] walks the parent's extension states in key order, alongside
     the candidates of every gap; [states] and [late] collect this check's
     and the parent's new ones, newest first. *)
  let pending = ref parent.states and states = ref [] and late = ref [] in
  (* Insertion position j in [0 .. m-1]: extension e1..ej e' e_{j+1}..e_m. *)
  let scan_position j =
    gap_bounds j;
    for k = 0 to nslots - 1 do
      Metrics.hit Metrics.closure_bound_checks;
      if totals.(k) < sup_p then Metrics.hit Metrics.closure_bound_rejects
      else begin
        Metrics.hit Metrics.closure_base_grows;
        let r = sel.(k) in
        let key = (j * ncands) + r in
        pending := drop_below key !pending;
        (* The parent P stopped this growth below sup(P) or finished it;
           sup(Q) <= sup(P) and INSgrow is exact from a leftmost support
           set, so continuing it yields exactly the set a regrowth from
           the base would. *)
        let s, t, found =
          match !pending with
          | x :: _ when x.key = key -> (ref x.set, ref x.grown, true)
          | _ -> (ref (base j r), ref 0, false)
        in
        let grow_to n =
          while !t < n && Support_set.size !s >= sup_p do
            s := Support_set.grow idx !s arr.(j + !t);
            incr t
          done
        in
        if (not found) && j < m - 1 then begin
          (* P's share of the suffix, e_{j+1}..e_{m-1}: the state P would
             have kept, handed to this node's siblings *)
          grow_to (m - 1 - j);
          late := { key; set = !s; grown = !t } :: !late
        end;
        grow_to (m - j);
        states := { key; set = !s; grown = !t } :: !states;
        if !t = m - j && Support_set.size !s >= sup_p then begin
          (* sup(P') <= sup(P) by Lemma 1, so reaching sup(P) means
             equality. *)
          Metrics.hit Metrics.closure_full_grows;
          non_closed := true;
          (* Theorem 5 condition (ii), on the packed lasts arrays. *)
          if Support_set.border_dominated ~extension:!s ~pattern:support_set then
            raise Prunable
        end
      end
    done
  in
  let pruned =
    match
      for j = 0 to m - 1 do
        scan_position j
      done
    with
    | () -> false
    | exception Prunable -> true
  in
  own.states <- List.rev !states;
  (match !late with
  | [] -> ()
  | l ->
    parent.states <-
      List.merge (fun a b -> Int.compare a.key b.key) parent.states (List.rev l));
  if pruned then begin
    Trace.instant trace Trace.Closure_check ~a0:2 ~a1:m;
    { closed = false; prunable = true }
  end
  else begin
    Trace.instant trace Trace.Closure_check
      ~a0:(if !non_closed then 1 else 0)
      ~a1:m;
    { closed = not !non_closed; prunable = false }
  end

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
    check (stack idx ~candidate_events:events) ~prefix_sets ~pattern
      ~has_equal_append
  end

let is_closed ?events idx pattern = (standalone ?events idx pattern).closed
let lb_prunable ?events idx pattern = (standalone ?events idx pattern).prunable
