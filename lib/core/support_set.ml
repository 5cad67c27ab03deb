open Rgs_sequence

(* Columnar group storage: per sequence, the (first, last) landmark borders
   of its instances live in two parallel int arrays in right-shift order.
   No per-instance boxing — Instance.t is only materialised at the API
   boundary.

   Sharing: only the first [len] slots of [firsts]/[lasts] belong to the
   group; the arrays may be longer. Appending growth never changes first
   positions and can only kill a suffix of a group (INSgrow stops a
   sequence at the first failed extension), so a grown group reuses its
   parent's [firsts] array outright — whatever its length — with a shorter
   [len]. Without the slack slots, every partially surviving group on an
   append-heavy DFS path copied its firsts prefix at every level,
   amplifying live words O(depth * size). *)
type group = { gseq : int; len : int; firsts : int array; lasts : int array }
type t = { groups : group array; total : int }

let empty = { groups = [||]; total = 0 }

let total_of groups = Array.fold_left (fun n g -> n + g.len) 0 groups

let group_view g =
  Array.init g.len (fun k ->
      { Instance.seq = g.gseq; first = g.firsts.(k); last = g.lasts.(k) })

let well_formed s =
  Array.for_all
    (fun g ->
      let n = g.len in
      n > 0
      && Array.length g.firsts >= n
      && Array.length g.lasts >= n
      &&
      let sorted = ref true in
      for k = 1 to n - 1 do
        (* right-shift order, strict: (last, first) lexicographic *)
        if
          g.lasts.(k - 1) > g.lasts.(k)
          || (g.lasts.(k - 1) = g.lasts.(k) && g.firsts.(k - 1) >= g.firsts.(k))
        then sorted := false
      done;
      !sorted)
    s.groups
  && s.total = total_of s.groups
  &&
  let ascending = ref true in
  for k = 1 to Array.length s.groups - 1 do
    if s.groups.(k - 1).gseq >= s.groups.(k).gseq then ascending := false
  done;
  !ascending

(* [well_formed] is an O(size) scan; it is not asserted on the production
   path (Support_set.grow runs millions of times per mining run) but is
   exposed for the test suite to validate every construction route. *)
let of_group_array groups = { groups; total = total_of groups }

let packed_group (i, firsts, lasts) =
  { gseq = i; len = Array.length lasts; firsts; lasts }

let unsafe_of_packed groups = of_group_array (Array.map packed_group groups)

let unsafe_of_groups groups =
  of_group_array
    (Array.map
       (fun (i, insts) ->
         {
           gseq = i;
           len = Array.length insts;
           firsts = Array.map (fun (inst : Instance.t) -> inst.Instance.first) insts;
           lasts = Array.map (fun (inst : Instance.t) -> inst.Instance.last) insts;
         })
       groups)

let of_event idx e =
  of_group_array
    (Inverted_index.map_runs idx e (fun i positions ->
         (* size-1 instances have first = last: share the positions array *)
         { gseq = i; len = Array.length positions; firsts = positions;
           lasts = positions }))

let size s = s.total
let is_empty s = s.total = 0
let num_sequences s = Array.length s.groups
let sequences s = Array.to_list (Array.map (fun g -> g.gseq) s.groups)
let num_groups s = Array.length s.groups
let group_seq s k = s.groups.(k).gseq
let group_len s k = s.groups.(k).len
let group_firsts s k = s.groups.(k).firsts
let group_lasts s k = s.groups.(k).lasts

let instances s =
  List.concat_map (fun g -> Array.to_list (group_view g)) (Array.to_list s.groups)

let instances_in s ~seq =
  let found = ref [||] in
  Array.iter (fun g -> if g.gseq = seq then found := group_view g) s.groups;
  !found

let per_sequence_counts s =
  Array.to_list (Array.map (fun g -> (g.gseq, g.len)) s.groups)

let lasts s =
  let out = Array.make s.total (0, 0) in
  let k = ref 0 in
  Array.iter
    (fun g ->
      for j = 0 to g.len - 1 do
        out.(!k) <- (g.gseq, g.lasts.(j));
        incr k
      done)
    s.groups;
  out

(* Theorem 5 condition (ii), straight off the packed arrays: pairing the
   k-th instances of both sets in global right-shift order, every pair must
   share its sequence and the extension's last may not exceed the
   pattern's. With both sets grouped by ascending sequence this holds iff
   the group partitions coincide and the lasts arrays dominate pointwise. *)
exception Not_dominated

let border_dominated ~extension ~pattern =
  extension.total = pattern.total
  && Array.length extension.groups = Array.length pattern.groups
  &&
  try
    Array.iter2
      (fun ge gp ->
        let n = ge.len in
        if ge.gseq <> gp.gseq || n <> gp.len then raise Not_dominated;
        for k = 0 to n - 1 do
          if ge.lasts.(k) > gp.lasts.(k) then raise Not_dominated
        done)
      extension.groups pattern.groups;
    true
  with Not_dominated -> false

let fold_groups f init s =
  Array.fold_left (fun acc g -> f acc g.gseq (group_view g)) init s.groups

(* Algorithm 2 (INSgrow). For each sequence holding instances, walk them in
   right-shift order; extend each with the earliest occurrence of [e] after
   max(last_position, last); stop the sequence at the first failure (later
   instances can only fail too, since both bounds are monotone). The
   monotonicity is also what lets one index cursor serve the whole group:
   each seek resumes where the previous one ended. *)
let empty_group = { gseq = 0; len = 0; firsts = [||]; lasts = [||] }

let grow idx s e =
  Metrics.hit Metrics.insgrow_calls;
  let num = Array.length s.groups in
  if num = 0 then empty
  else begin
    let out = Array.make num empty_group in
    let out_count = ref 0 in
    let total = ref 0 in
    (* one reseatable cursor and one metrics flush for the whole pass *)
    let c = Inverted_index.cursor idx ~seq:s.groups.(0).gseq e in
    for gi = 0 to num - 1 do
      let g = s.groups.(gi) in
      if gi > 0 then Inverted_index.reseat c ~seq:g.gseq;
      let lasts = g.lasts in
      let n = g.len in
      (* Most groups die on the very first seek (the event does not occur
         after the first instance), so nothing is allocated until one
         extension succeeds. *)
      let l0 = Inverted_index.seek_pos c ~lowest:lasts.(0) in
      if l0 >= 0 then begin
        let new_lasts = Array.make n 0 in
        new_lasts.(0) <- l0;
        let count = ref 1 in
        let last_position = ref l0 in
        (try
           for k = 1 to n - 1 do
             let last = lasts.(k) in
             let lowest = if !last_position > last then !last_position else last in
             let lj = Inverted_index.seek_pos c ~lowest in
             if lj < 0 then raise Exit;
             last_position := lj;
             new_lasts.(!count) <- lj;
             incr count
           done
         with Exit -> ());
        (* share the parent's firsts array whole — the surviving prefix is
           a prefix of it — and keep new_lasts at its allocated size; only
           [len] slots are live. Zero copies on partial survival. *)
        out.(!out_count) <- { gseq = g.gseq; len = !count; firsts = g.firsts;
                              lasts = new_lasts };
        incr out_count;
        total := !total + !count
      end
    done;
    Inverted_index.cursor_finish c;
    let groups = if !out_count = num then out else Array.sub out 0 !out_count in
    { groups; total = !total }
  end

(* --- shard support: slicing by sequence range and the associative
   merge. Groups are kept in ascending gseq order, so a sequence range is
   a contiguous sub-array (binary search for the boundaries) and merging
   two sets over disjoint sequence ranges is a linear merge of two sorted
   arrays — the group records themselves are shared, never copied. *)

(* smallest group index with gseq >= lo *)
let lower_bound groups lo =
  let n = Array.length groups in
  let a = ref 0 and b = ref n in
  while !a < !b do
    let mid = (!a + !b) / 2 in
    if groups.(mid).gseq < lo then a := mid + 1 else b := mid
  done;
  !a

let slice s ~lo ~hi =
  if lo > hi then invalid_arg "Support_set.slice: lo > hi";
  let i = lower_bound s.groups lo in
  let j = lower_bound s.groups (hi + 1) in
  if i = 0 && j = Array.length s.groups then s
  else of_group_array (Array.sub s.groups i (j - i))

(* Associative and commutative on sets over disjoint sequence ids: the
   result is determined by the union of groups alone (ascending gseq),
   so any combine tree over a partition of the database yields the same
   set — the property the per-shard grow/merge of {!Shard_merge} rests
   on. A shared sequence id would mean the operands were not support
   sets of disjoint shards; refuse loudly rather than guess an
   interleaving of instances. *)
let combine a b =
  if a.total = 0 then b
  else if b.total = 0 then a
  else begin
    let na = Array.length a.groups and nb = Array.length b.groups in
    let out = Array.make (na + nb) empty_group in
    let ia = ref 0 and ib = ref 0 and k = ref 0 in
    while !ia < na && !ib < nb do
      let ga = a.groups.(!ia) and gb = b.groups.(!ib) in
      if ga.gseq = gb.gseq then
        invalid_arg "Support_set.combine: operands share a sequence"
      else if ga.gseq < gb.gseq then begin
        out.(!k) <- ga;
        incr ia
      end
      else begin
        out.(!k) <- gb;
        incr ib
      end;
      incr k
    done;
    while !ia < na do
      out.(!k) <- a.groups.(!ia);
      incr ia;
      incr k
    done;
    while !ib < nb do
      out.(!k) <- b.groups.(!ib);
      incr ib;
      incr k
    done;
    { groups = out; total = a.total + b.total }
  end

(* --- wire codec: [Wire]'s canonical varints, delta-coded, trimmed to the
   live [len] prefix of each group (slack slots are a heap-sharing
   artifact and never cross a process boundary):

     num_groups, total, then per group:
       gseq - previous gseq (>= 1; the first group's previous is 0),
       len (>= 1),
       then per instance: last - previous last (the group's first
       instance counts from 0), last - first.

   Right-shift order makes every delta non-negative, so the format
   cannot even express a descending group; FORMAT.md Appendix B is the
   normative spec. [decode] is a trust boundary — worker frames carry
   these bytes — so it re-validates what [well_formed] would check
   (strict right-shift order, ascending gseq, no empty group, total
   consistency), demands exact length, bounds every count by the bytes
   left before allocating, and refuses overlong varints and values past
   [max_int]: exactly one byte string decodes to each set. *)

let encode_bound s = Wire.varint_max * (2 + (2 * Array.length s.groups) + (2 * s.total))

let encode_into s b off =
  if off < 0 || off > Bytes.length b - encode_bound s then
    invalid_arg "Support_set.encode_into: buffer too small";
  let o = ref (Wire.put_uint b off (Array.length s.groups)) in
  o := Wire.put_uint b !o s.total;
  let prev_gseq = ref 0 in
  Array.iter
    (fun g ->
      o := Wire.put_uint b !o (g.gseq - !prev_gseq);
      prev_gseq := g.gseq;
      o := Wire.put_uint b !o g.len;
      let firsts = g.firsts and lasts = g.lasts in
      let prev_last = ref 0 in
      for k = 0 to g.len - 1 do
        let last = lasts.(k) in
        o := Wire.put_uint b !o (last - !prev_last);
        o := Wire.put_uint b !o (last - firsts.(k));
        prev_last := last
      done)
    s.groups;
  !o

let encode s = Wire.encode ~bound:(encode_bound s) (encode_into s)

let read_set c =
  let fail msg = invalid_arg ("Support_set.decode: " ^ msg) in
  let num_groups = Wire.get_uint c in
  let total = Wire.get_uint c in
  (* a group costs at least 4 bytes (gap, len, one instance's two
     varints) and an instance at least 2: bound before allocating *)
  if num_groups > Wire.remaining c / 4 then fail "group count exceeds buffer";
  let groups = Array.make num_groups empty_group in
  let prev_gseq = ref 0 in
  let sum = ref 0 in
  for gi = 0 to num_groups - 1 do
    let gap = Wire.get_uint c in
    if gap = 0 then fail "sequence ids not ascending";
    if gap > max_int - !prev_gseq then fail "sequence id past max_int";
    let gseq = !prev_gseq + gap in
    prev_gseq := gseq;
    let n = Wire.get_uint c in
    if n = 0 then fail "empty group";
    if n > Wire.remaining c / 2 then fail "group length exceeds buffer";
    let firsts = Array.make n 0 and lasts = Array.make n 0 in
    let prev_last = ref 0 and prev_first = ref 0 in
    for k = 0 to n - 1 do
      let delta = Wire.get_uint c in
      if delta > max_int - !prev_last then fail "position past max_int";
      let last = !prev_last + delta in
      let span = Wire.get_uint c in
      if span > last then fail "first position below zero";
      let first = last - span in
      (* lasts never descend (delta >= 0); a tie must ascend in first *)
      if k > 0 && delta = 0 && first <= !prev_first then
        fail "instances out of right-shift order";
      Array.unsafe_set firsts k first;
      Array.unsafe_set lasts k last;
      prev_last := last;
      prev_first := first
    done;
    groups.(gi) <- { gseq; len = n; firsts; lasts };
    sum := !sum + n
  done;
  if !sum <> total then fail "total mismatch";
  { groups; total }

let decode_sub buf ~off ~len = Wire.decode read_set buf ~off ~len

let decode buf = decode_sub buf ~off:0 ~len:(String.length buf)

(* Groups are immutable once built, so physically equal group records
   imply equal content: the supervisor's slot table compares the slices
   it ships this way, in O(groups) and without touching instances. *)
let same_groups a b =
  a == b
  || Array.length a.groups = Array.length b.groups
     &&
     let same = ref true in
     Array.iteri (fun k g -> if g != b.groups.(k) then same := false) a.groups;
     !same

(* Content equality over the live prefixes — the arrays may carry slack
   slots and be shared, so structural array equality would be wrong in both
   directions. *)
let group_equal a b =
  a.gseq = b.gseq && a.len = b.len
  &&
  let same = ref true in
  for k = 0 to a.len - 1 do
    if a.firsts.(k) <> b.firsts.(k) || a.lasts.(k) <> b.lasts.(k) then
      same := false
  done;
  !same

let equal a b =
  a.total = b.total
  && Array.length a.groups = Array.length b.groups
  &&
  let same = ref true in
  Array.iteri (fun k ga -> if not (group_equal ga b.groups.(k)) then same := false) a.groups;
  !same

let pp ppf s =
  Format.fprintf ppf "@[<v>{ size = %d@," s.total;
  Array.iter
    (fun g ->
      Format.fprintf ppf "  S%d: %a@," g.gseq
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ") Instance.pp)
        (Array.to_list (group_view g)))
    s.groups;
  Format.fprintf ppf "}@]"
