(* Position/offset runs live in [Ivec] (Bigarray) buffers: identical code
   serves heap-allocated indexes and read-only sections mapped straight
   out of a [.rgsdb] store (see lib/store), so the zero-copy open path
   needs no backend of its own. *)
type csr = {
  offsets : Ivec.t; (* length alphabet+1, indexed by dense event id *)
  pos : Ivec.t; (* sequence positions, 1-based, grouped by dense id, each run ascending *)
}

type backend =
  | Csr of csr array
  | Paged of (Event.t, Btree.t) Hashtbl.t array

type kind = Kcsr | Kpaged

type t = {
  db : Seqdb.t;
  alpha : Alphabet.t;
  totals : int array; (* occurrences per dense event id, over the database *)
  backend : backend;
}

let empty_positions : int array = [||]

let totals_of_scan db alpha =
  let totals = Array.make (Alphabet.size alpha) 0 in
  Seqdb.iter
    (fun _ s ->
      Sequence.iteri
        (fun _ e ->
          let d = Alphabet.dense alpha e in
          totals.(d) <- totals.(d) + 1)
        s)
    db;
  totals

(* Per-event occurrence totals. A mapped database answers this from its
   CSR offsets alone — O(N * alphabet) loads over the mapped section, no
   sequence is materialised — so building an index on a store-backed
   Seqdb touches none of the event data. *)
let totals_of db alpha =
  match Seqdb.mapped_csr db with
  | Some (csr_offsets, _) ->
    let k = Alphabet.size alpha in
    let totals = Array.make k 0 in
    let n = Seqdb.size db in
    for i = 0 to n - 1 do
      let base = i * (k + 1) in
      for d = 0 to k - 1 do
        totals.(d) <-
          totals.(d)
          + Ivec.unsafe_get csr_offsets (base + d + 1)
          - Ivec.unsafe_get csr_offsets (base + d)
      done
    done;
    totals
  | None -> totals_of_scan db alpha

(* CSR construction: per sequence, one counting pass sizes the runs, a
   prefix sum turns counts into offsets, and one fill pass scatters the
   positions. Everything is a flat buffer; no per-event allocation. *)
let build_csr_scan db =
  let alpha = Seqdb.dense_alphabet db in
  let k = Alphabet.size alpha in
  let n = Seqdb.size db in
  let stores = Array.make n { offsets = Ivec.empty; pos = Ivec.empty } in
  Seqdb.iter
    (fun i s ->
      let offsets = Ivec.create (k + 1) in
      Bigarray.Array1.fill offsets 0;
      Sequence.iteri
        (fun _ e ->
          let d = Alphabet.dense alpha e in
          Ivec.set offsets (d + 1) (Ivec.get offsets (d + 1) + 1))
        s;
      for d = 1 to k do
        Ivec.set offsets d (Ivec.get offsets d + Ivec.get offsets (d - 1))
      done;
      let pos = Ivec.create (Sequence.length s) in
      let fill = Ivec.sub_array offsets ~pos:0 ~len:k in
      Sequence.iteri
        (fun p e ->
          let d = Alphabet.dense alpha e in
          Ivec.set pos fill.(d) p;
          fill.(d) <- fill.(d) + 1)
        s;
      stores.(i - 1) <- { offsets; pos })
    db;
  { db; alpha; totals = totals_of db alpha; backend = Csr stores }

(* Store-backed construction: the CSR runs were precomputed at pack time
   and mapped read-only ([Seqdb.mapped_csr]); per sequence the backend
   just slices the shared sections — slices alias the mapping, so the
   build costs O(N) slice descriptors and reads no event data at all.
   The offsets in a CSOF section are relative to the sequence's own
   positions run (FORMAT.md §2.4), exactly the invariant [csr_slice]
   expects. *)
let build_csr_mapped db ~csr_offsets ~csr_pos =
  let alpha = Seqdb.dense_alphabet db in
  let k = Alphabet.size alpha in
  let n = Seqdb.size db in
  let pos_base = ref 0 in
  let stores =
    Array.init n (fun i ->
        let offsets = Ivec.sub csr_offsets ~pos:(i * (k + 1)) ~len:(k + 1) in
        let len = Ivec.get offsets k in
        let pos = Ivec.sub csr_pos ~pos:!pos_base ~len in
        pos_base := !pos_base + len;
        { offsets; pos })
  in
  { db; alpha; totals = totals_of db alpha; backend = Csr stores }

let build db =
  match Seqdb.mapped_csr db with
  | Some (csr_offsets, csr_pos) -> build_csr_mapped db ~csr_offsets ~csr_pos
  | None -> build_csr_scan db

(* Per-sequence hashtables of sorted position arrays, the bulk-load input
   of the B+-trees. *)
let position_arrays db =
  let n = Seqdb.size db in
  let per_seq = Array.init n (fun _ -> Hashtbl.create 16) in
  Seqdb.iter
    (fun i s ->
      let counts = Hashtbl.create 16 in
      Sequence.iteri
        (fun _ e ->
          Hashtbl.replace counts e (1 + Option.value ~default:0 (Hashtbl.find_opt counts e)))
        s;
      let tbl = per_seq.(i - 1) in
      Hashtbl.iter (fun e c -> Hashtbl.replace tbl e (Array.make c 0)) counts;
      let fill = Hashtbl.create 16 in
      Sequence.iteri
        (fun pos e ->
          let k = Option.value ~default:0 (Hashtbl.find_opt fill e) in
          (Hashtbl.find tbl e).(k) <- pos;
          Hashtbl.replace fill e (k + 1))
        s)
    db;
  per_seq

let build_paged ?fanout db =
  let alpha = Seqdb.dense_alphabet db in
  let per_seq =
    Array.map
      (fun tbl ->
        let out = Hashtbl.create (Hashtbl.length tbl) in
        Hashtbl.iter (fun e a -> Hashtbl.add out e (Btree.of_sorted_array ?fanout a)) tbl;
        out)
      (position_arrays db)
  in
  { db; alpha; totals = totals_of db alpha; backend = Paged per_seq }

let build_kind ?fanout kind db =
  match kind with
  | Kcsr -> build db
  | Kpaged -> build_paged ?fanout db

let db t = t.db

let kind t = match t.backend with Csr _ -> Kcsr | Paged _ -> Kpaged
let kind_name = function Kcsr -> "csr" | Kpaged -> "paged"
let backend_name t = kind_name (kind t)

let check_seq t seq =
  if seq < 1 || seq > Seqdb.size t.db then
    invalid_arg (Printf.sprintf "Inverted_index: bad sequence index %d" seq)

(* CSR slice of event [e] in sequence [seq]: [lo] inclusive, [hi] exclusive
   into [store.pos]; the empty slice (0, 0) when [e] does not occur. *)
let csr_slice t (stores : csr array) ~seq e =
  let d = Alphabet.dense t.alpha e in
  if d < 0 then (Ivec.empty, 0, 0)
  else begin
    let store = stores.(seq - 1) in
    (store.pos, Ivec.get store.offsets d, Ivec.get store.offsets (d + 1))
  end

let positions t ~seq e =
  check_seq t seq;
  match t.backend with
  | Csr stores ->
    let pos, lo, hi = csr_slice t stores ~seq e in
    Ivec.sub_array pos ~pos:lo ~len:(hi - lo)
  | Paged per_seq -> (
    match Hashtbl.find_opt per_seq.(seq - 1) e with
    | None -> empty_positions
    | Some bt -> Btree.to_array bt)

(* Least index k in [lo, hi) with a.(k) > lowest, by binary search over the
   sorted slice; [hi] when none. *)
let first_above (a : Ivec.t) ~lo ~hi lowest =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Ivec.unsafe_get a mid > lowest then hi := mid else lo := mid + 1
  done;
  !lo

(* Core of [next], uncounted and option-free: -1 when no position
   qualifies. The counted [next] and the cursors (which batch their own
   counts) both route here. *)
let next_pos t ~seq e ~lowest =
  match t.backend with
  | Csr stores ->
    let pos, lo, hi = csr_slice t stores ~seq e in
    let k = first_above pos ~lo ~hi lowest in
    if k >= hi then -1 else Ivec.get pos k
  | Paged per_seq -> (
    match Hashtbl.find_opt per_seq.(seq - 1) e with
    | None -> -1
    | Some bt -> ( match Btree.successor bt lowest with None -> -1 | Some p -> p))

let next t ~seq e ~lowest =
  check_seq t seq;
  Metrics.hit Metrics.next_calls;
  let p = next_pos t ~seq e ~lowest in
  if p < 0 then None else Some p

let count_between t ~seq e ~lo ~hi =
  check_seq t seq;
  if hi <= lo + 1 then 0
  else
    match t.backend with
    | Csr stores ->
      let pos, slo, shi = csr_slice t stores ~seq e in
      let first = first_above pos ~lo:slo ~hi:shi lo in
      let beyond = first_above pos ~lo:slo ~hi:shi (hi - 1) in
      beyond - first
    | Paged per_seq -> (
      match Hashtbl.find_opt per_seq.(seq - 1) e with
      | None -> 0
      | Some bt -> Btree.count_in bt ~lo ~hi)

(* --- cursors --- *)

(* A cursor over one event's CSR runs: [stores] and [d] let [reseat]
   re-point the window at another sequence's run by offset arithmetic. *)
type window_cursor = {
  stores : csr array;
  d : int; (* dense event id; -1 when absent from the db *)
  mutable spos : Ivec.t;
  mutable shi : int;
  mutable sk : int; (* next candidate index; positions below sk are spent *)
  mutable seeks : int;
  mutable advanced : int;
  mutable gallops : int;
}

type paged_cursor = {
  pper : (Event.t, Btree.t) Hashtbl.t array;
  pe : Event.t;
  pbc : Btree.cursor; (* re-pointed per sequence; parked on [empty_btree]
                         when the event is absent *)
  mutable pseeks : int;
}

type cursor =
  | Cwindow of window_cursor
  | Cpaged of paged_cursor

let empty_btree = lazy (Btree.of_sorted_array [||])

let set_window c ~seq =
  if c.d >= 0 then begin
    let store = c.stores.(seq - 1) in
    c.spos <- store.pos;
    c.shi <- Ivec.get store.offsets (c.d + 1);
    c.sk <- Ivec.get store.offsets c.d
  end

let cursor t ~seq e =
  check_seq t seq;
  match t.backend with
  | Csr stores ->
    let c =
      { stores; d = Alphabet.dense t.alpha e; spos = Ivec.empty; shi = 0;
        sk = 0; seeks = 0; advanced = 0; gallops = 0 }
    in
    set_window c ~seq;
    Cwindow c
  | Paged per_seq ->
    let bt =
      match Hashtbl.find_opt per_seq.(seq - 1) e with
      | Some bt -> bt
      | None -> Lazy.force empty_btree
    in
    Cpaged { pper = per_seq; pe = e; pbc = Btree.cursor bt; pseeks = 0 }

(* Re-point a cursor at another sequence's position list for the same
   event, keeping the locally batched counts. Lets a whole INSgrow pass
   over a support set use a single cursor allocation and a single metrics
   flush. *)
let reseat c ~seq =
  match c with
  | Cwindow c -> set_window c ~seq
  | Cpaged c ->
    Btree.cursor_reset c.pbc
      (match Hashtbl.find_opt c.pper.(seq - 1) c.pe with
      | Some bt -> bt
      | None -> Lazy.force empty_btree)

(* How many positions past the frontier a seek probes linearly before
   switching to galloping. Short hops dominate INSgrow passes (the next
   qualifying occurrence is usually a step or two away), so a handful of
   straight-line probes beats starting a doubling search every time. The
   threshold is shared with the paged B+-tree cursor (see Tuning). *)
let linear_probe_limit () = Tuning.gallop_probe_limit ()

(* Hot cursor entry on the CSR backend: -1 when no position
   qualifies. [lowest] must be nondecreasing across calls (the cursor never
   revisits an index below [sk]). Counts are batched in the cursor and
   flushed by [cursor_finish] so the per-seek cost carries no atomic
   operation: [advanced] counts spent positions stepped over linearly,
   [gallops] counts doubling probes and bisection halvings — so a long hop
   over a run of [n] spent positions costs [linear_probe_limit] advances
   plus O(log n) gallops instead of [n] linear steps. *)
let window_seek c ~lowest =
  c.seeks <- c.seeks + 1;
  let pos = c.spos and hi = c.shi in
  let k = c.sk in
  if k >= hi then -1
  else if Ivec.unsafe_get pos k > lowest then Ivec.unsafe_get pos k
  else begin
    (* linear fast path: the frontier is spent; probe the next few slots *)
    let probe_limit = linear_probe_limit () in
    let j = ref (k + 1) in
    let lin = ref 0 in
    while !lin < probe_limit && !j < hi && Ivec.unsafe_get pos !j <= lowest do
      incr lin;
      incr j
    done;
    c.advanced <- c.advanced + !lin;
    let j =
      if !j >= hi || Ivec.unsafe_get pos !j > lowest then !j
      else begin
        (* gallop: pos.(!j) is still spent; double the step until a probe
           exceeds [lowest] (or the window ends), then bisect the last
           bracket. O(log hop) total, and over a monotone pass the cursor
           never revisits an index, hence O(occurrences) amortized. *)
        let base = !j in
        let g = ref 0 in
        let step = ref 1 in
        let prev = ref base in
        let probe = ref (base + 1) in
        let bracketed = ref false in
        while (not !bracketed) && !probe < hi do
          incr g;
          if Ivec.unsafe_get pos !probe <= lowest then begin
            prev := !probe;
            step := !step * 2;
            probe := base + !step
          end
          else bracketed := true
        done;
        let lo = ref (!prev + 1) and bhi = ref (min !probe hi) in
        while !lo < !bhi do
          incr g;
          let mid = (!lo + !bhi) / 2 in
          if Ivec.unsafe_get pos mid > lowest then bhi := mid else lo := mid + 1
        done;
        c.gallops <- c.gallops + !g;
        !lo
      end
    in
    c.sk <- j;
    if j >= hi then -1 else Ivec.unsafe_get pos j
  end

let seek_pos c ~lowest =
  match c with
  | Cwindow c -> window_seek c ~lowest
  | Cpaged c ->
    c.pseeks <- c.pseeks + 1;
    Btree.cursor_seek c.pbc ~lowest

let seek c ~lowest =
  let p = seek_pos c ~lowest in
  if p < 0 then None else Some p

let cursor_finish c =
  match c with
  | Cwindow c ->
    Metrics.add Metrics.next_calls c.seeks;
    Metrics.add Metrics.cursor_advances c.advanced;
    Metrics.add Metrics.cursor_gallops c.gallops;
    c.seeks <- 0;
    c.advanced <- 0;
    c.gallops <- 0
  | Cpaged c ->
    Metrics.add Metrics.next_calls c.pseeks;
    let adv, gal = Btree.cursor_drain_counts c.pbc in
    Metrics.add Metrics.cursor_advances adv;
    Metrics.add Metrics.cursor_gallops gal;
    c.pseeks <- 0

let occurrence_count t e =
  let d = Alphabet.dense t.alpha e in
  if d < 0 then 0 else t.totals.(d)

let events t = Array.to_list (Alphabet.events t.alpha)

let frequent_events t ~min_sup =
  List.filter (fun e -> occurrence_count t e >= min_sup) (events t)
