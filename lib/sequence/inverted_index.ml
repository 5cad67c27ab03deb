(* The run table lives in [Ivec] (Bigarray) buffers: identical code
   serves heap-built indexes and read-only sections mapped straight out
   of a [.rgsdb] store (see lib/store), so the zero-copy open path needs
   no layout of its own, and the table stays outside the GC heap. *)
type t = {
  db : Seqdb.t;
  alpha : Alphabet.t;
  runs : Seqdb.runs;
}

(* Event-major construction. Pass 1 counts, per dense event, its
   occurrences and its runs (the sequences it occurs in: [last] holds the
   latest sequence that opened a run of [d]); prefix sums turn the counts
   into EVRN and into each event's base in EPOS. Pass 2 walks the
   sequences in ascending order, so every event's runs come out in
   ascending sequence order and every run's positions ascending. Scratch
   is O(k); nothing is sized N * k. *)
let build_scan db alpha =
  let k = Alphabet.size alpha in
  let occ = Array.make (k + 1) 0 and nruns = Array.make (k + 1) 0 in
  let last = Array.make k 0 in
  Seqdb.iter
    (fun i s ->
      Sequence.iteri
        (fun _ e ->
          let d = Alphabet.dense alpha e in
          occ.(d + 1) <- occ.(d + 1) + 1;
          if last.(d) <> i then begin
            last.(d) <- i;
            nruns.(d + 1) <- nruns.(d + 1) + 1
          end)
        s)
    db;
  for d = 1 to k do
    occ.(d) <- occ.(d) + occ.(d - 1);
    nruns.(d) <- nruns.(d) + nruns.(d - 1)
  done;
  let r_count = nruns.(k) and total = occ.(k) in
  let evrn = Ivec.create (k + 1) in
  Array.iteri (Ivec.set evrn) nruns;
  let rseq = Ivec.create r_count and roff = Ivec.create (r_count + 1) in
  let epos = Ivec.create total in
  Ivec.set roff r_count total;
  (* [nruns]/[occ] become the fill cursors of each event's runs/positions *)
  Array.fill last 0 k 0;
  Seqdb.iter
    (fun i s ->
      Sequence.iteri
        (fun p e ->
          let d = Alphabet.dense alpha e in
          if last.(d) <> i then begin
            last.(d) <- i;
            let r = nruns.(d) in
            nruns.(d) <- r + 1;
            Ivec.set rseq r i;
            Ivec.set roff r occ.(d)
          end;
          Ivec.set epos occ.(d) p;
          occ.(d) <- occ.(d) + 1)
        s)
    db;
  { Seqdb.evrn; rseq; roff; epos }

(* A store-backed database carries the run table packed at write time
   (FORMAT.md §4) and already checked (§2.5): the index uses the mapped
   sections as they are — no copy, no event data read. *)
let build db =
  let alpha = Seqdb.dense_alphabet db in
  let runs =
    match Seqdb.mapped_runs db with
    | Some runs -> runs
    | None -> build_scan db alpha
  in
  { db; alpha; runs }

let db t = t.db
let runs t = t.runs

let check_seq t seq =
  if seq < 1 || seq > Seqdb.size t.db then
    invalid_arg (Printf.sprintf "Inverted_index: bad sequence index %d" seq)

(* An unchecked load the compiler inlines here (a call to
   [Ivec.unsafe_get] in another module is not inlined under [-opaque]).
   Every index below is in range by construction on a heap index, and by
   the FORMAT.md §2.5 checks of [Seqdb.of_store] on a mapped one. *)
let uget (v : Ivec.t) i = Bigarray.Array1.unsafe_get v i

(* Least index k in [lo, hi) with a.(k) > lowest, by binary search over the
   ascending slice; [hi] when none. Over an event's RSEQ range,
   [first_above rseq ~lo ~hi (seq - 1)] is its first run at or after
   sequence [seq]. *)
let first_above (a : Ivec.t) ~lo ~hi lowest =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if uget a mid > lowest then hi := mid else lo := mid + 1
  done;
  !lo

(* The EPOS slice of event [e] in sequence [seq]: [lo] inclusive, [hi]
   exclusive; the empty slice (0, 0) when [e] does not occur there. *)
let slice t ~seq e =
  let d = Alphabet.dense t.alpha e in
  if d < 0 then (0, 0)
  else begin
    let { Seqdb.evrn; rseq; roff; _ } = t.runs in
    let hi = Ivec.get evrn (d + 1) in
    let r = first_above rseq ~lo:(Ivec.get evrn d) ~hi (seq - 1) in
    if r < hi && Ivec.get rseq r = seq then (Ivec.get roff r, Ivec.get roff (r + 1))
    else (0, 0)
  end

let positions t ~seq e =
  check_seq t seq;
  let lo, hi = slice t ~seq e in
  Ivec.sub_array t.runs.epos ~pos:lo ~len:(hi - lo)

let map_runs t e f =
  let d = Alphabet.dense t.alpha e in
  if d < 0 then [||]
  else begin
    let { Seqdb.evrn; rseq; roff; epos } = t.runs in
    let lo = Ivec.get evrn d in
    Array.init
      (Ivec.get evrn (d + 1) - lo)
      (fun j ->
        let r = lo + j in
        let p = Ivec.get roff r in
        f (Ivec.get rseq r) (Ivec.sub_array epos ~pos:p ~len:(Ivec.get roff (r + 1) - p)))
  end

let next t ~seq e ~lowest =
  check_seq t seq;
  Metrics.hit Metrics.next_calls;
  let lo, hi = slice t ~seq e in
  let k = first_above t.runs.epos ~lo ~hi lowest in
  if k >= hi then None else Some (Ivec.get t.runs.epos k)

let count_between t ~seq e ~lo ~hi =
  check_seq t seq;
  if hi <= lo + 1 then 0
  else begin
    let slo, shi = slice t ~seq e in
    let first = first_above t.runs.epos ~lo:slo ~hi:shi lo in
    let beyond = first_above t.runs.epos ~lo:slo ~hi:shi (hi - 1) in
    beyond - first
  end

(* --- cursors --- *)

(* A cursor over one event's runs. [r] is the run frontier: the first run
   of the event whose sequence is >= [cseq], the sequence the cursor sits
   on. The window [sk, shi) is that sequence's slice of [epos] (empty
   when the event does not occur there). *)
type cursor = {
  rseq : Ivec.t;
  roff : Ivec.t;
  epos : Ivec.t;
  rlo : int; (* the event's runs are [rlo, rhi); both 0 when it is absent *)
  rhi : int;
  mutable cseq : int;
  mutable r : int;
  mutable shi : int;
  mutable sk : int; (* next candidate index; positions below sk are spent *)
  mutable seeks : int;
  mutable advanced : int;
  mutable gallops : int;
}

(* How far a reseat walks the run frontier before bisecting: up to
   [reseat_skips] steps of four runs each. INSgrow visits a support set's
   groups in ascending sequence order, and the event's next run is
   usually a few runs ahead. *)
let reseat_skips = 2

(* Open the window of run [r] when it belongs to [seq], else an empty
   one. Branch-free, because whether the event occurs in a group's
   sequence is data the branch predictor cannot learn: [rr] is [r], or
   the event's last run when [r] ran off its end — a run whose sequence
   is below [seq], so it never matches. *)
let open_window c r seq =
  if c.rhi > c.rlo then begin
    let rr = r - Bool.to_int (r >= c.rhi) in
    let lo = uget c.roff rr in
    c.sk <- lo;
    c.shi <- lo + ((uget c.roff (rr + 1) - lo) * Bool.to_int (uget c.rseq rr = seq))
  end

(* Move the frontier to [seq] and open its window. A later sequence
   starts from the frontier (every run before it is below [cseq], hence
   below [seq]), so a pass over ascending sequences costs amortised O(1)
   per reseat; an earlier one starts over from the event's first run.
   Each walking step is branch-free: RSEQ ascends, so the number of the
   next four runs below [seq] is how far to move. A longer hop ends in a
   bisection. *)
let reseat c ~seq =
  let rseq = c.rseq and rhi = c.rhi in
  let r = ref (if seq >= c.cseq then c.r else c.rlo) and left = ref reseat_skips in
  while !left > 0 && !r + 4 <= rhi do
    let b = !r in
    let n =
      Bool.to_int (uget rseq b < seq)
      + Bool.to_int (uget rseq (b + 1) < seq)
      + Bool.to_int (uget rseq (b + 2) < seq)
      + Bool.to_int (uget rseq (b + 3) < seq)
    in
    r := b + n;
    left := if n < 4 then 0 else !left - 1
  done;
  let r =
    if !r < rhi && uget rseq !r < seq then first_above rseq ~lo:(!r + 1) ~hi:rhi (seq - 1)
    else !r
  in
  c.cseq <- seq;
  c.r <- r;
  open_window c r seq

let cursor t ~seq e =
  check_seq t seq;
  let d = Alphabet.dense t.alpha e in
  let { Seqdb.evrn; rseq; roff; epos } = t.runs in
  let rlo = if d < 0 then 0 else uget evrn d in
  let rhi = if d < 0 then 0 else uget evrn (d + 1) in
  let c =
    { rseq; roff; epos; rlo; rhi; cseq = 0; r = rlo; shi = 0; sk = 0;
      seeks = 0; advanced = 0; gallops = 0 }
  in
  reseat c ~seq;
  c

(* How many positions past the frontier a seek probes linearly before
   switching to galloping. Short hops dominate INSgrow passes (the next
   qualifying occurrence is usually a step or two away), so a handful of
   straight-line probes beats starting a doubling search every time. *)
let linear_probe_limit () = Tuning.gallop_probe_limit ()

(* Hot cursor entry: -1 when no position qualifies. [lowest] must be
   nondecreasing across calls (the cursor never revisits an index below
   [sk]). Counts are batched in the cursor and flushed by
   [cursor_finish] so the per-seek cost carries no atomic operation:
   [advanced] counts spent positions stepped over linearly, [gallops]
   counts doubling probes and bisection halvings — so a long hop over a
   run of [n] spent positions costs [linear_probe_limit] advances plus
   O(log n) gallops instead of [n] linear steps. *)
let seek_pos c ~lowest =
  c.seeks <- c.seeks + 1;
  let pos = c.epos and hi = c.shi in
  let k = c.sk in
  if k >= hi then -1
  else if uget pos k > lowest then uget pos k
  else begin
    (* linear fast path: the frontier is spent; probe the next few slots *)
    let probe_limit = linear_probe_limit () in
    let j = ref (k + 1) in
    let lin = ref 0 in
    while !lin < probe_limit && !j < hi && uget pos !j <= lowest do
      incr lin;
      incr j
    done;
    c.advanced <- c.advanced + !lin;
    let j =
      if !j >= hi || uget pos !j > lowest then !j
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
          if uget pos !probe <= lowest then begin
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
          if uget pos mid > lowest then bhi := mid else lo := mid + 1
        done;
        c.gallops <- c.gallops + !g;
        !lo
      end
    in
    c.sk <- j;
    if j >= hi then -1 else uget pos j
  end

let seek c ~lowest =
  let p = seek_pos c ~lowest in
  if p < 0 then None else Some p

let cursor_finish c =
  Metrics.add Metrics.next_calls c.seeks;
  Metrics.add Metrics.cursor_advances c.advanced;
  Metrics.add Metrics.cursor_gallops c.gallops;
  c.seeks <- 0;
  c.advanced <- 0;
  c.gallops <- 0

let occurrence_count t e =
  let d = Alphabet.dense t.alpha e in
  if d < 0 then 0
  else begin
    let { Seqdb.evrn; roff; _ } = t.runs in
    uget roff (uget evrn (d + 1)) - uget roff (uget evrn d)
  end

let events t = Array.to_list (Alphabet.events t.alpha)

let frequent_events t ~min_sup =
  List.filter (fun e -> occurrence_count t e >= min_sup) (events t)
