(* A database is either heap-backed (every sequence built eagerly, the
   seed behaviour) or store-backed: the event data and the precomputed
   event-major index runs live in read-only mapped [Ivec] sections shared
   across domains and processes, and [Sequence.t] values are materialised
   lazily, one sequence at a time, only when something actually scans
   them (printing, the naive baselines). Mining through the inverted
   index never forces a sequence, and closure checks read the lazily
   built dense views instead. *)
type runs = {
  evrn : Ivec.t;
  rseq : Ivec.t;
  roff : Ivec.t;
  epos : Ivec.t;
}

type mapped = {
  m_seq_offsets : Ivec.t; (* N+1 absolute offsets into events *)
  m_events : Ivec.t; (* concatenated sequences, sequence-major *)
  m_runs : runs; (* FORMAT.md §4 *)
  m_digest : string; (* hex MD5 of the canonical event stream *)
}

type t = {
  (* per-slot atomics: domains race to materialise a sequence; the CAS
     winner publishes and everyone reuses it (heap databases are fully
     populated at construction, so the slow path never runs for them) *)
  cache : Sequence.t option Atomic.t array;
  (* dense-id views, built on first use and published the same way *)
  dense : int array option Atomic.t array;
  alpha : Alphabet.t;
  mapped : mapped option;
  digest : string option Atomic.t;
}

(* The dense alphabet is interned eagerly: one O(total length) pass at build
   time buys hashing-free, array-indexed event lookups for the lifetime of
   the database (Inverted_index's run table keys on dense ids). *)
let of_owned_array seqs =
  {
    cache = Array.map (fun s -> Atomic.make (Some s)) seqs;
    dense = Array.map (fun _ -> Atomic.make None) seqs;
    alpha = Alphabet.of_sequences seqs;
    mapped = None;
    digest = Atomic.make None;
  }

let of_array seqs = of_owned_array (Array.copy seqs)
let of_sequences l = of_owned_array (Array.of_list l)
let of_strings l = of_sequences (List.map Sequence.of_string l)
let size db = Array.length db.cache
let dense_alphabet db = db.alpha
let is_mapped db = db.mapped <> None

let mapped_runs db = Option.map (fun m -> m.m_runs) db.mapped

let force db i0 =
  match db.mapped with
  | None ->
    (* heap databases populate every slot at construction *)
    assert false
  | Some m ->
    let lo = Ivec.get m.m_seq_offsets i0
    and hi = Ivec.get m.m_seq_offsets (i0 + 1) in
    let s =
      Sequence.unsafe_of_array (Ivec.sub_array m.m_events ~pos:lo ~len:(hi - lo))
    in
    let slot = db.cache.(i0) in
    if Atomic.compare_and_set slot None (Some s) then begin
      Metrics.add Metrics.store_resident_words (hi - lo);
      s
    end
    else match Atomic.get slot with Some s -> s | None -> s

let seq_at db i0 =
  match Atomic.get db.cache.(i0) with Some s -> s | None -> force db i0

let seq db i =
  if i < 1 || i > Array.length db.cache then
    invalid_arg
      (Printf.sprintf "Seqdb.seq: index %d out of [1;%d]" i (Array.length db.cache))
  else seq_at db (i - 1)

let sequences db = Array.init (size db) (seq_at db)

(* Sequence [i0]'s events as dense ids, read straight from the mapped
   event section on a store (no [Sequence.t] is forced) and from the heap
   sequence otherwise. Racing domains build equal arrays; the CAS winner's
   is the one everybody keeps. *)
let build_dense db i0 =
  let alpha = db.alpha in
  let view =
    match db.mapped with
    | Some m ->
      let lo = Ivec.get m.m_seq_offsets i0 in
      Array.init
        (Ivec.get m.m_seq_offsets (i0 + 1) - lo)
        (fun p -> Alphabet.dense alpha (Ivec.get m.m_events (lo + p)))
    | None ->
      let s = seq_at db i0 in
      Array.init (Sequence.length s) (fun p ->
          Alphabet.dense alpha (Sequence.unsafe_get s (p + 1)))
  in
  let slot = db.dense.(i0) in
  if Atomic.compare_and_set slot None (Some view) then begin
    if db.mapped <> None then
      Metrics.add Metrics.store_resident_words (Array.length view);
    view
  end
  else match Atomic.get slot with Some v -> v | None -> view

let dense_seq db i =
  if i < 1 || i > Array.length db.dense then
    invalid_arg
      (Printf.sprintf "Seqdb.dense_seq: index %d out of [1;%d]" i
         (Array.length db.dense))
  else
    match Atomic.get db.dense.(i - 1) with
    | Some v -> v
    | None -> build_dense db (i - 1)

(* length of sequence [i0] without forcing it *)
let length_at db i0 =
  match db.mapped with
  | Some m -> Ivec.get m.m_seq_offsets (i0 + 1) - Ivec.get m.m_seq_offsets i0
  | None -> Sequence.length (seq_at db i0)

let total_length db =
  match db.mapped with
  | Some m -> Ivec.get m.m_seq_offsets (size db)
  | None ->
    let n = ref 0 in
    for i = 0 to size db - 1 do
      n := !n + Sequence.length (seq_at db i)
    done;
    !n

let max_length db =
  let m = ref 0 in
  for i = 0 to size db - 1 do
    m := max !m (length_at db i)
  done;
  !m

let avg_length db =
  if size db = 0 then 0.
  else float_of_int (total_length db) /. float_of_int (size db)

let alphabet db = Array.to_list (Alphabet.events db.alpha)
let alphabet_size db = Alphabet.size db.alpha

let event_count db e =
  match db.mapped with
  | Some { m_runs = { evrn; roff; _ }; _ } ->
    (* an event's positions are one contiguous block of EPOS *)
    let d = Alphabet.dense db.alpha e in
    if d < 0 then 0
    else Ivec.get roff (Ivec.get evrn (d + 1)) - Ivec.get roff (Ivec.get evrn d)
  | None ->
    let n = ref 0 in
    for i = 0 to size db - 1 do
      n := !n + Sequence.count (seq_at db i) e
    done;
    !n

let fold f init db =
  let acc = ref init in
  for i = 0 to size db - 1 do
    acc := f !acc (i + 1) (seq_at db i)
  done;
  !acc

let iter f db =
  for i = 0 to size db - 1 do
    f (i + 1) (seq_at db i)
  done

(* The canonical event stream: every event as "%d ", every sequence
   terminated by '\n'. Checkpoint fingerprints hash exactly this stream
   (plus the run parameters), and Store.write seals its MD5 into the
   .rgsdb header (FORMAT.md §2.1) — so a mapped database answers in O(1)
   and text-path and store-path runs share checkpoints. *)
let compute_digest db =
  let buf = Buffer.create (4 * (total_length db + size db) + 16) in
  iter
    (fun _ s ->
      Sequence.iteri
        (fun _ e ->
          Buffer.add_string buf (string_of_int e);
          Buffer.add_char buf ' ')
        s;
      Buffer.add_char buf '\n')
    db;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let content_digest db =
  match Atomic.get db.digest with
  | Some d -> d
  | None ->
    let d = compute_digest db in
    (* racing domains compute the same value; first publish wins *)
    ignore (Atomic.compare_and_set db.digest None (Some d));
    d

let of_store ~alpha ~seq_offsets ~events ~runs ~digest =
  let n = Ivec.length seq_offsets - 1 in
  let k = Alphabet.size alpha in
  let fail fmt = Printf.ksprintf (fun m -> invalid_arg ("Seqdb.of_store: " ^ m)) fmt in
  if n < 0 then fail "empty sequence-offset table";
  if Ivec.get seq_offsets 0 <> 0 then fail "sequence offsets must start at 0";
  for i = 0 to n - 1 do
    if Ivec.get seq_offsets (i + 1) < Ivec.get seq_offsets i then
      fail "sequence offsets must be nondecreasing"
  done;
  let total = Ivec.get seq_offsets n in
  if Ivec.length events <> total then fail "event section size mismatch";
  (* Semantic run-table checks (FORMAT.md §2.5): the index cursors read
     RSEQ, ROFF and EPOS through these tables unchecked, so every run an
     event names must exist, name a real sequence, and own a non-empty
     slice of EPOS. One pass over EVRN, then one fused pass over RSEQ and
     ROFF: O(k + R) table words, unchecked loads once the lengths are
     known (a direct Bigarray load, inlined here). EPOS is never read, so
     opens stay independent of the corpus length. *)
  let uget (v : Ivec.t) i = Bigarray.Array1.unsafe_get v i in
  let { evrn; rseq; roff; epos } = runs in
  let r_count = Ivec.length rseq in
  if Ivec.length evrn <> k + 1 then fail "EVRN must hold alphabet size + 1 entries";
  if Ivec.length roff <> r_count + 1 then fail "ROFF must hold run count + 1 entries";
  if Ivec.length epos <> total then fail "EPOS must hold one entry per event";
  if uget evrn 0 <> 0 then fail "EVRN must start at 0";
  for d = 0 to k - 1 do
    if uget evrn (d + 1) < uget evrn d then
      fail "EVRN must be nondecreasing"
  done;
  if uget evrn k <> r_count then
    fail "EVRN must end at the run count %d" r_count;
  if uget roff 0 <> 0 then fail "ROFF must start at 0";
  let r = ref 0 in
  for d = 0 to k - 1 do
    let hi = uget evrn (d + 1) in
    let prev = ref 0 in
    while !r < hi do
      let s = uget rseq !r in
      if s < 1 || s > n then fail "RSEQ names sequence %d, outside [1, %d]" s n;
      if s <= !prev then fail "RSEQ must be strictly ascending within an event";
      prev := s;
      if uget roff (!r + 1) <= uget roff !r then
        fail "ROFF must be strictly increasing";
      incr r
    done
  done;
  if uget roff r_count <> total then
    fail "ROFF must end at the total length %d" total;
  {
    cache = Array.init n (fun _ -> Atomic.make None);
    dense = Array.init n (fun _ -> Atomic.make None);
    alpha;
    mapped =
      Some
        {
          m_seq_offsets = seq_offsets;
          m_events = events;
          m_runs = runs;
          m_digest = digest;
        };
    digest = Atomic.make (Some digest);
  }

let equal a b =
  size a = size b
  &&
  (* mapped stores carry their content hash; use it when both sides do *)
  match (a.mapped, b.mapped) with
  | Some ma, Some mb -> ma.m_digest = mb.m_digest
  | _ ->
    let rec go i =
      i >= size a || (Sequence.equal (seq_at a i) (seq_at b i) && go (i + 1))
    in
    go 0

(* Balanced contiguous shards by total event length. Greedy with a
   moving target (remaining length / remaining shards): sequences are
   appended to the current shard until it reaches the target, with the
   guard that every remaining shard can still claim at least one
   sequence. Uses [length_at] only — on mapped databases this is two
   offset-table reads per sequence, so sharding a paper-scale corpus
   forces nothing. *)
let shard db n =
  if n < 1 then invalid_arg "Seqdb.shard: shard count must be >= 1";
  let size = size db in
  if size = 0 then [||]
  else begin
    let n = min n size in
    let total = total_length db in
    let ranges = Array.make n (0, 0) in
    let lo = ref 1 in
    let remaining = ref total in
    for s = 0 to n - 1 do
      let shards_left = n - s in
      (* every later shard must keep at least one sequence *)
      let hi_cap = size - (shards_left - 1) in
      let target = !remaining / shards_left in
      let hi = ref !lo in
      let acc = ref (length_at db (!lo - 1)) in
      while !hi < hi_cap && !acc < target do
        incr hi;
        acc := !acc + length_at db (!hi - 1)
      done;
      (* the last shard absorbs any tail of zero-length sequences *)
      if shards_left = 1 then
        while !hi < size do
          incr hi;
          acc := !acc + length_at db (!hi - 1)
        done;
      ranges.(s) <- (!lo, !hi);
      remaining := !remaining - !acc;
      lo := !hi + 1
    done;
    ranges
  end

let pp ppf db =
  Format.fprintf ppf "@[<v>";
  iter (fun i s -> Format.fprintf ppf "S%d = %a@," i Sequence.pp s) db;
  Format.fprintf ppf "@]"

type stats = {
  num_sequences : int;
  num_events : int;
  total_length : int;
  min_length : int;
  max_length : int;
  avg_length : float;
}

let stats db =
  let min_length = ref (if size db = 0 then 0 else max_int) in
  for i = 0 to size db - 1 do
    min_length := min !min_length (length_at db i)
  done;
  {
    num_sequences = size db;
    num_events = alphabet_size db;
    total_length = total_length db;
    min_length = !min_length;
    max_length = max_length db;
    avg_length = avg_length db;
  }

let pp_stats ppf st =
  Format.fprintf ppf
    "@[<v>sequences   : %d@,distinct evs: %d@,total length: %d@,\
     min/avg/max : %d / %.2f / %d@]"
    st.num_sequences st.num_events st.total_length st.min_length st.avg_length
    st.max_length
