open Rgs_sequence

type entry = { root : Event.t; results : Mined.t list }
type quarantine = { root : Event.t; reason : string; backtrace : string }

type record =
  | Root_done of entry
  | Root_quarantined of quarantine
  | Run_outcome of Budget.outcome

type t = {
  fingerprint : string;
  completed : entry list;
  quarantined : quarantine list;
  outcome : Budget.outcome;
  salvaged_bytes : int;
}

exception Corrupt of string

let magic = "RGS-CHECKPOINT"
let version = 3

let log_src = Logs.Src.create "rgs.checkpoint" ~doc:"Durable checkpoint log"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* The database contributes through [Seqdb.content_digest] — the MD5 of
   the canonical event stream — rather than the stream itself: a mapped
   [.rgsdb] database answers it O(1) from the digest sealed at pack time,
   so text-loaded and store-backed runs of one corpus agree on the
   fingerprint and share checkpoints without forcing any sequence. *)
let fingerprint ~params db =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buf p;
      Buffer.add_char buf '|')
    params;
  Buffer.add_string buf (Seqdb.content_digest db);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- CRC32 (zlib polynomial), table-based --- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

(* --- record framing: 4-byte LE length, 4-byte LE CRC32, payload --- *)

let le32 buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let read_le32 s off =
  let b i = Char.code s.[off + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

(* --- record payload codec (FORMAT.md Appendix A) ---

   Every integer is an unsigned LEB128 varint over OCaml's 63-bit int:
   7 bits per byte, least significant group first, high bit set on every
   byte but the last, at most 9 bytes. A string is its length followed
   by its bytes. The decoder is a trust boundary — it reads whatever the
   disk hands back under a matching CRC — so it accepts only the
   canonical encoding (no overlong varints, no trailing bytes) and
   bounds every count by the bytes left before allocating. *)

let tag_root_done = 1
let tag_quarantined = 2
let tag_outcome = 3

let outcomes =
  Budget.
    [|
      Completed;
      Truncated;
      Deadline_exceeded;
      Memory_limit;
      Cancelled;
      Interrupted;
      Worker_failed;
    |]

let outcome_code o =
  let rec find i = if outcomes.(i) = o then i else find (i + 1) in
  find 0

let put_int buf v =
  let rec go v =
    if v lsr 7 = 0 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (v land 0x7F lor 0x80));
      go (v lsr 7)
    end
  in
  go v

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let encode_record record =
  let buf = Buffer.create 64 in
  (match record with
  | Root_done { root; results } ->
    put_int buf tag_root_done;
    put_int buf root;
    put_int buf (List.length results);
    List.iter
      (fun (r : Mined.t) ->
        put_int buf (Pattern.length r.pattern);
        List.iter (put_int buf) (Pattern.to_list r.pattern);
        put_int buf r.support)
      results
  | Root_quarantined { root; reason; backtrace } ->
    put_int buf tag_quarantined;
    put_int buf root;
    put_string buf reason;
    put_string buf backtrace
  | Run_outcome o ->
    put_int buf tag_outcome;
    put_int buf (outcome_code o));
  Buffer.contents buf

let decode_record payload =
  let fail msg = invalid_arg ("Checkpoint.decode_record: " ^ msg) in
  let n = String.length payload in
  let pos = ref 0 in
  let get_int () =
    let rec go acc shift =
      if !pos >= n then fail "truncated integer";
      let b = Char.code payload.[!pos] in
      incr pos;
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then begin
        if b = 0 && shift > 0 then fail "overlong integer";
        acc
      end
      else if shift >= 56 then fail "integer longer than 9 bytes"
      else go acc (shift + 7)
    in
    go 0 0
  in
  (* a count or length: every element it announces costs at least one
     more byte, so anything beyond the bytes left is a lie *)
  let get_count () =
    let c = get_int () in
    if c < 0 || c > n - !pos then fail "count exceeds payload";
    c
  in
  let get_string () =
    let len = get_count () in
    let s = String.sub payload !pos len in
    pos := !pos + len;
    s
  in
  let record =
    match get_int () with
    | t when t = tag_root_done ->
      let root = get_int () in
      let rec results k acc =
        if k = 0 then List.rev acc
        else begin
          let events = Array.make (get_count ()) 0 in
          for i = 0 to Array.length events - 1 do
            events.(i) <- get_int ()
          done;
          let support = get_int () in
          results (k - 1) ({ Mined.pattern = Pattern.of_array events; support } :: acc)
        end
      in
      Root_done { root; results = results (get_count ()) [] }
    | t when t = tag_quarantined ->
      let root = get_int () in
      let reason = get_string () in
      let backtrace = get_string () in
      Root_quarantined { root; reason; backtrace }
    | t when t = tag_outcome ->
      let code = get_int () in
      if code < 0 || code >= Array.length outcomes then fail "unknown outcome";
      Run_outcome outcomes.(code)
    | _ -> fail "unknown record tag"
  in
  if !pos <> n then fail "trailing bytes";
  record

let frame record =
  let payload = encode_record record in
  let buf = Buffer.create (String.length payload + 8) in
  le32 buf (String.length payload);
  le32 buf (crc32 payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let header_string fp = Printf.sprintf "%s\nv%d %s\n" magic version fp

(* An upper bound on a sane record payload; anything larger is framing
   garbage (a torn length field happens to decode huge). *)
let max_payload = 1 lsl 30

(* --- stale temp sweep --- *)

let temp_prefix = "rgs-ckpt"

let sweep_stale_temps dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter
      (fun name ->
        if
          String.length name >= String.length temp_prefix
          && String.sub name 0 (String.length temp_prefix) = temp_prefix
          && Filename.check_suffix name ".tmp"
        then begin
          let p = Filename.concat dir name in
          Log.debug (fun m -> m "removing stale checkpoint temp %s" p);
          try Sys.remove p with Sys_error _ -> ()
        end)
      entries

(* --- salvaging reader --- *)

let read_exactly ic n =
  let buf = Bytes.create n in
  let rec loop off =
    if off = n then `All (Bytes.unsafe_to_string buf)
    else
      match input ic buf off (n - off) with
      | 0 -> if off = 0 then `Eof else `Short
      | k -> loop (off + k)
  in
  loop 0

(* Read every intact record of the log; stop (without raising) at the
   first torn, truncated or CRC-failing frame — everything before it was
   written and flushed whole, which is the salvage guarantee. *)
let read_records ic =
  let records = ref [] in
  let consumed = ref 0 in
  let rec loop () =
    match read_exactly ic 8 with
    | `Eof -> `Clean
    | `Short -> `Torn
    | `All hdr -> (
      let len = read_le32 hdr 0 in
      let crc = read_le32 hdr 4 in
      if len <= 0 || len > max_payload then `Torn
      else
        match read_exactly ic len with
        | `Eof | `Short -> `Torn
        | `All payload ->
          if crc32 payload <> crc then `Torn
          else (
            match decode_record payload with
            | r ->
              records := r :: !records;
              consumed := !consumed + 8 + len;
              loop ()
            | exception Invalid_argument _ -> `Torn))
  in
  let ending = loop () in
  (List.rev !records, !consumed, ending)

let fold_records records =
  (* later records win per root: a quarantined root re-mined after
     [retry_quarantined] appends a fresh [Root_done] that supersedes its
     quarantine record *)
  let order = ref [] in
  let state : (Event.t, record) Hashtbl.t = Hashtbl.create 64 in
  let outcome = ref Budget.Completed in
  List.iter
    (fun r ->
      match r with
      | Root_done { root; _ } | Root_quarantined { root; _ } ->
        if not (Hashtbl.mem state root) then order := root :: !order;
        Hashtbl.replace state root r
      | Run_outcome o -> outcome := o)
    records;
  let completed, quarantined =
    List.fold_left
      (fun (c, q) root ->
        match Hashtbl.find state root with
        | Root_done e -> (e :: c, q)
        | Root_quarantined e -> (c, e :: q)
        | Run_outcome _ -> (c, q))
      ([], []) !order
  in
  (completed, quarantined, !outcome)

let load ~path ~expected_fingerprint =
  let ic =
    try open_in_bin path
    with Sys_error msg -> raise (Corrupt (Printf.sprintf "cannot open: %s" msg))
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      (match input_line ic with
      | m when m = magic -> ()
      | _ -> raise (Corrupt (path ^ ": not a checkpoint file"))
      | exception End_of_file -> raise (Corrupt (path ^ ": truncated file")));
      let fp =
        match input_line ic with
        | line -> (
          match Scanf.sscanf_opt line "v%d %s" (fun v fp -> (v, fp)) with
          | Some (v, fp) when v = version -> fp
          | Some (v, _) ->
            raise
              (Corrupt
                 (Printf.sprintf "%s: version %d, expected %d" path v version))
          | None ->
            raise
              (Corrupt
                 (Printf.sprintf
                    "%s: unrecognised header (a v1 whole-file checkpoint \
                     cannot be resumed; delete it and restart)"
                    path)))
        | exception End_of_file -> raise (Corrupt (path ^ ": truncated file"))
      in
      if fp <> expected_fingerprint then
        raise
          (Corrupt
             (path ^ ": fingerprint mismatch (different database or parameters)"));
      let good_start = pos_in ic in
      let records, consumed, ending = read_records ic in
      let salvaged_bytes =
        match ending with
        | `Clean -> 0
        | `Torn -> in_channel_length ic - good_start - consumed
      in
      let completed, quarantined, outcome = fold_records records in
      if salvaged_bytes > 0 then begin
        Metrics.add Metrics.checkpoint_salvaged_roots (List.length completed);
        Log.warn (fun m ->
            m "%s: torn tail (%d byte(s) dropped); salvaged %d completed root(s)"
              path salvaged_bytes (List.length completed))
      end;
      { fingerprint = fp; completed; quarantined; outcome; salvaged_bytes })

let load_opt ~path ~expected_fingerprint =
  if Sys.file_exists path then Some (load ~path ~expected_fingerprint) else None

let records_of t =
  List.map (fun e -> Root_done e) t.completed
  @ List.map (fun q -> Root_quarantined q) t.quarantined
  @ [ Run_outcome t.outcome ]

(* --- writer --- *)

module Writer = struct
  type w = {
    path : string;
    mutable oc : out_channel option;  (* [None] once closed *)
    mutable good_ofs : int;  (* bytes known flushed and whole *)
    mutable dirty : bool;  (* a failed write may have left a torn tail *)
    attempts : int;
    backoff_s : float;
    mutable jitter : int;  (* deterministic xorshift state *)
    trace : Trace.t;
    mutex : Mutex.t;
  }

  let next_jitter w =
    let x = w.jitter in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    w.jitter <- x land max_int;
    float_of_int (w.jitter land 0xFFFF) /. 65536.0

  let backoff w attempt =
    let base = w.backoff_s *. (2.0 ** float_of_int (attempt - 1)) in
    let d = base *. (0.5 +. next_jitter w) in
    if d > 0.0 then Unix.sleepf d

  let fsync oc =
    flush oc;
    Unix.fsync (Unix.descr_of_out_channel oc)

  (* One physical write attempt: heal any torn tail from a previous failed
     attempt (truncate back to the last whole record), then append, flush
     and fsync. The fault site fires first so tests can inject ENOSPC-like
     failures at exactly this boundary. *)
  let try_write w data =
    match w.oc with
    | None -> ()
    | Some oc ->
      Budget.Fault.fire Budget.Fault.Checkpoint_io;
      if w.dirty then begin
        Unix.ftruncate (Unix.descr_of_out_channel oc) w.good_ofs;
        seek_out oc w.good_ofs;
        w.dirty <- false
      end;
      output_string oc data;
      fsync oc;
      w.good_ofs <- w.good_ofs + String.length data;
      Metrics.hit Metrics.checkpoint_writes

  (* Retry loop shared by the header write and every append: exponential
     backoff with deterministic jitter, then degrade — the miner must keep
     mining even when the checkpoint disk is gone. *)
  let write_resilient w data =
    let rec go attempt =
      match try_write w data with
      | () -> true
      | exception e ->
        w.dirty <- true;
        if attempt >= w.attempts then begin
          Metrics.hit Metrics.checkpoint_io_failures;
          Trace.instant w.trace Trace.Checkpoint_retry ~a0:attempt ~a1:1;
          Log.err (fun m ->
              m "checkpoint write to %s failed after %d attempt(s): %s" w.path
                attempt (Printexc.to_string e));
          false
        end
        else begin
          Metrics.hit Metrics.checkpoint_io_retries;
          Trace.instant w.trace Trace.Checkpoint_retry ~a0:attempt ~a1:0;
          Log.warn (fun m ->
              m "checkpoint write to %s failed (%s); retrying" w.path
                (Printexc.to_string e));
          backoff w attempt;
          go (attempt + 1)
        end
    in
    go 1

  let locked w f =
    Mutex.lock w.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock w.mutex) f

  let create ?(attempts = 4) ?(backoff_s = 0.01) ?(trace = Trace.null)
      ?(initial = []) ~path ~fingerprint () =
    let dir = Filename.dirname path in
    sweep_stale_temps dir;
    let header = header_string fingerprint in
    let body =
      String.concat "" (header :: List.map (fun r -> frame r) initial)
    in
    let w =
      {
        path;
        oc = None;
        good_ofs = 0;
        dirty = false;
        attempts;
        backoff_s;
        jitter = 0x2545F491;
        trace;
        mutex = Mutex.create ();
      }
    in
    (* The initial image is written to a temp file and renamed into place,
       so an existing checkpoint is never half-overwritten; the open
       channel survives the rename and subsequent appends go to [path]. *)
    let open_attempt () =
      Budget.Fault.fire Budget.Fault.Checkpoint_io;
      let tmp = Filename.temp_file ~temp_dir:dir temp_prefix ".tmp" in
      match
        let oc = open_out_bin tmp in
        (try
           output_string oc body;
           fsync oc
         with e ->
           close_out_noerr oc;
           raise e);
        Sys.rename tmp path;
        oc
      with
      | oc ->
        w.oc <- Some oc;
        w.good_ofs <- String.length body;
        Metrics.hit Metrics.checkpoint_writes
      | exception e ->
        (try Sys.remove tmp with Sys_error _ -> ());
        raise e
    in
    let rec go attempt =
      match open_attempt () with
      | () -> ()
      | exception e ->
        if attempt >= w.attempts then begin
          Metrics.hit Metrics.checkpoint_io_failures;
          Trace.instant trace Trace.Checkpoint_retry ~a0:attempt ~a1:1;
          Log.err (fun m ->
              m "cannot create checkpoint %s after %d attempt(s): %s" path
                attempt (Printexc.to_string e))
        end
        else begin
          Metrics.hit Metrics.checkpoint_io_retries;
          Trace.instant trace Trace.Checkpoint_retry ~a0:attempt ~a1:0;
          backoff w attempt;
          go (attempt + 1)
        end
    in
    go 1;
    w

  let healthy w = w.oc <> None && not w.dirty

  let append w record =
    locked w (fun () -> ignore (write_resilient w (frame record)))

  let close w =
    locked w (fun () ->
        match w.oc with
        | None -> ()
        | Some oc ->
          w.oc <- None;
          (try fsync oc with _ -> ());
          close_out_noerr oc)
end

(* Whole-file convenience for callers without an incremental loop (tests
   and the fixture generator): one writer, every record, close. *)
let write ?(outcome = Budget.Completed) ~path ~fingerprint ~completed
    ~quarantined () =
  let initial =
    List.map (fun e -> Root_done e) completed
    @ List.map (fun q -> Root_quarantined q) quarantined
    @ [ Run_outcome outcome ]
  in
  let w = Writer.create ~initial ~path ~fingerprint () in
  Writer.close w
