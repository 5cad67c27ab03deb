open Rgs_sequence

(* On-disk framing constants. FORMAT.md is the normative spec; every
   numeric below (offsets, sizes, the magic) restates a clause there and
   the error paths cite the clause they enforce. *)
let magic = "\x89RGSDB\r\n" (* §2.1 *)
let version = 2 (* §2.2 *)
let header_bytes = 64 (* §2 *)
let table_entry_bytes = 32 (* §3 *)

let sec_alph = "ALPH"
let sec_sqof = "SQOF"
let sec_evts = "EVTS"
let sec_evrn = "EVRN"
let sec_rseq = "RSEQ"
let sec_roff = "ROFF"
let sec_epos = "EPOS"
let sec_name = "NAME"

let required_sections =
  [ sec_alph; sec_sqof; sec_evts; sec_evrn; sec_rseq; sec_roff; sec_epos ]

(* The tags this reader interprets. Everything else is a §3.6 unknown
   section: skipped wholesale, so its offset/length are never trusted —
   in particular never used to address the mapping (verify included). *)
let known_tags = sec_name :: required_sections

type error = { clause : string; reason : string }

exception Invalid_store of error

let error_message e = Printf.sprintf "FORMAT.md %s: %s" e.clause e.reason

let invalid clause fmt =
  Printf.ksprintf (fun reason -> raise (Invalid_store { clause; reason })) fmt

(* CRC-32 (§1.4) is [Wire]'s, over both strings (writer) and mapped byte
   sections (verifier) *)

type bytes_map = Wire.bytes_map

(* --- little-endian primitives (§1.2) --- *)

let buf_u32 buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let buf_u64 buf v =
  (* OCaml ints are 63-bit; the top byte is the sign-extended bit 62,
     which §1.3 constrains to 0 for all stored values *)
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let map_u32 (m : bytes_map) off =
  let b i = Char.code (Bigarray.Array1.get m (off + i)) in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let map_u64 (m : bytes_map) off =
  let b i = Char.code (Bigarray.Array1.get m (off + i)) in
  let lo = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  let hi = b 4 lor (b 5 lsl 8) lor (b 6 lsl 16) lor (b 7 lsl 24) in
  if hi land 0x8000_0000 <> 0 || hi land 0x4000_0000 <> 0 then
    invalid "§1.3" "stored integer exceeds the [0, 2^62) value range";
  lo lor (hi lsl 32)

let map_string (m : bytes_map) ~pos ~len =
  String.init len (fun i -> Bigarray.Array1.get m (pos + i))

(* --- writer --- *)

let ints_payload count get =
  let buf = Buffer.create ((8 * count) + 8) in
  for i = 0 to count - 1 do
    buf_u64 buf (get i)
  done;
  Buffer.contents buf

let ivec_payload v = ints_payload (Ivec.length v) (Ivec.get v)

let pad8 n = (8 - (n land 7)) land 7

let write ?codec ~path db =
  let alpha = Seqdb.dense_alphabet db in
  let events = Alphabet.events alpha in
  let n = Seqdb.size db in
  let alph = ints_payload (Array.length events) (Array.get events) in
  let sqof =
    let offs = Array.make (n + 1) 0 in
    Seqdb.iter (fun i s -> offs.(i) <- offs.(i - 1) + Sequence.length s) db;
    ints_payload (n + 1) (Array.get offs)
  in
  let evts =
    let buf = Buffer.create 4096 in
    Seqdb.iter (fun _ s -> Sequence.iteri (fun _ e -> buf_u64 buf e) s) db;
    Buffer.contents buf
  in
  (* the index's own run table: built here at pack time (or, for a mapped
     database, its mapped sections) so opens never build it *)
  let { Seqdb.evrn; rseq; roff; epos } = Inverted_index.runs (Inverted_index.build db) in
  let sections =
    [ (sec_alph, alph); (sec_sqof, sqof); (sec_evts, evts);
      (sec_evrn, ivec_payload evrn); (sec_rseq, ivec_payload rseq);
      (sec_roff, ivec_payload roff); (sec_epos, ivec_payload epos) ]
    @
    match codec with
    | None -> []
    | Some c ->
      let names =
        List.map
          (fun e ->
            let name = Codec.name c e in
            if String.contains name '\n' then
              invalid_arg "Store.write: event name contains a newline";
            name)
          (Codec.alphabet c)
      in
      [ (sec_name, String.concat "\n" names) ]
  in
  let count = List.length sections in
  let payload_base = header_bytes + (table_entry_bytes * count) + 8 in
  (* section table + payload area, §3 *)
  let table_buf = Buffer.create (table_entry_bytes * count) in
  let body_buf = Buffer.create 4096 in
  let off = ref payload_base in
  List.iter
    (fun (tag, payload) ->
      Buffer.add_string table_buf tag;
      buf_u32 table_buf 0;
      buf_u64 table_buf !off;
      buf_u64 table_buf (String.length payload);
      buf_u32 table_buf (Wire.crc32 payload);
      buf_u32 table_buf 0;
      Buffer.add_string body_buf payload;
      let pad = pad8 (String.length payload) in
      Buffer.add_string body_buf (String.make pad '\000');
      off := !off + String.length payload + pad)
    sections;
  let table = Buffer.contents table_buf in
  let file_size = !off in
  (* header, §2 *)
  let header_buf = Buffer.create header_bytes in
  Buffer.add_string header_buf magic;
  buf_u32 header_buf version;
  buf_u32 header_buf 0 (* flags, §2.2 *);
  buf_u64 header_buf count;
  buf_u64 header_buf file_size;
  Buffer.add_string header_buf (Digest.from_hex (Seqdb.content_digest db));
  buf_u64 header_buf 0 (* reserved *);
  buf_u32 header_buf 0 (* reserved *);
  let header_prefix = Buffer.contents header_buf in
  assert (String.length header_prefix = header_bytes - 4);
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc header_prefix;
      let crc_buf = Buffer.create 4 in
      buf_u32 crc_buf (Wire.crc32 header_prefix);
      output_string oc (Buffer.contents crc_buf);
      output_string oc table;
      let tcrc_buf = Buffer.create 8 in
      buf_u32 tcrc_buf (Wire.crc32 table);
      buf_u32 tcrc_buf 0;
      output_string oc (Buffer.contents tcrc_buf);
      Buffer.output_buffer oc body_buf;
      (* durability before the rename: without the fsync a crash can
         publish an empty or truncated file at the final path (§6) *)
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  (* seal the rename itself; directory fsync is best-effort — some
     filesystems refuse it, and the file contents are already durable *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dirfd ->
    Fun.protect
      ~finally:(fun () -> Unix.close dirfd)
      (fun () -> try Unix.fsync dirfd with Unix.Unix_error _ -> ())

(* --- opener --- *)

type section = { tag : string; s_off : int; s_len : int; s_crc : int }

type t = {
  path : string;
  bytes : bytes_map; (* whole-file read-only mapping, used by [verify] *)
  secs : section list;
  store_db : Seqdb.t;
  store_codec : Codec.t option;
  store_digest : string;
  words : int;
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let map_section fd { s_off; s_len; _ } =
  if s_len = 0 then Ivec.empty
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int s_off) Bigarray.int Bigarray.c_layout
         false
         [| s_len / 8 |])

let find_section secs tag =
  match List.filter (fun s -> s.tag = tag) secs with
  | [ s ] -> s
  | [] -> invalid "§3.3" "required section %s is missing" tag
  | _ -> invalid "§3.3" "section %s appears more than once" tag

let check_int_section file_size s =
  if s.s_off land 7 <> 0 then
    invalid "§3.4" "section %s starts at unaligned offset %d" s.tag s.s_off;
  if s.s_len land 7 <> 0 then
    invalid "§3.4" "section %s has non-integral length %d" s.tag s.s_len;
  if s.s_off < header_bytes || s.s_off + s.s_len > file_size then
    invalid "§3.4" "section %s [%d, %d) lies outside the file" s.tag s.s_off
      (s.s_off + s.s_len)

let verify_section ?(trace = Trace.null) bytes s =
  Metrics.hit Metrics.store_crc_checks;
  let crc = Wire.crc32_map bytes ~pos:s.s_off ~len:s.s_len in
  let ok = crc = s.s_crc in
  Trace.instant trace Trace.Store_crc
    ~a0:(if s.tag = "" then 0 else Char.code s.tag.[0])
    ~a1:(if ok then 1 else 0);
  if not ok then begin
    Metrics.hit Metrics.store_crc_failures;
    invalid "§3.5" "section %s payload CRC mismatch (stored %08x, computed %08x)"
      s.tag s.s_crc crc
  end

(* Only recognised sections are CRC'd: an unknown section is skipped
   wholesale per §3.6, and its table entry's offset/length — attacker-
   or future-writer-controlled, with no bounds clause of their own —
   must never drive a read of the mapping. Recognised sections were
   bounds-checked against the file size at open (§3.4). *)
let known_secs t = List.filter (fun s -> List.mem s.tag known_tags) t.secs

let verify ?trace t = List.iter (verify_section ?trace t.bytes) (known_secs t)

let open_store ?(verify = false) ?(trace = Trace.null) path =
  if Sys.big_endian then
    invalid "§1.2" "the .rgsdb format is little-endian; big-endian hosts are unsupported by this reader";
  let t0 = now_ns () in
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let file_size = (Unix.fstat fd).Unix.st_size in
      if file_size < header_bytes then
        invalid "§2.1" "file is %d byte(s), shorter than the %d-byte header"
          file_size header_bytes;
      let bytes : bytes_map =
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| file_size |])
      in
      if map_string bytes ~pos:0 ~len:8 <> magic then
        invalid "§2.1" "bad magic (not a .rgsdb file)";
      let v = map_u32 bytes 8 in
      if v <> version then
        invalid "§2.2" "unsupported version %d (this reader implements version %d)"
          v version;
      let flags = map_u32 bytes 12 in
      if flags <> 0 then invalid "§2.2" "unknown header flags %#x" flags;
      let stored_header_crc = map_u32 bytes (header_bytes - 4) in
      let header_crc = Wire.crc32_map bytes ~pos:0 ~len:(header_bytes - 4) in
      if stored_header_crc <> header_crc then begin
        Metrics.hit Metrics.store_crc_failures;
        invalid "§2.3" "header CRC mismatch (stored %08x, computed %08x)"
          stored_header_crc header_crc
      end;
      Metrics.hit Metrics.store_crc_checks;
      let count = map_u64 bytes 16 in
      let declared_size = map_u64 bytes 24 in
      if declared_size <> file_size then
        invalid "§2.1" "header declares %d bytes but the file has %d (truncated or padded)"
          declared_size file_size;
      let digest_raw = map_string bytes ~pos:32 ~len:16 in
      let table_off = header_bytes in
      (* divide, don't multiply: count is attacker-controlled up to
         2^62-1 (§1.3) and [table_entry_bytes * count] can wrap a 63-bit
         int, sneaking a huge table past the §3.1 bound below *)
      if count > (file_size - table_off - 8) / table_entry_bytes then
        invalid "§3.1" "section table truncated: %d entries cannot fit in %d bytes"
          count (file_size - table_off);
      let table_len = table_entry_bytes * count in
      if table_off + table_len + 8 > file_size then
        invalid "§3.1" "section table truncated: %d entries need %d bytes, file has %d"
          count (table_len + 8) (file_size - table_off);
      let stored_table_crc = map_u32 bytes (table_off + table_len) in
      let table_crc = Wire.crc32_map bytes ~pos:table_off ~len:table_len in
      if stored_table_crc <> table_crc then begin
        Metrics.hit Metrics.store_crc_failures;
        invalid "§3.2" "section table CRC mismatch (stored %08x, computed %08x)"
          stored_table_crc table_crc
      end;
      Metrics.hit Metrics.store_crc_checks;
      let secs =
        List.init count (fun i ->
            let off = table_off + (i * table_entry_bytes) in
            {
              tag = map_string bytes ~pos:off ~len:4;
              s_off = map_u64 bytes (off + 8);
              s_len = map_u64 bytes (off + 16);
              s_crc = map_u32 bytes (off + 24);
            })
      in
      let required = List.map (find_section secs) required_sections in
      List.iter (check_int_section file_size) required;
      let alph, sqof, evts, runs =
        match List.map (map_section fd) required with
        | [ alph; sqof; evts; evrn; rseq; roff; epos ] ->
          (alph, sqof, evts, { Seqdb.evrn; rseq; roff; epos })
        | _ -> assert false
      in
      if Ivec.length sqof = 0 then
        invalid "§2.5" "SQOF must hold at least one offset (N+1 entries)";
      let alpha =
        try Alphabet.of_events (Ivec.to_array alph)
        with Invalid_argument _ ->
          invalid "§2.4" "ALPH events are not strictly ascending"
      in
      let store_db =
        try
          Seqdb.of_store ~alpha ~seq_offsets:sqof ~events:evts ~runs
            ~digest:(Digest.to_hex digest_raw)
        with Invalid_argument reason -> invalid "§2.5" "%s" reason
      in
      let store_codec =
        (* §3.3 also binds NAME: at most one. A second entry would skip
           the bounds check below yet be CRC'd by [verify] as a known
           tag, reopening the very hole [known_secs] closes. *)
        match List.filter (fun s -> s.tag = sec_name) secs with
        | [] -> None
        | _ :: _ :: _ ->
          invalid "§3.3" "section %s appears more than once" sec_name
        | [ s ] ->
          if s.s_off < header_bytes || s.s_off + s.s_len > file_size then
            invalid "§3.4" "section %s [%d, %d) lies outside the file" s.tag
              s.s_off (s.s_off + s.s_len);
          let blob = map_string bytes ~pos:s.s_off ~len:s.s_len in
          let names = if blob = "" then [] else String.split_on_char '\n' blob in
          if List.length names < Alphabet.size alpha then
            invalid "§2.6" "NAME holds %d name(s) for an alphabet of %d"
              (List.length names) (Alphabet.size alpha);
          Some (Codec.of_names names)
      in
      let words =
        List.fold_left (fun w s -> w + (s.s_len / 8)) 0 required
      in
      let t =
        {
          path;
          bytes;
          secs;
          store_db;
          store_codec;
          store_digest = Digest.to_hex digest_raw;
          words;
        }
      in
      if verify then List.iter (verify_section ~trace bytes) (known_secs t);
      let dt = now_ns () - t0 in
      Metrics.hit Metrics.store_opens;
      Metrics.add Metrics.store_open_ns dt;
      Metrics.observe_max Metrics.store_mapped_words words;
      Trace.instant trace Trace.Store_map ~a0:words ~a1:(dt / 1000);
      t)

let db t = t.store_db
let codec t = t.store_codec
let digest t = t.store_digest
let mapped_words t = t.words
let path t = t.path
let sections t = List.map (fun s -> (s.tag, s.s_len / 8)) t.secs

let open_db ?verify ?trace path =
  let t = open_store ?verify ?trace path in
  (db t, codec t)
