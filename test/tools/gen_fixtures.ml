(* Regenerate the corrupt-fixture corpora under test/fixtures/.

   Usage: dune exec test/tools/gen_fixtures.exe -- test/fixtures

   Two corpora, both checked in:

   - *.ckpt — corrupt checkpoint logs: the salvage tests exercise the
     exact bytes a crash can leave behind. The record payloads use
     empty result lists, so the fixtures pin the framing and the record
     tags of FORMAT.md Appendix A. v2_log.ckpt is a genuine version-2
     log (Marshal payloads) that a version-3 reader must refuse.

   - *.rgsdb — corrupt binary stores: one intact store plus one mutant
     per FORMAT.md clause the open/verify paths enforce (the test names
     in test_store.ml cite the clause each fixture violates). The
     mutations are made with local little-endian/CRC-32 helpers mirroring
     FORMAT.md §1, not with the writer's internals, so regenerating them
     doubles as a second implementation of the framing spec.

   Rerun this tool (and re-commit) whenever either format changes; the
   runtest rule in test/dune (tools/check_fixtures.sh) fails while the
   committed corpus differs from what this tool writes. v1_store.rgsdb is
   not written here: it is the last version-1 store, frozen as committed. *)

open Rgs_core

let fingerprint = String.make 32 'a'

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* Split a checkpoint image into header + framed records, using the
   length field of each frame. *)
let frames_of image =
  let header_len = String.index_from image (String.index image '\n' + 1) '\n' + 1 in
  let header = String.sub image 0 header_len in
  let le32 off =
    let b i = Char.code image.[off + i] in
    b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
  in
  let rec split off acc =
    if off >= String.length image then List.rev acc
    else
      let len = 8 + le32 off in
      split (off + len) (String.sub image off len :: acc)
  in
  (header, split header_len [])

(* --- the .rgsdb corpus (FORMAT.md §1 helpers) --- *)

let crc32 s =
  let table =
    Array.init 256 (fun i ->
        let c = ref i in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  (!c lxor 0xFFFFFFFF) land 0xFFFFFFFF

let set_u32 b off v =
  for i = 0 to 3 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let set_u64 b off v =
  for i = 0 to 7 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let get_u64 (s : string) off =
  let b i = Char.code s.[off + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) lor (b 4 lsl 32)
  lor (b 5 lsl 40) lor (b 6 lsl 48) lor (b 7 lsl 56)

let flip b off = Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xFF))

(* table entries are 32 bytes from offset 64 (§3); the table CRC sits
   right after the last entry (§3.2), the header CRC at byte 60 (§2.3) *)
let entry_base i = 64 + (32 * i)

let reseal_header b = set_u32 b 60 (crc32 (Bytes.sub_string b 0 60))

let reseal_table count b =
  set_u32 b (entry_base count) (crc32 (Bytes.sub_string b 64 (32 * count)))

let gen_store_fixtures dir =
  (* four token sequences with a repeating 3-name alphabet: small enough
     to eyeball in xxd, rich enough that every section is non-empty *)
  let text =
    "login view buy\nview view login buy\nbuy login view\nlogin login buy view\n"
  in
  let db, codec = Rgs_sequence.Seq_io.parse_tokens text in
  let good = Filename.concat dir "good.rgsdb" in
  Rgs_store.Store.write ~codec ~path:good db;
  let image = read_file good in
  let count = get_u64 image 16 in
  let mutant name f =
    let b = Bytes.of_string image in
    f b;
    write_file (Filename.concat dir name) (Bytes.to_string b)
  in
  (* §2.1: not a store at all *)
  mutant "bad_magic.rgsdb" (fun b -> flip b 0);
  (* §2.2: version checked before the header CRC, so no reseal needed *)
  mutant "wrong_version.rgsdb" (fun b -> set_u32 b 8 99);
  (* §2.3: a flipped digest byte breaks the header CRC *)
  mutant "bad_header_crc.rgsdb" (fun b -> flip b 40);
  (* §3.1: a resealed header declaring more entries than the file holds *)
  mutant "truncated_table.rgsdb" (fun b ->
      set_u64 b 16 1_000_000;
      reseal_header b);
  (* §3.1 still, but via the overflow route: 32·2^59 wraps a 63-bit int,
     so a reader that multiplies before comparing would accept the count
     and then walk a wrapped table *)
  mutant "huge_count.rgsdb" (fun b ->
      set_u64 b 16 (1 lsl 59);
      reseal_header b);
  (* §3.2: a flipped reserved byte inside entry 0 breaks the table CRC *)
  mutant "bad_table_crc.rgsdb" (fun b -> flip b (entry_base 0 + 4));
  (* §3.3: EPOS (entry 6) renamed — the unknown tag is ignored, the
     required section is gone *)
  mutant "missing_section.rgsdb" (fun b ->
      Bytes.blit_string "XPOS" 0 b (entry_base 6) 4;
      reseal_table count b);
  (* §3.4: EVTS (entry 2) offset nudged off the 8-byte grid *)
  mutant "misaligned_section.rgsdb" (fun b ->
      set_u64 b (entry_base 2 + 8) (get_u64 image (entry_base 2 + 8) + 4);
      reseal_table count b);
  (* §3.5: a flipped byte inside the EVTS payload — open must succeed,
     verify must fail *)
  mutant "bad_payload_crc.rgsdb" (fun b ->
      flip b (get_u64 image (entry_base 2 + 8)));
  (* §2.5, one mutant per run-table clause. Each breaks a table a cursor
     indexes unchecked, and because §2.5 is a framing check the open must
     reject it even though the payload CRCs are deferred. The fixture has
     k = 3 events, each in all N = 4 sequences, so R = 12 runs. Word [j]
     of the section in table entry [i]: *)
  let word i j = get_u64 image (entry_base i + 8) + (8 * j) in
  (* EVRN (entry 3): the last word, R, raised past RSEQ's end *)
  mutant "bad_evrn.rgsdb" (fun b -> set_u64 b (word 3 3) 13);
  (* RSEQ (entry 4): event 0's last run names sequence N + 1 — still
     ascending, but outside [1, N] *)
  mutant "bad_rseq.rgsdb" (fun b -> set_u64 b (word 4 3) 5);
  (* ROFF (entry 5): the last word, the total length, raised past EPOS's
     end *)
  mutant "bad_roff.rgsdb" (fun b -> set_u64 b (word 5 12) 16);
  (* §3.6: NAME (entry 7, optional) renamed to an unknown tag — the store
     must still open, with no codec *)
  mutant "unknown_section.rgsdb" (fun b ->
      Bytes.blit_string "ZQQQ" 0 b (entry_base 7) 4;
      reseal_table count b);
  (* §3.6 again, adversarially: the unknown entry's offset/length point
     exabytes outside the file. Unknown sections are skipped wholesale,
     so both the open and a full verify must succeed without ever
     dereferencing them *)
  mutant "unknown_oob_section.rgsdb" (fun b ->
      Bytes.blit_string "ZOOB" 0 b (entry_base 7) 4;
      set_u64 b (entry_base 7 + 8) (1 lsl 40);
      set_u64 b (entry_base 7 + 16) (1 lsl 40);
      reseal_table count b);
  Printf.printf "wrote good.rgsdb + 14 mutant(s) to %s (%d sections)\n" dir count

(* The version-2 record layout, mirrored for Marshal: with empty result
   lists its marshalled bytes do not depend on what a result held, so
   this reproduces a log the version-2 writer left behind. The unused
   constructor keeps the block tags of the original variant. *)
type v2_entry = { root : int; results : unit list }

type v2_record =
  | V2_root_done of v2_entry
  | V2_quarantined of string [@warning "-37"]
  | V2_run_outcome of int  (* 0 = Completed, a constant constructor *)

let v2_log () =
  let frame r =
    let payload = Marshal.to_string (r : v2_record) [] in
    let b = Bytes.create 8 in
    set_u32 b 0 (String.length payload);
    set_u32 b 4 (crc32 payload);
    Bytes.to_string b ^ payload
  in
  String.concat ""
    (Printf.sprintf "RGS-CHECKPOINT\nv2 %s\n" fingerprint
    :: List.map frame
         [
           V2_root_done { root = 1; results = [] };
           V2_root_done { root = 2; results = [] };
           V2_root_done { root = 3; results = [] };
           V2_run_outcome 0;
         ])

let () =
  let dir = Sys.argv.(1) in
  let base = Filename.concat dir "full.ckpt" in
  let entry root = { Checkpoint.root; results = [] } in
  Checkpoint.write ~path:base ~fingerprint
    ~completed:[ entry 1; entry 2; entry 3 ]
    ~quarantined:[] ();
  let image = read_file base in
  let header, frames = frames_of image in
  let r1, r2, r3 =
    match frames with
    | [ a; b; c; _outcome ] -> (a, b, c)
    | _ -> failwith "expected 3 Root_done frames + 1 Run_outcome frame"
  in
  (* cut inside the third record's payload *)
  write_file
    (Filename.concat dir "truncated_mid_record.ckpt")
    (header ^ r1 ^ r2 ^ String.sub r3 0 (String.length r3 - 3));
  (* corrupt the CRC of the second record: only the first survives *)
  let bad = Bytes.of_string r2 in
  Bytes.set bad 4 (Char.chr (Char.code (Bytes.get bad 4) lxor 0xFF));
  write_file
    (Filename.concat dir "flipped_crc.ckpt")
    (header ^ r1 ^ Bytes.to_string bad ^ r3);
  write_file
    (Filename.concat dir "wrong_version.ckpt")
    (Printf.sprintf "RGS-CHECKPOINT\nv1 %s\n" fingerprint);
  write_file (Filename.concat dir "empty.ckpt") "";
  write_file (Filename.concat dir "v2_log.ckpt") (v2_log ());
  Printf.printf "wrote 6 fixture(s) to %s (fingerprint %s)\n" dir fingerprint;
  gen_store_fixtures dir
