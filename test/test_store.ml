(* The .rgsdb binary store: round-trip fidelity, deterministic packing,
   zero-copy open semantics, and the corrupt-fixture corpus.

   Every corrupt fixture under test/fixtures/*.rgsdb (regenerated by
   test/tools/gen_fixtures.ml) violates exactly one FORMAT.md clause; the
   tests here assert the open/verify paths report that clause and no
   other, so the spec, the reader and the fixture generator stay three
   mutually-checking implementations of the same framing. *)

open Rgs_sequence
open Rgs_core
module Store = Rgs_store.Store

let fixture name =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "fixtures")
    name

(* the text gen_fixtures packed into good.rgsdb *)
let fixture_text =
  "login view buy\nview view login buy\nbuy login view\nlogin login buy view\n"

let with_tmp f =
  let path = Filename.temp_file "rgs_store" ".rgsdb" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_clause name clause fn =
  match fn () with
  | _ -> Alcotest.failf "%s: expected Invalid_store %s" name clause
  | exception Store.Invalid_store e ->
    Alcotest.(check string) (name ^ ": clause") clause e.clause;
    Alcotest.(check bool)
      (name ^ ": message cites clause")
      true
      (let msg = Store.error_message e in
       String.length msg > String.length clause
       && String.sub msg 10 (String.length clause) = clause)

(* --- corrupt corpus: one fixture per enforced clause --- *)

let test_fixture_bad_magic () =
  check_clause "bad_magic" "\xc2\xa72.1" (fun () ->
      Store.open_store (fixture "bad_magic.rgsdb"))

let test_fixture_wrong_version () =
  check_clause "wrong_version" "\xc2\xa72.2" (fun () ->
      Store.open_store (fixture "wrong_version.rgsdb"))

let test_fixture_bad_header_crc () =
  let before = Metrics.value Metrics.store_crc_failures in
  check_clause "bad_header_crc" "\xc2\xa72.3" (fun () ->
      Store.open_store (fixture "bad_header_crc.rgsdb"));
  Alcotest.(check bool) "crc failure counted" true
    (Metrics.value Metrics.store_crc_failures > before)

let test_fixture_truncated_table () =
  check_clause "truncated_table" "\xc2\xa73.1" (fun () ->
      Store.open_store (fixture "truncated_table.rgsdb"))

(* §3.1 by the overflow route: the header declares 2^59 sections, so
   32·count wraps a 63-bit int — the reader must bound the count by
   division before ever multiplying. *)
let test_fixture_huge_count () =
  check_clause "huge_count" "\xc2\xa73.1" (fun () ->
      Store.open_store (fixture "huge_count.rgsdb"))

let test_fixture_bad_table_crc () =
  check_clause "bad_table_crc" "\xc2\xa73.2" (fun () ->
      Store.open_store (fixture "bad_table_crc.rgsdb"))

let test_fixture_missing_section () =
  check_clause "missing_section" "\xc2\xa73.3" (fun () ->
      Store.open_store (fixture "missing_section.rgsdb"))

let test_fixture_misaligned_section () =
  check_clause "misaligned_section" "\xc2\xa73.4" (fun () ->
      Store.open_store (fixture "misaligned_section.rgsdb"))

(* §3.5 is the deferred check: the flipped payload byte must NOT fail the
   default open (framing is intact), must fail [verify] and an
   [~verify:true] open, and — since the corruption is in EVTS, not the
   header — the sealed digest still answers without touching it. *)
let test_fixture_bad_payload_crc () =
  let t = Store.open_store (fixture "bad_payload_crc.rgsdb") in
  Alcotest.(check bool) "framing-only open succeeds" true (Store.mapped_words t > 0);
  check_clause "verify" "\xc2\xa73.5" (fun () -> Store.verify t);
  check_clause "verifying open" "\xc2\xa73.5" (fun () ->
      Store.open_store ~verify:true (fixture "bad_payload_crc.rgsdb"))

(* §2.5 is a framing check, not a payload check: a run table that breaks
   one of its clauses must fail even the default non-verifying open,
   despite payload-CRC deferral — the cursors index RSEQ, ROFF and EPOS
   through these tables unchecked once mining starts. One fixture per
   clause; the reason names the broken section. *)
let check_run_table_fixture name section () =
  match Store.open_store (fixture name) with
  | _ -> Alcotest.failf "%s: expected Invalid_store \xc2\xa72.5" name
  | exception Store.Invalid_store e ->
    Alcotest.(check string) (name ^ ": clause") "\xc2\xa72.5" e.clause;
    Alcotest.(check bool)
      (Printf.sprintf "%s: reason %S names %s" name e.reason section)
      true (contains e.reason section)

(* §2.2: the last version-1 store (a sequence-major CSR layout, frozen as
   committed) is refused by its version before anything else is read. *)
let test_fixture_v1_store () =
  match Store.open_store (fixture "v1_store.rgsdb") with
  | _ -> Alcotest.fail "v1_store: expected Invalid_store \xc2\xa72.2"
  | exception Store.Invalid_store e ->
    Alcotest.(check string) "v1_store: clause" "\xc2\xa72.2" e.clause;
    Alcotest.(check bool)
      (Printf.sprintf "reason %S names version 1" e.reason)
      true (contains e.reason "unsupported version 1")

(* §3.6 forward compatibility: an unknown section tag is ignored, so the
   store opens — here the NAME section was renamed, so the codec is gone
   but the data is intact. *)
let test_fixture_unknown_section () =
  let db, codec = Store.open_db (fixture "unknown_section.rgsdb") in
  Alcotest.(check bool) "no codec" true (codec = None);
  let want, _ = Seq_io.parse_tokens fixture_text in
  Alcotest.(check bool) "data intact" true (Seqdb.equal want db)

(* §3.6, adversarially: the unknown entry's offset/length point exabytes
   outside the file. Unknown sections are skipped wholesale — never
   dereferenced — so the open AND a full payload verify must both
   succeed instead of reading past the mapping. *)
let test_fixture_unknown_oob_section () =
  let t = Store.open_store ~verify:true (fixture "unknown_oob_section.rgsdb") in
  Store.verify t;
  Alcotest.(check bool) "no codec" true (Store.codec t = None);
  let want, _ = Seq_io.parse_tokens fixture_text in
  Alcotest.(check bool) "data intact" true (Seqdb.equal want (Store.db t))

let test_fixture_good () =
  let t = Store.open_store ~verify:true (fixture "good.rgsdb") in
  let db = Store.db t in
  let want, want_codec = Seq_io.parse_tokens fixture_text in
  Alcotest.(check bool) "mapped" true (Seqdb.is_mapped db);
  Alcotest.(check bool) "db equal" true (Seqdb.equal want db);
  Alcotest.(check string) "sealed digest = content digest"
    (Seqdb.content_digest want) (Store.digest t);
  (match Store.codec t with
  | None -> Alcotest.fail "expected a NAME codec"
  | Some c ->
    List.iter
      (fun e ->
        Alcotest.(check string) "event name" (Codec.name want_codec e) (Codec.name c e))
      (Codec.alphabet want_codec));
  Alcotest.(check (list string)) "sections in order"
    [ "ALPH"; "SQOF"; "EVTS"; "EVRN"; "RSEQ"; "ROFF"; "EPOS"; "NAME" ]
    (List.map fst (Store.sections t))

(* --- round-trip properties --- *)

let prop_roundtrip =
  Gens.make ~name:"write/open round-trip" ~count:100
    (Gens.db ~num_seqs:8 ~alphabet:6 ~max_len:16)
    Gens.print_db (fun db ->
      with_tmp (fun path ->
          Store.write ~path db;
          let mapped, codec = Store.open_db path in
          codec = None
          && Seqdb.is_mapped mapped
          && Seqdb.equal db mapped
          && Seqdb.content_digest db = Seqdb.content_digest mapped
          && Seqdb.stats db = Seqdb.stats mapped
          && Seqdb.total_length db = Seqdb.total_length mapped))

(* Packing is a pure function of content: same corpus -> same bytes,
   whether packed from the heap database or from a mapped store of it. *)
let prop_deterministic_pack =
  Gens.make ~name:"byte-identical re-pack (heap and mapped)" ~count:50
    (Gens.db ~num_seqs:8 ~alphabet:6 ~max_len:16)
    Gens.print_db (fun db ->
      with_tmp (fun p1 ->
          with_tmp (fun p2 ->
              with_tmp (fun p3 ->
                  Store.write ~path:p1 db;
                  Store.write ~path:p2 db;
                  let mapped, _ = Store.open_db p1 in
                  Store.write ~path:p3 mapped;
                  let b1 = read_file p1 in
                  b1 = read_file p2 && b1 = read_file p3))))

(* Text and store runs of one corpus must agree on the checkpoint
   fingerprint — that is what lets them share checkpoint logs. *)
let test_fingerprint_cross_path () =
  let db, _ = Seq_io.parse_tokens fixture_text in
  let mapped, _ = Store.open_db (fixture "good.rgsdb") in
  let params = [ "closed"; "min_sup=2"; "max_length=4" ] in
  Alcotest.(check string) "fingerprint"
    (Checkpoint.fingerprint ~params db)
    (Checkpoint.fingerprint ~params mapped)

let test_empty_db () =
  with_tmp (fun path ->
      let db = Seqdb.of_sequences [] in
      Store.write ~path db;
      let t = Store.open_store ~verify:true path in
      Alcotest.(check int) "size" 0 (Seqdb.size (Store.db t));
      Alcotest.(check bool) "equal" true (Seqdb.equal db (Store.db t)))

(* Sequences materialise lazily: opening maps everything but copies
   nothing; forcing one sequence makes only that sequence resident. *)
let test_lazy_materialisation () =
  let before = Metrics.value Metrics.store_resident_words in
  let mapped, _ = Store.open_db (fixture "good.rgsdb") in
  Alcotest.(check int) "open copies nothing" before
    (Metrics.value Metrics.store_resident_words);
  let s = Seqdb.seq mapped 2 in
  let grown = Metrics.value Metrics.store_resident_words - before in
  Alcotest.(check int) "one sequence resident" (Sequence.length s) grown;
  let (_ : Sequence.t) = Seqdb.seq mapped 2 in
  Alcotest.(check int) "cached, not re-copied" (Sequence.length s)
    (Metrics.value Metrics.store_resident_words - before)

(* Closure checks read dense views, not sequences: on a store the view
   is built from the mapped events, once, and equals the heap database's
   view of the same corpus. *)
let test_dense_views () =
  let heap, _ = Seq_io.parse_tokens fixture_text in
  let mapped, _ = Store.open_db (fixture "good.rgsdb") in
  let before = Metrics.value Metrics.store_resident_words in
  let v = Seqdb.dense_seq mapped 2 in
  Alcotest.(check (array int)) "mapped view = heap view" (Seqdb.dense_seq heap 2) v;
  Alcotest.(check int) "one view resident" (Array.length v)
    (Metrics.value Metrics.store_resident_words - before);
  Alcotest.(check bool) "cached" true (Seqdb.dense_seq mapped 2 == v);
  let alpha = Seqdb.dense_alphabet heap in
  Alcotest.(check (array int)) "dense ids of the sequence"
    (Array.map (Alphabet.dense alpha) (Sequence.to_array (Seqdb.seq heap 2)))
    v

let test_open_metrics_and_trace () =
  let opens = Metrics.value Metrics.store_opens in
  let checks = Metrics.value Metrics.store_crc_checks in
  let trace = Trace.create ~level:Trace.Roots () in
  let t = Store.open_store ~trace (fixture "good.rgsdb") in
  Alcotest.(check int) "store_opens" (opens + 1) (Metrics.value Metrics.store_opens);
  Alcotest.(check bool) "mapped words gauge" true
    (Metrics.value Metrics.store_mapped_words >= Store.mapped_words t);
  Store.verify ~trace t;
  Alcotest.(check bool) "verify counts every section" true
    (Metrics.value Metrics.store_crc_checks
     >= checks + 2 + List.length (Store.sections t));
  let kinds = Trace.counts trace in
  Alcotest.(check int) "one Store_map instant" 1
    (try List.assoc Trace.Store_map kinds with Not_found -> 0);
  Alcotest.(check int) "one Store_crc instant per section"
    (List.length (Store.sections t))
    (try List.assoc Trace.Store_crc kinds with Not_found -> 0)

(* The daemon preloads --store paths with full verification and serves
   .rgsdb File jobs from the shared cache. *)
let test_daemon_preload () =
  (match Rgs_server.Job.preload_store (fixture "good.rgsdb") with
  | Ok db -> Alcotest.(check int) "preloaded size" 4 (Seqdb.size db)
  | Error msg -> Alcotest.failf "preload failed: %s" msg);
  match Rgs_server.Job.preload_store (fixture "bad_payload_crc.rgsdb") with
  | Ok _ -> Alcotest.fail "corrupt store preloaded"
  | Error msg ->
    Alcotest.(check bool) "error cites \xc2\xa73.5" true
      (contains msg "\xc2\xa73.5")

let suite =
  [
    Alcotest.test_case "fixture: good store opens" `Quick test_fixture_good;
    Alcotest.test_case "fixture: bad magic (\xc2\xa72.1)" `Quick test_fixture_bad_magic;
    Alcotest.test_case "fixture: wrong version (\xc2\xa72.2)" `Quick
      test_fixture_wrong_version;
    Alcotest.test_case "fixture: bad header CRC (\xc2\xa72.3)" `Quick
      test_fixture_bad_header_crc;
    Alcotest.test_case "fixture: truncated table (\xc2\xa73.1)" `Quick
      test_fixture_truncated_table;
    Alcotest.test_case "fixture: huge section count (\xc2\xa73.1)" `Quick
      test_fixture_huge_count;
    Alcotest.test_case "fixture: bad table CRC (\xc2\xa73.2)" `Quick
      test_fixture_bad_table_crc;
    Alcotest.test_case "fixture: missing section (\xc2\xa73.3)" `Quick
      test_fixture_missing_section;
    Alcotest.test_case "fixture: misaligned section (\xc2\xa73.4)" `Quick
      test_fixture_misaligned_section;
    Alcotest.test_case "fixture: bad payload CRC (\xc2\xa73.5)" `Quick
      test_fixture_bad_payload_crc;
    Alcotest.test_case "fixture: v1 store refused by version (\xc2\xa72.2)" `Quick
      test_fixture_v1_store;
    Alcotest.test_case "fixture: EVRN overruns RSEQ (\xc2\xa72.5)" `Quick
      (check_run_table_fixture "bad_evrn.rgsdb" "EVRN");
    Alcotest.test_case "fixture: RSEQ outside [1, N] (\xc2\xa72.5)" `Quick
      (check_run_table_fixture "bad_rseq.rgsdb" "RSEQ");
    Alcotest.test_case "fixture: ROFF overruns EPOS (\xc2\xa72.5)" `Quick
      (check_run_table_fixture "bad_roff.rgsdb" "ROFF");
    Alcotest.test_case "fixture: unknown section ignored (\xc2\xa73.6)" `Quick
      test_fixture_unknown_section;
    Alcotest.test_case "fixture: unknown section with OOB bounds (\xc2\xa73.6)"
      `Quick test_fixture_unknown_oob_section;
    prop_roundtrip;
    prop_deterministic_pack;
    Alcotest.test_case "fingerprint shared across text/store" `Quick
      test_fingerprint_cross_path;
    Alcotest.test_case "empty database round-trip" `Quick test_empty_db;
    Alcotest.test_case "lazy sequence materialisation" `Quick
      test_lazy_materialisation;
    Alcotest.test_case "dense views of a mapped store" `Quick test_dense_views;
    Alcotest.test_case "open metrics and trace instants" `Quick
      test_open_metrics_and_trace;
    Alcotest.test_case "daemon store preload" `Quick test_daemon_preload;
  ]
