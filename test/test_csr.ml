(* Differential suite for the inverted index's event-major run table.

   The contract is bit-identical behavior: on every database the index
   must answer positions/next/count_between exactly like a direct scan of
   the sequences, the monotone cursor must agree with repeated [next]
   calls however it is reseated, and the full miners must produce
   identical outputs. Each property runs on 100+ random databases.

   Every property runs on two indexes of the same database: the heap
   build, and the store round-trip — the database packed into a [.rgsdb]
   file, re-opened as a mapped Seqdb (lazy sequences, the pack-time run
   table used as mapped), and indexed through the same [build] entry.
   Every property holding on both pins the mapped read path to the heap
   one. *)

open Rgs_sequence
open Rgs_core

let indexes db = [ Inverted_index.build db; Inverted_index.build (Gens.mapped_db db) ]

let small_db = Gens.db ~num_seqs:6 ~alphabet:5 ~max_len:14

(* The oracle: positions of [e] in sequence [seq], collected by a direct
   scan of the sequence — no code shared with the index. *)
let scan_positions db ~seq e =
  let acc = ref [] in
  Sequence.iteri (fun p x -> if x = e then acc := p :: !acc) (Seqdb.seq db seq);
  Array.of_list (List.rev !acc)

let scan_next db ~seq e ~lowest =
  Array.fold_right
    (fun p acc -> if p > lowest then Some p else acc)
    (scan_positions db ~seq e) None

let scan_count_between db ~seq e ~lo ~hi =
  Array.fold_left
    (fun n p -> if lo < p && p < hi then n + 1 else n)
    0 (scan_positions db ~seq e)

let scan_events db =
  let acc = ref [] in
  Seqdb.iter (fun _ s -> Sequence.iteri (fun _ e -> acc := e :: !acc) s) db;
  List.sort_uniq compare !acc

let scan_occurrences db e =
  let n = ref 0 in
  Seqdb.iter (fun i _ -> n := !n + Array.length (scan_positions db ~seq:i e)) db;
  !n

(* positions / next / count_between / occurrence_count / events answer
   exactly as the direct scan on both indexes, including absent events. *)
let prop_queries_equal =
  Gens.make ~name:"heap = mapped = direct scan: queries" ~count:120
    small_db Gens.print_db (fun db ->
      let events = [ 0; 1; 2; 3; 4; 5; 99 ] (* 5 and 99 are absent *) in
      let frequent =
        List.filter (fun e -> scan_occurrences db e >= 3) (scan_events db)
      in
      List.for_all
        (fun idx ->
          Inverted_index.events idx = scan_events db
          && Inverted_index.frequent_events idx ~min_sup:3 = frequent
          && List.for_all
               (fun e ->
                 Inverted_index.occurrence_count idx e = scan_occurrences db e
                 &&
                 let ok = ref true in
                 Seqdb.iter
                   (fun i s ->
                     let n = Sequence.length s in
                     if
                       Inverted_index.positions idx ~seq:i e
                       <> scan_positions db ~seq:i e
                     then ok := false;
                     for lowest = 0 to n + 1 do
                       if
                         Inverted_index.next idx ~seq:i e ~lowest
                         <> scan_next db ~seq:i e ~lowest
                       then ok := false
                     done;
                     for lo = 0 to n do
                       if
                         Inverted_index.count_between idx ~seq:i e ~lo
                           ~hi:(lo + 5)
                         <> scan_count_between db ~seq:i e ~lo ~hi:(lo + 5)
                       then ok := false
                     done)
                   db;
                 !ok)
               events)
        (indexes db))

(* A monotone stream of seeks through a cursor returns exactly what
   repeated stateless [next] calls return, on both indexes. *)
let prop_cursor_equals_next =
  Gens.make ~name:"cursor seek = repeated next" ~count:120 small_db
    Gens.print_db (fun db ->
      List.for_all
        (fun idx ->
          let ok = ref true in
          List.iter
            (fun e ->
              Seqdb.iter
                (fun i s ->
                  let c = Inverted_index.cursor idx ~seq:i e in
                  for lowest = 0 to Sequence.length s + 1 do
                    if
                      Inverted_index.seek c ~lowest
                      <> Inverted_index.next idx ~seq:i e ~lowest
                    then ok := false
                  done;
                  Inverted_index.cursor_finish c)
                db)
            [ 0; 1; 2; 3; 4; 7 ];
          !ok)
        (indexes db))

(* One cursor reseated through any sequence order — forward jumps short
   and long (past the frontier walk, into its bisection), steps back,
   repeats — answers every seat's monotone seek stream exactly as the
   direct scan does, and the reseats themselves count nothing: the
   flushed [next_calls] equal the seeks made. Forty short sequences over
   four events give each event runs in most sequences. *)
let prop_reseat_any_order =
  Gens.make ~name:"reseated cursor = direct scan, any sequence order" ~count:120
    QCheck2.Gen.(
      pair
        (Gens.db ~num_seqs:40 ~alphabet:4 ~max_len:6)
        (list_size (int_range 1 12) (pair (int_bound 39) (int_bound 3))))
    (fun (db, seats) ->
      Printf.sprintf "%s\nseats: %s" (Gens.print_db db)
        (String.concat ";"
           (List.map (fun (s, step) -> Printf.sprintf "(%d,%d)" s step) seats)))
    (fun (db, seats) ->
      let n = Seqdb.size db in
      let seats = List.map (fun (s, step) -> (1 + (s mod n), step + 1)) seats in
      List.for_all
        (fun idx ->
          List.for_all
            (fun e ->
              let c = Inverted_index.cursor idx ~seq:(fst (List.hd seats)) e in
              let seeks = ref 0 in
              let before = Metrics.value Metrics.next_calls in
              let ok =
                List.for_all
                  (fun (i, step) ->
                    Inverted_index.reseat c ~seq:i;
                    let len = Sequence.length (Seqdb.seq db i) in
                    let rec go lowest =
                      lowest > len + 1
                      || begin
                        incr seeks;
                        Inverted_index.seek c ~lowest = scan_next db ~seq:i e ~lowest
                        && go (lowest + step)
                      end
                    in
                    go 0)
                  seats
              in
              Inverted_index.cursor_finish c;
              ok && Metrics.value Metrics.next_calls - before = !seeks)
            [ 0; 1; 2; 3; 7 ])
        (indexes db))

(* The run table's shape (FORMAT.md §4): one run per distinct
   (sequence, event) pair, [total + 2R + k + 2] words, and the mapped
   sections hold exactly the table the heap build makes. *)
let prop_run_table_shape =
  Gens.make ~name:"run table: one run per (sequence, event), mapped = heap"
    ~count:100 small_db Gens.print_db (fun db ->
      match indexes db with
      | [ heap; mapped ] ->
        let pairs =
          Seqdb.fold
            (fun acc i s ->
              List.fold_left
                (fun acc e -> (i, e) :: acc)
                acc
                (List.sort_uniq compare (Sequence.to_list s)))
            [] db
        in
        let r = List.length pairs in
        let h = Inverted_index.runs heap and m = Inverted_index.runs mapped in
        let words t =
          Ivec.length t.Seqdb.evrn + Ivec.length t.rseq + Ivec.length t.roff
          + Ivec.length t.epos
        in
        Ivec.length h.Seqdb.rseq = r
        && words h
           = Seqdb.total_length db + (2 * r) + Seqdb.alphabet_size db + 2
        && Ivec.equal h.evrn m.Seqdb.evrn
        && Ivec.equal h.rseq m.rseq
        && Ivec.equal h.roff m.roff
        && Ivec.equal h.epos m.epos
      | _ -> assert false)

(* Support-set growth agrees across indexes and stays well-formed. *)
let prop_grow_equal =
  Gens.make ~name:"Support_set.grow heap = mapped" ~count:120
    QCheck2.Gen.(pair small_db (Gens.pattern ~alphabet:5 ~max_len:4))
    Gens.print_db_pattern (fun (db, pat) ->
      match indexes db with
      | [ heap; mapped ] ->
        let grow_all idx =
          let sets = ref [] in
          let i = ref (Support_set.of_event idx (Pattern.get pat 1)) in
          sets := [ !i ];
          for j = 2 to Pattern.length pat do
            i := Support_set.grow idx !i (Pattern.get pat j);
            sets := !i :: !sets
          done;
          List.rev !sets
        in
        let on_heap = grow_all heap in
        List.for_all Support_set.well_formed on_heap
        && List.for_all2 Support_set.equal on_heap (grow_all mapped)
      | _ -> assert false)

let signatures results =
  List.map
    (fun r -> (Pattern.to_string r.Mined.pattern, r.Mined.support))
    results

(* Full-miner differential: GSgrow and CloGSgrow mine the exact same
   pattern set (same order, same supports) on both indexes. *)
let prop_miners_equal =
  Gens.make ~name:"GSgrow/CloGSgrow heap = mapped" ~count:100 small_db
    Gens.print_db (fun db ->
      match indexes db with
      | [ heap; mapped ] ->
        let all idx = signatures (fst (Engine.mine Gsgrow.strategy ~max_length:4 idx ~min_sup:2)) in
        let closed idx =
          signatures (fst (Engine.mine Gens.closed ~max_length:4 idx ~min_sup:2))
        in
        all heap = all mapped && closed heap = closed mapped
      | _ -> assert false)

(* Gap-constrained mining rides the same cursor path; cover it too. *)
let prop_gap_miner_equal =
  Gens.make ~name:"gap-constrained heap = mapped" ~count:100 small_db
    Gens.print_db (fun db ->
      match indexes db with
      | [ heap; mapped ] ->
        let mine idx =
          signatures
            (fst
               (Engine.mine ~max_length:4
                  (Gap_constrained.strategy ~min_gap:0 ~max_gap:2)
                  idx ~min_sup:2))
        in
        mine heap = mine mapped
      | _ -> assert false)

(* Deterministic end-to-end runs on generated trace data, closer to the
   bench workloads than the tiny qcheck databases. *)
let test_trace_miner_equivalence () =
  List.iter
    (fun seed ->
      let db =
        Rgs_datagen.Trace_gen.generate
          (Rgs_datagen.Trace_gen.params ~num_sequences:25 ~num_events:12 ~seed ())
      in
      let mine idx =
        ( signatures (fst (Engine.mine Gsgrow.strategy ~max_length:4 idx ~min_sup:6)),
          signatures (fst (Engine.mine Gens.closed ~max_length:4 idx ~min_sup:6)) )
      in
      let all_heap, closed_heap = mine (Inverted_index.build db) in
      let all_mapped, closed_mapped =
        mine (Inverted_index.build (Gens.mapped_db db))
      in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "gsgrow seed %d" seed)
        all_mapped all_heap;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "clogsgrow seed %d" seed)
        closed_mapped closed_heap;
      Alcotest.(check bool)
        (Printf.sprintf "nonempty seed %d" seed)
        true
        (List.length all_heap > 0))
    [ 1; 7; 42 ]

(* Alphabet interning unit checks: dense ids are ascending event rank;
   Direct vs Table lookup choice must not change answers. *)
let test_alphabet () =
  let db = Seqdb.of_strings [ "DBA"; "CAB" ] in
  let alpha = Seqdb.dense_alphabet db in
  Alcotest.(check int) "size" 4 (Alphabet.size alpha);
  Alcotest.(check (list int)) "events sorted"
    [ 0; 1; 2; 3 ]
    (Array.to_list (Alphabet.events alpha));
  Array.iteri
    (fun want e ->
      Alcotest.(check int) "dense roundtrip" want (Alphabet.dense alpha e);
      Alcotest.(check int) "event roundtrip" e (Alphabet.event alpha want))
    (Alphabet.events alpha);
  Alcotest.(check int) "absent" (-1) (Alphabet.dense alpha 9);
  Alcotest.(check bool) "mem" true (Alphabet.mem alpha 2);
  Alcotest.(check bool) "not mem" false (Alphabet.mem alpha 9);
  (* sparse ids force the hashtable fallback; semantics must match *)
  let sparse =
    Seqdb.of_sequences
      [ Sequence.of_list [ 1_000_000; 3; 1_000_000 ]; Sequence.of_list [ 3 ] ]
  in
  let a = Seqdb.dense_alphabet sparse in
  Alcotest.(check int) "sparse size" 2 (Alphabet.size a);
  Alcotest.(check int) "sparse dense 3" 0 (Alphabet.dense a 3);
  Alcotest.(check int) "sparse dense big" 1 (Alphabet.dense a 1_000_000);
  Alcotest.(check int) "sparse absent" (-1) (Alphabet.dense a 4)

let suite =
  [
    Alcotest.test_case "alphabet interning" `Quick test_alphabet;
    prop_queries_equal;
    prop_cursor_equals_next;
    prop_reseat_any_order;
    prop_run_table_shape;
    prop_grow_equal;
    prop_miners_equal;
    prop_gap_miner_equal;
    Alcotest.test_case "trace miner equivalence" `Quick test_trace_miner_equivalence;
  ]
