(* Tests for the B+-tree position store and the B-tree-backed index
   (Section III-D's memory-constrained alternative). *)

open Rgs_sequence

let test_build_and_list () =
  let keys = Array.init 100 (fun i -> (i * 3) + 1) in
  let t = Btree.of_sorted_array ~fanout:4 keys in
  Alcotest.(check int) "length" 100 (Btree.length t);
  Alcotest.(check (list int)) "roundtrip" (Array.to_list keys) (Btree.to_list t);
  Alcotest.(check bool) "multi-level" true (Btree.depth t > 1)

let test_empty_and_single () =
  let empty = Btree.of_sorted_array [||] in
  Alcotest.(check int) "empty length" 0 (Btree.length empty);
  Alcotest.(check (option int)) "empty successor" None (Btree.successor empty 0);
  Alcotest.(check int) "empty count" 0 (Btree.count_in empty ~lo:0 ~hi:10);
  let one = Btree.of_sorted_array [| 5 |] in
  Alcotest.(check (option int)) "single successor" (Some 5) (Btree.successor one 0);
  Alcotest.(check (option int)) "single successor above" None (Btree.successor one 5);
  Alcotest.(check int) "depth 1" 1 (Btree.depth one)

let test_validation () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Btree.of_sorted_array: keys must be strictly increasing")
    (fun () -> ignore (Btree.of_sorted_array [| 3; 2 |]));
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Btree.of_sorted_array: keys must be strictly increasing")
    (fun () -> ignore (Btree.of_sorted_array [| 2; 2 |]));
  Alcotest.check_raises "fanout"
    (Invalid_argument "Btree.of_sorted_array: fanout < 2") (fun () ->
      ignore (Btree.of_sorted_array ~fanout:1 [| 1 |]))

(* successor / rank / mem agree with linear scans, across fanouts *)
let test_queries_exhaustive () =
  List.iter
    (fun fanout ->
      let keys = Array.of_list [ 2; 3; 5; 8; 13; 21; 34; 55; 89; 144; 233 ] in
      let t = Btree.of_sorted_array ~fanout keys in
      for k = 0 to 250 do
        let expected = Array.fold_left (fun acc x -> if x > k then min acc x else acc) max_int keys in
        let expected = if expected = max_int then None else Some expected in
        Alcotest.(check (option int)) (Printf.sprintf "succ f%d k%d" fanout k)
          expected (Btree.successor t k);
        Alcotest.(check bool) (Printf.sprintf "mem f%d k%d" fanout k)
          (Array.exists (fun x -> x = k) keys)
          (Btree.mem t k)
      done;
      for lo = 0 to 50 do
        for hi = lo to 60 do
          let expected =
            Array.fold_left (fun acc x -> if x > lo && x < hi then acc + 1 else acc) 0 keys
          in
          Alcotest.(check int) (Printf.sprintf "count f%d (%d,%d)" fanout lo hi)
            expected (Btree.count_in t ~lo ~hi)
        done
      done)
    [ 2; 3; 4; 16; 64 ]

let test_to_array () =
  Alcotest.(check (list int)) "empty" []
    (Array.to_list (Btree.to_array (Btree.of_sorted_array [||])));
  List.iter
    (fun fanout ->
      List.iter
        (fun n ->
          let keys = Array.init n (fun i -> (i * 2) + 1) in
          let t = Btree.of_sorted_array ~fanout keys in
          let arr = Btree.to_array t in
          Alcotest.(check (list int))
            (Printf.sprintf "f%d n%d" fanout n)
            (Array.to_list keys) (Array.to_list arr);
          (* fresh array, not a view into the tree *)
          if n > 0 then begin
            arr.(0) <- -1;
            Alcotest.(check (list int))
              (Printf.sprintf "f%d n%d unaliased" fanout n)
              (Array.to_list keys)
              (Array.to_list (Btree.to_array t))
          end)
        [ 0; 1; 2; 7; 64; 257 ])
    [ 2; 3; 16 ]

(* qcheck: tree queries = array binary-search queries on random key sets *)
let prop_btree_equals_array =
  let gen =
    QCheck2.Gen.(
      pair (list_size (int_bound 60) (int_bound 200)) (int_bound 8 >|= fun f -> f + 2))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"btree = sorted array semantics" ~count:300
       ~print:(fun (keys, fanout) ->
         Printf.sprintf "keys=[%s] fanout=%d"
           (String.concat ";" (List.map string_of_int keys))
           fanout)
       gen
       (fun (keys, fanout) ->
         let sorted = List.sort_uniq compare keys in
         let arr = Array.of_list sorted in
         let t = Btree.of_sorted_array ~fanout arr in
         Btree.to_list t = sorted
         && List.for_all
              (fun k ->
                let linear =
                  List.fold_left
                    (fun acc x -> if x > k && (acc = None || x < Option.get acc) then Some x else acc)
                    None sorted
                in
                Btree.successor t k = linear)
              (List.init 40 (fun k -> k * 5))))

(* the paged backend answers exactly like the array backend *)
let test_index_equivalence () =
  let db =
    Rgs_datagen.Trace_gen.generate
      (Rgs_datagen.Trace_gen.params ~num_sequences:20 ~num_events:15 ~seed:9 ())
  in
  let flat = Inverted_index.build db in
  let paged = Inverted_index.build_paged ~fanout:4 db in
  Alcotest.(check bool) "flat not paged" false
    (Inverted_index.kind flat = Inverted_index.Kpaged);
  Alcotest.(check bool) "paged is paged" true
    (Inverted_index.kind paged = Inverted_index.Kpaged);
  Alcotest.(check (list int)) "events" (Inverted_index.events flat)
    (Inverted_index.events paged);
  List.iter
    (fun e ->
      Alcotest.(check int) "occurrence_count"
        (Inverted_index.occurrence_count flat e)
        (Inverted_index.occurrence_count paged e);
      Seqdb.iter
        (fun i s ->
          Alcotest.(check (list int))
            (Printf.sprintf "positions e%d S%d" e i)
            (Array.to_list (Inverted_index.positions flat ~seq:i e))
            (Array.to_list (Inverted_index.positions paged ~seq:i e));
          for lowest = 0 to Sequence.length s do
            Alcotest.(check (option int))
              (Printf.sprintf "next e%d S%d l%d" e i lowest)
              (Inverted_index.next flat ~seq:i e ~lowest)
              (Inverted_index.next paged ~seq:i e ~lowest)
          done;
          for lo = 0 to min 10 (Sequence.length s) do
            let hi = lo + 7 in
            Alcotest.(check int)
              (Printf.sprintf "count e%d S%d (%d,%d)" e i lo hi)
              (Inverted_index.count_between flat ~seq:i e ~lo ~hi)
              (Inverted_index.count_between paged ~seq:i e ~lo ~hi)
          done)
        db)
    (Inverted_index.events flat);
  Alcotest.(check (list int)) "frequent"
    (Inverted_index.frequent_events flat ~min_sup:10)
    (Inverted_index.frequent_events paged ~min_sup:10)

(* and mining on the paged backend yields identical results *)
let test_paged_mining_equivalence () =
  let db =
    Rgs_datagen.Quest_gen.generate
      (Rgs_datagen.Quest_gen.params ~d:40 ~c:12 ~n:30 ~s:4 ~seed:5 ())
  in
  let signatures (results, _) =
    List.map
      (fun r -> (Rgs_core.Pattern.to_string r.Rgs_core.Mined.pattern, r.Rgs_core.Mined.support))
      results
  in
  let flat = Inverted_index.build db in
  let paged = Inverted_index.build_paged ~fanout:4 db in
  Alcotest.(check (list (pair string int))) "gsgrow"
    (signatures (Rgs_core.Engine.mine Rgs_core.Gsgrow.strategy ~max_length:4 flat ~min_sup:8))
    (signatures (Rgs_core.Engine.mine Rgs_core.Gsgrow.strategy ~max_length:4 paged ~min_sup:8));
  Alcotest.(check (list (pair string int))) "clogsgrow"
    (signatures (Rgs_core.Engine.mine Gens.closed ~max_length:4 flat ~min_sup:8))
    (signatures (Rgs_core.Engine.mine Gens.closed ~max_length:4 paged ~min_sup:8))

let suite =
  [
    Alcotest.test_case "build and list" `Quick test_build_and_list;
    Alcotest.test_case "empty and single" `Quick test_empty_and_single;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "queries exhaustive" `Quick test_queries_exhaustive;
    Alcotest.test_case "to_array" `Quick test_to_array;
    prop_btree_equals_array;
    Alcotest.test_case "index equivalence" `Quick test_index_equivalence;
    Alcotest.test_case "paged mining equivalence" `Quick test_paged_mining_equivalence;
  ]
