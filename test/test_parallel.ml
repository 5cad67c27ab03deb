(* Tests for domain-parallel mining on the Miner root pool: output
   identical (order included) to the sequential engine run, across domain
   counts and datasets. *)

open Rgs_sequence
open Rgs_core

let signatures results =
  List.map (fun r -> (Pattern.to_string r.Mined.pattern, r.Mined.support)) results

let dbs =
  lazy
    [
      ("table3", Seqdb.of_strings [ "ABCACBDDB"; "ACDBACADD" ]);
      ( "quest",
        Rgs_datagen.Quest_gen.generate
          (Rgs_datagen.Quest_gen.params ~d:50 ~c:15 ~n:40 ~s:4 ~seed:11 ()) );
      ( "traces",
        Rgs_datagen.Trace_gen.generate
          (Rgs_datagen.Trace_gen.params ~num_sequences:40 ~num_events:20 ~seed:12 ()) );
    ]

let test_parallel_all_matches () =
  List.iter
    (fun (name, db) ->
      let idx = Inverted_index.build db in
      let sequential, seq_stats = Engine.mine Gsgrow.strategy ~max_length:4 idx ~min_sup:5 in
      List.iter
        (fun domains ->
          let parallel = Gens.pool ~domains ~max_length:4 idx ~min_sup:5 in
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%s all d%d" name domains)
            (signatures sequential) (signatures parallel.Miner.results);
          Alcotest.(check int)
            (Printf.sprintf "%s count d%d" name domains)
            seq_stats.Engine.emitted (List.length parallel.Miner.results))
        [ 1; 2; 4 ])
    (Lazy.force dbs)

let test_parallel_closed_matches () =
  List.iter
    (fun (name, db) ->
      let idx = Inverted_index.build db in
      let sequential, _ = Engine.mine Gens.closed ~max_length:4 idx ~min_sup:5 in
      List.iter
        (fun domains ->
          let parallel =
            Gens.pool ~mode:Miner.Closed ~domains ~max_length:4 idx ~min_sup:5
          in
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%s closed d%d" name domains)
            (signatures sequential) (signatures parallel.Miner.results))
        [ 1; 3 ])
    (Lazy.force dbs)

let test_parallel_determinism () =
  let _, db = List.nth (Lazy.force dbs) 1 in
  let idx = Inverted_index.build db in
  let runs =
    List.init 3 (fun _ ->
        signatures
          (Gens.pool ~mode:Miner.Closed ~domains:4 ~max_length:3 idx ~min_sup:5)
            .Miner.results)
  in
  match runs with
  | first :: rest ->
    List.iter
      (fun r -> Alcotest.(check (list (pair string int))) "stable across runs" first r)
      rest
  | [] -> assert false

let test_parallel_validation () =
  let idx = Inverted_index.build (Seqdb.of_strings [ "AB" ]) in
  Alcotest.check_raises "domains 0"
    (Invalid_argument "Miner: domains must be >= 1") (fun () ->
      ignore (Gens.pool ~domains:0 idx ~min_sup:1));
  Alcotest.check_raises "min_sup 0"
    (Invalid_argument "Miner: min_sup must be >= 1") (fun () ->
      ignore (Gens.pool ~domains:2 idx ~min_sup:0));
  Alcotest.(check bool) "default domains >= 1" true (Parallel_miner.default_domains () >= 1)

let test_more_domains_than_roots () =
  let idx = Inverted_index.build (Seqdb.of_strings [ "ABAB" ]) in
  let results = Gens.pool ~domains:6 idx ~min_sup:2 in
  let sequential, _ = Engine.mine Gsgrow.strategy idx ~min_sup:2 in
  Alcotest.(check (list (pair string int))) "tiny db" (signatures sequential)
    (signatures results.Miner.results)

(* --- largest-root-first scheduling ---

   The claim order is a pure permutation: per-root statuses must be
   identical for every order [run_pool] is given, with or without
   injected faults. *)

let test_largest_first_order_shape () =
  let _, db = List.nth (Lazy.force dbs) 2 in
  let idx = Inverted_index.build db in
  let roots =
    Array.of_list (Inverted_index.frequent_events idx ~min_sup:5)
  in
  let order = Parallel_miner.largest_first_order idx roots in
  Alcotest.(check int) "permutation length" (Array.length roots)
    (Array.length order);
  let seen = Array.make (Array.length roots) false in
  Array.iter (fun k -> seen.(k) <- true) order;
  Alcotest.(check bool) "is a permutation" true (Array.for_all Fun.id seen);
  (* weights nonincreasing along the claim order *)
  let w k = Inverted_index.occurrence_count idx roots.(k) in
  let ok = ref true in
  for j = 1 to Array.length order - 1 do
    if w order.(j - 1) < w order.(j) then ok := false
  done;
  Alcotest.(check bool) "weights nonincreasing" true !ok;
  Alcotest.check_raises "length mismatch rejected"
    (Invalid_argument "Parallel_miner.run_pool: order length <> num_roots")
    (fun () ->
      ignore
        (Parallel_miner.run_pool ~order:[| 0 |] ~domains:1
           ~num_roots:(Array.length roots)
           ~mine_root:(fun _ -> ())
           ()))

(* Regression: equal occurrence counts must order by root index, not by
   whatever permutation Array.sort (which is unstable) happens to leave.
   Every event below occurs exactly twice, so any tie-break bug shows up
   as a non-identity order. *)
let test_largest_first_order_tie_break () =
  let idx = Inverted_index.build (Seqdb.of_strings [ "ABCABC"; "DD" ]) in
  let roots = Array.of_list (Inverted_index.frequent_events idx ~min_sup:2) in
  Alcotest.(check bool) "all-tied fixture" true (Array.length roots >= 3);
  let counts =
    Array.map (fun e -> Inverted_index.occurrence_count idx e) roots
  in
  Array.iter (fun c -> Alcotest.(check int) "uniform weight" counts.(0) c) counts;
  let order = Parallel_miner.largest_first_order idx roots in
  Alcotest.(check (array int))
    "ties resolve to the identity permutation"
    (Array.init (Array.length roots) Fun.id)
    order

(* Per-root statuses stay keyed by root under reordering, including
   injected crashes: the same root fails (twice, surviving its retry as
   [Failed]) whichever claim order ran, and every other root's result is
   unchanged. *)
let test_schedule_fault_injection () =
  let _, db = List.nth (Lazy.force dbs) 2 in
  let idx = Inverted_index.build db in
  let events = Inverted_index.frequent_events idx ~min_sup:5 in
  let roots = Array.of_list events in
  let num_roots = Array.length roots in
  Alcotest.(check bool) "enough roots" true (num_roots >= 3);
  let crash_root = 1 in
  let run order =
    Budget.Fault.with_hook
      (function
        | Budget.Fault.Worker k when k = crash_root -> failwith "injected"
        | _ -> ())
      (fun () ->
        let slots, _ =
          Parallel_miner.run_pool ?order ~domains:2 ~num_roots
            ~mine_root:(fun k ->
              signatures
                (fst
                   (Engine.mine Gsgrow.strategy ~max_length:3 ~events ~roots:[ roots.(k) ] idx
                      ~min_sup:5)))
            ()
        in
        Parallel_miner.retry_failed ~mine_root:(fun _ -> assert false) slots)
  in
  let reversed = Array.init num_roots (fun i -> num_roots - 1 - i) in
  let by_index = run None in
  let by_largest = run (Some (Parallel_miner.largest_first_order idx roots)) in
  let by_reverse = run (Some reversed) in
  let status_sig = function
    | Parallel_miner.Done r -> "done " ^ String.concat "," (List.map fst r)
    | Parallel_miner.Failed _ -> "failed"
    | Parallel_miner.Skipped -> "skipped"
    | Parallel_miner.Quarantined _ -> "quarantined"
  in
  Array.iteri
    (fun k expected ->
      let expect = status_sig expected in
      Alcotest.(check string)
        (Printf.sprintf "root %d status (largest-first)" k)
        expect
        (status_sig by_largest.(k));
      Alcotest.(check string)
        (Printf.sprintf "root %d status (reversed)" k)
        expect
        (status_sig by_reverse.(k));
      if k = crash_root then
        Alcotest.(check string)
          "twice-crashed root is quarantined" "quarantined" expect)
    by_index

(* A halted pool skips unclaimed roots; reordering changes WHICH claims
   were in flight but a Skipped slot must still be reported as Skipped,
   never silently promoted. *)
let test_schedule_halt_preserves_skips () =
  let num_roots = 6 in
  let order = [| 5; 4; 3; 2; 1; 0 |] in
  let slots, _ =
    Parallel_miner.run_pool ~order ~domains:1 ~num_roots
      ~halt_on:(fun r -> r = 5)
      ~mine_root:Fun.id ()
  in
  Alcotest.(check bool) "first claim done" true (slots.(5) = Parallel_miner.Done 5);
  (* halt after the first claim: the remaining five roots stay Skipped *)
  let skipped =
    Array.to_list slots
    |> List.filter (fun s -> s = Parallel_miner.Skipped)
    |> List.length
  in
  Alcotest.(check int) "rest skipped" 5 skipped

let suite =
  [
    Alcotest.test_case "parallel all = sequential" `Quick test_parallel_all_matches;
    Alcotest.test_case "parallel closed = sequential" `Quick test_parallel_closed_matches;
    Alcotest.test_case "deterministic across runs" `Quick test_parallel_determinism;
    Alcotest.test_case "validation" `Quick test_parallel_validation;
    Alcotest.test_case "more domains than roots" `Quick test_more_domains_than_roots;
    Alcotest.test_case "claim order: largest-first order shape" `Quick
      test_largest_first_order_shape;
    Alcotest.test_case "claim order: tie-break is deterministic" `Quick
      test_largest_first_order_tie_break;
    Alcotest.test_case "claim order: faults keyed by root" `Quick
      test_schedule_fault_injection;
    Alcotest.test_case "claim order: halt preserves skips" `Quick
      test_schedule_halt_preserves_skips;
  ]
