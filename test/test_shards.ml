(* The @shards tier: differential proof that shard-parallel mining on the
   root pool is invisible in the output.

   Contract under test: for every database, heap or store-backed index,
   shard count in {1,2,4,8} and domain count, the Miner root pool (a
   config with [domains] and [shards]) emits {e byte-identical} results to the
   sequential engine run — including under gap constraints and
   Targeted/Top_k query plans, and on the adversarial all-work-in-one-root
   skew where per-root scheduling degenerates to a single busy domain. The
   pool's engine counters equal one sequential run's, repeated runs agree,
   and a supervisor-style shard dispatch composes with it. The [Support_set.combine] algebra the shard
   merge rests on is checked here too, and so is the JBoss-like case-study
   corpus under 4 domains (the paper-scale QUEST case of the same check
   lives in test_perf_guard.ml, beside the store gate that generates its
   corpus). *)

open Rgs_sequence
open Rgs_core

let signatures results =
  List.map (fun r -> (Pattern.to_string r.Mined.pattern, r.Mined.support)) results

let sig_t = Alcotest.(list (pair string int))

(* 0: the heap index; 1: the index of the database packed and mapped *)
let index_of db b =
  Inverted_index.build (if b = 0 then db else Gens.mapped_db db)

let shard_counts = [ 1; 2; 4; 8 ]

(* A fixed adversarial instance of Gens.skewed_db: big enough that the
   dominant root's subtree dwarfs every other root put together. *)
let skew_db =
  lazy
    (QCheck2.Gen.generate1
       ~rand:(Random.State.make [| 0xBEE5 |])
       (Gens.skewed_db ~num_seqs:24 ~alphabet:4 ~len:24))

let dbs =
  lazy
    [
      ("table3", Seqdb.of_strings [ "ABCACBDDB"; "ACDBACADD" ], 2);
      ( "quest",
        Rgs_datagen.Quest_gen.generate
          (Rgs_datagen.Quest_gen.params ~d:50 ~c:15 ~n:40 ~s:4 ~seed:11 ()),
        5 );
      ("skew", Lazy.force skew_db, 6);
    ]

(* --- Seqdb.shard: the partition itself --- *)

let check_partition db n =
  let ranges = Seqdb.shard db n in
  let size = Seqdb.size db in
  if size = 0 then Alcotest.(check int) "empty db" 0 (Array.length ranges)
  else begin
    Alcotest.(check bool)
      (Printf.sprintf "at most %d shards" n)
      true
      (Array.length ranges <= n && Array.length ranges >= 1);
    (* contiguous, non-empty, covering exactly [1, size] in order *)
    let expect_lo = ref 1 in
    Array.iter
      (fun (lo, hi) ->
        Alcotest.(check int) "contiguous" !expect_lo lo;
        Alcotest.(check bool) "non-empty" true (hi >= lo);
        expect_lo := hi + 1)
      ranges;
    Alcotest.(check int) "covers the db" (size + 1) !expect_lo
  end

let test_shard_partition () =
  List.iter
    (fun (_, db, _) -> List.iter (check_partition db) [ 1; 2; 3; 5; 8; 100 ])
    (Lazy.force dbs);
  (* zero-length sequences at the tail must not produce empty shards *)
  let ragged =
    Seqdb.of_sequences
      (List.map Sequence.of_list [ [ 0; 1; 0 ]; [ 1 ]; []; []; [] ])
  in
  List.iter (check_partition ragged) [ 1; 2; 3; 4; 5; 9 ];
  check_partition (Seqdb.of_sequences []) 4;
  Alcotest.check_raises "n < 1 rejected"
    (Invalid_argument "Seqdb.shard: shard count must be >= 1") (fun () ->
      ignore (Seqdb.shard ragged 0))

(* --- deterministic differentials: named dbs × shards × pool --- *)

let test_pool_all_matches () =
  List.iter
    (fun (name, db, min_sup) ->
      let idx = Inverted_index.build db in
      let sequential, _ = Engine.mine Gsgrow.strategy ~max_length:4 idx ~min_sup in
      List.iter
        (fun shards ->
          let pool = Gens.pool ~domains:4 ~max_length:4 ~shards idx ~min_sup in
          Alcotest.check sig_t
            (Printf.sprintf "%s all s%d pool" name shards)
            (signatures sequential) (signatures pool.Miner.results))
        shard_counts)
    (Lazy.force dbs)

let test_pool_closed_matches () =
  List.iter
    (fun (name, db, min_sup) ->
      let idx = Inverted_index.build db in
      let sequential, _ = Engine.mine Gens.closed ~max_length:4 idx ~min_sup in
      List.iter
        (fun shards ->
          let pool =
            Gens.pool ~mode:Miner.Closed ~domains:3 ~max_length:4 ~shards idx
              ~min_sup
          in
          Alcotest.check sig_t
            (Printf.sprintf "%s closed s%d pool" name shards)
            (signatures sequential) (signatures pool.Miner.results))
        shard_counts)
    (Lazy.force dbs)

(* The paper's case-study workload (JBoss-like traces, CloGSgrow at
   min_sup 18, length capped at 4) on 4 pool domains: every shard count
   reproduces the sequential answer. *)
let test_pool_jboss_like () =
  let db, _ = Rgs_experiments.Exp_common.jboss_like () in
  let idx = Inverted_index.build db in
  let sequential, _ = Engine.mine Gens.closed ~max_length:4 idx ~min_sup:18 in
  Alcotest.(check bool) "jboss_like mined something" true (sequential <> []);
  List.iter
    (fun shards ->
      let pool =
        Gens.pool ~mode:Miner.Closed ~domains:4 ~max_length:4 ~shards idx
          ~min_sup:18
      in
      Alcotest.check sig_t
        (Printf.sprintf "jboss_like closed s%d pool" shards)
        (signatures sequential) (signatures pool.Miner.results))
    shard_counts

(* the store-backed (mapped) read path shards identically on the pool *)
let test_pool_mapped_store () =
  let _, db, min_sup = List.nth (Lazy.force dbs) 1 in
  let mdb = Gens.mapped_db db in
  let sequential, _ = Engine.mine Gens.closed ~max_length:4 (Inverted_index.build db) ~min_sup in
  let midx = Inverted_index.build mdb in
  let pool =
    Gens.pool ~mode:Miner.Closed ~domains:4 ~max_length:4 ~shards:3 midx
      ~min_sup
  in
  Alcotest.check sig_t "mapped closed pool" (signatures sequential)
    (signatures pool.Miner.results)

(* What a run adds to the engine's counters: DFS nodes, emitted patterns,
   LBCheck prunes and instance growths, from [Metrics] deltas (the pool's
   domains all count into them). *)
let with_counters f =
  let before = Metrics.snapshot () in
  let r = f () in
  let d = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
  ( r,
    List.map (Metrics.find d)
      [ "dfs_nodes"; "patterns_emitted"; "lb_prunes"; "insgrow_calls" ] )

(* The pool's output and its counters are fixed by the database, not by
   which domain claimed which root: five runs on the one-root skew (the
   worst case for claim-order races) agree with each other. *)
let test_pool_deterministic () =
  let db = Lazy.force skew_db in
  let idx = Inverted_index.build db in
  let run () =
    let report, counters =
      with_counters (fun () ->
          Gens.pool ~mode:Miner.Closed ~domains:4 ~max_length:4 ~shards:2 idx
            ~min_sup:6)
    in
    (signatures report.Miner.results, counters)
  in
  let ((first, _) as reference) = run () in
  Alcotest.(check bool) "skew run mined something" true (first <> []);
  for i = 2 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "run %d = run 1 (output and counters)" i)
      true (run () = reference)
  done

(* Every root is mined exactly once: the counters the pool's per-root
   runs add up to equal one sequential sharded engine run's, node for
   node. *)
let test_pool_stats_match () =
  List.iter
    (fun (name, db, min_sup) ->
      let idx = Inverted_index.build db in
      List.iter
        (fun shards ->
          let sm = Shard_merge.make ~dispatch:Gens.inproc_dispatch db ~shards in
          List.iter
            (fun (mode, strategy) ->
              let _, seq =
                with_counters (fun () ->
                    Engine.run ~max_length:4 (Shard_merge.strategy sm strategy)
                      idx ~min_sup ~emit:ignore)
              in
              let _, pool =
                with_counters (fun () ->
                    Gens.pool ~mode ~domains:3 ~max_length:4 ~shards idx
                      ~min_sup)
              in
              Alcotest.(check (list int))
                (Printf.sprintf "%s %s s%d counters" name
                   (match mode with Miner.All -> "all" | Miner.Closed -> "closed")
                   shards)
                seq pool)
            [ (Miner.All, Gsgrow.strategy); (Miner.Closed, Gens.closed) ])
        [ 1; 3 ])
    (Lazy.force dbs)

(* Gap-constrained mining, two-sided gaps included: sharded growth is
   invisible, and the pool (which [Miner] runs with [min_gap = 0]) agrees *)
let test_pool_gap_matches () =
  List.iter
    (fun (name, db, min_sup) ->
      let idx = Inverted_index.build db in
      List.iter
        (fun min_gap ->
          let strategy = Gap_constrained.strategy ~min_gap ~max_gap:2 in
          let sequential, _ = Engine.mine ~max_length:4 strategy idx ~min_sup in
          List.iter
            (fun shards ->
              let sharded, _ =
                Engine.mine ~max_length:4
                  (Shard_merge.strategy
                     (Shard_merge.make ~dispatch:Gens.inproc_dispatch db ~shards)
                     strategy)
                  idx ~min_sup
              in
              Alcotest.check sig_t
                (Printf.sprintf "%s gap [%d,2] s%d" name min_gap shards)
                (signatures sequential) (signatures sharded);
              if min_gap = 0 then
                Alcotest.check sig_t
                  (Printf.sprintf "%s gap [0,2] s%d pool" name shards)
                  (signatures sequential)
                  (signatures
                     (Gens.pool ~domains:3 ~max_length:4 ~max_gap:2 ~shards idx
                        ~min_sup)
                       .Miner.results))
            shard_counts)
        [ 0; 1 ])
    (Lazy.force dbs)

(* Miner routes a config with domains and max_gap to the pool under the
   gap strategy, in either mode, sharded or not *)
let test_miner_gap_routing () =
  List.iter
    (fun (name, db, min_sup) ->
      List.iter
        (fun mode ->
          let cfg ?domains ?shards () =
            Miner.config ~mode ~max_length:4 ~max_gap:2 ?domains ?shards
              ?shard_dispatch:
                (Option.map (fun _ -> Gens.inproc_dispatch) shards)
              ~min_sup ()
          in
          let sequential = Miner.mine ~config:(cfg ()) db in
          List.iter
            (fun shards ->
              let pool = Miner.mine ~config:(cfg ~domains:3 ?shards ()) db in
              Alcotest.check sig_t
                (Printf.sprintf "%s %s gap pool%s" name
                   (match mode with Miner.All -> "all" | Miner.Closed -> "closed")
                   (match shards with
                   | Some s -> Printf.sprintf " s%d" s
                   | None -> ""))
                (signatures sequential.Miner.results)
                (signatures pool.Miner.results))
            [ None; Some 2; Some 4 ])
        [ Miner.All; Miner.Closed ])
    (Lazy.force dbs)

(* A supervisor's shard dispatch composes with the pool: an in-process
   dispatch called concurrently from every domain yields the sequential
   output, and every growth goes through it. *)
let test_pool_shard_dispatch () =
  let _, db, min_sup = List.nth (Lazy.force dbs) 1 in
  let idx = Inverted_index.build db in
  let calls = Atomic.make 0 in
  let dispatch ~ranges base idx s e =
    Atomic.incr calls;
    Gens.inproc_dispatch ~ranges base idx s e
  in
  let sequential, stats = Engine.mine Gens.closed ~max_length:4 idx ~min_sup in
  let pool =
    Miner.mine_indexed
      (Miner.config ~mode:Miner.Closed ~domains:3 ~max_length:4 ~shards:3
         ~shard_dispatch:dispatch ~min_sup ())
      idx
  in
  Alcotest.check sig_t "dispatched closed pool" (signatures sequential)
    (signatures pool.Miner.results);
  Alcotest.(check int) "every DFS growth dispatched" stats.Engine.insgrow_calls
    (Atomic.get calls)

(* --- QCheck differentials: random dbs × heap and mapped indexes --- *)

(* Each case draws one shard count and one index, so 120 cases spread
   over {1,2,4,8} × {heap, mapped} without multiplying the run
   count by eight (the deterministic tests above already sweep every
   shard count exhaustively). *)
let with_shards gen =
  QCheck2.Gen.(pair gen (oneofl shard_counts))

let with_shards_index gen =
  QCheck2.Gen.(triple gen (oneofl shard_counts) (int_bound 1))

let prop_pool_all_closed =
  Gens.make ~name:"pool ≡ sequential (all + closed, heap and mapped)" ~count:120
    (with_shards_index (Gens.db ~num_seqs:6 ~alphabet:4 ~max_len:9))
    (fun (db, shards, b) ->
      Printf.sprintf "shards: %d mapped: %d\n%s" shards b (Gens.print_db db))
    (fun (db, shards, b) ->
      let idx = index_of db b in
      let all_seq, _ = Engine.mine Gsgrow.strategy ~max_length:4 idx ~min_sup:2 in
      let all_pool = Gens.pool ~domains:3 ~max_length:4 ~shards idx ~min_sup:2 in
      let closed_seq, _ = Engine.mine Gens.closed ~max_length:4 idx ~min_sup:2 in
      let closed_pool =
        Gens.pool ~mode:Miner.Closed ~domains:3 ~max_length:4 ~shards idx
          ~min_sup:2
      in
      signatures all_seq = signatures all_pool.Miner.results
      && signatures closed_seq = signatures closed_pool.Miner.results)

let prop_pool_skewed =
  Gens.make ~name:"pool ≡ sequential on adversarial skew" ~count:40
    (with_shards (Gens.skewed_db ~num_seqs:8 ~alphabet:4 ~len:12))
    (fun (db, shards) ->
      Printf.sprintf "shards: %d\n%s" shards (Gens.print_db db))
    (fun (db, shards) ->
      let idx = Inverted_index.build db in
      let seq, _ = Engine.mine Gens.closed ~max_length:4 idx ~min_sup:3 in
      let pool =
        Gens.pool ~mode:Miner.Closed ~domains:4 ~max_length:4 ~shards idx
          ~min_sup:3
      in
      signatures seq = signatures pool.Miner.results)

let prop_pool_gap =
  Gens.make ~name:"pool ≡ sequential (gap-constrained)" ~count:60
    (with_shards (Gens.db ~num_seqs:6 ~alphabet:4 ~max_len:9))
    (fun (db, shards) ->
      Printf.sprintf "shards: %d\n%s" shards (Gens.print_db db))
    (fun (db, shards) ->
      let idx = Inverted_index.build db in
      let seq, _ =
        Engine.mine ~max_length:4
          (Gap_constrained.strategy ~min_gap:0 ~max_gap:2)
          idx ~min_sup:2
      in
      let pool =
        Gens.pool ~domains:3 ~max_length:4 ~max_gap:2 ~shards idx ~min_sup:2
      in
      pool.Miner.outcome = Budget.Completed
      && signatures seq = signatures pool.Miner.results)

(* --- queries on the pool: a queried config with domains --- *)

(* The oracle is the sequential run of the same config without
   [domains]: the pool may only change which domain mines a root, never
   the answer — ties at the k-th support included, since every entry
   point keeps one tie rule. *)
let pool_matches_sequential ?max_gap ~query db =
  let idx = Inverted_index.build db in
  let cfg ?domains () =
    Miner.config ~query ~max_length:4 ?max_gap ?domains ~shards:2
      ~shard_dispatch:Gens.inproc_dispatch ~min_sup:2 ()
  in
  let seq = Miner.mine_indexed (cfg ()) idx in
  let pool = Miner.mine_indexed (cfg ~domains:3 ()) idx in
  pool.Miner.quarantined = 0
  && signatures seq.Miner.results = signatures pool.Miner.results

let prop_pool_topk =
  Gens.make ~name:"pool Top_k ≡ sequential Top_k" ~count:60
    QCheck2.Gen.(
      pair (Gens.db ~num_seqs:6 ~alphabet:4 ~max_len:9) (int_range 1 6))
    (fun (db, k) -> Printf.sprintf "k: %d\n%s" k (Gens.print_db db))
    (fun (db, k) -> pool_matches_sequential ~query:(Query.Top_k k) db)

let prop_pool_targeted =
  Gens.make ~name:"pool Targeted ≡ sequential Targeted"
    ~count:60
    QCheck2.Gen.(
      pair (Gens.db ~num_seqs:6 ~alphabet:4 ~max_len:9)
        (Gens.pattern ~alphabet:4 ~max_len:2))
    Gens.print_db_pattern
    (fun (db, p) -> pool_matches_sequential ~query:(Query.Targeted p) db)

(* queries over gap-constrained mining, no checkpoint: the route that
   --parallel --max-gap with --top-k or --target takes *)
let prop_pool_gap_queries =
  Gens.make ~name:"pool gap queries ≡ sequential" ~count:60
    QCheck2.Gen.(
      triple (Gens.db ~num_seqs:6 ~alphabet:4 ~max_len:9)
        (Gens.pattern ~alphabet:4 ~max_len:2)
        (int_range 1 6))
    (fun (db, p, k) ->
      Printf.sprintf "k: %d\n%s" k (Gens.print_db_pattern (db, p)))
    (fun (db, p, k) ->
      pool_matches_sequential ~max_gap:2 ~query:(Query.Top_k k) db
      && pool_matches_sequential ~max_gap:2 ~query:(Query.Targeted p) db)

(* --- the Shard_merge proof obligation, run live --- *)

let test_shard_merge_verify () =
  let _, db, min_sup = List.nth (Lazy.force dbs) 1 in
  let idx = Inverted_index.build db in
  let sm = Shard_merge.make ~dispatch:Gens.inproc_dispatch db ~shards:3 in
  let results = ref [] in
  (* ~verify:true recomputes every grow unsharded and raises on the first
     divergence, so completing at all is the proof; check the output too. *)
  let _ =
    Engine.run ~max_length:3
      (Shard_merge.strategy ~verify:true sm Gens.closed)
      idx ~min_sup
      ~emit:(fun m -> results := m :: !results)
  in
  let expected, _ = Engine.mine Gens.closed ~max_length:3 idx ~min_sup in
  Alcotest.check sig_t "verified sharded run ≡ sequential"
    (signatures expected)
    (signatures (List.rev !results))

(* A layout needs a dispatch to serve it, and a dispatch owes exactly
   one part per range: each seam refuses the other half missing. *)
let test_seams_refuse () =
  let _, db, _ = List.nth (Lazy.force dbs) 1 in
  let idx = Inverted_index.build db in
  let refuses name f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  refuses "shards without shard_dispatch" (fun () ->
      Miner.config ~shards:2 ~min_sup:2 ());
  refuses "shard_dispatch without shards" (fun () ->
      Miner.config ~shard_dispatch:Gens.inproc_dispatch ~min_sup:2 ());
  refuses "zero shards" (fun () ->
      Miner.config ~shards:0 ~shard_dispatch:Gens.inproc_dispatch ~min_sup:2 ());
  let short ~ranges base idx s e =
    Array.sub (Gens.inproc_dispatch ~ranges base idx s e) 0
      (Array.length ranges - 1)
  in
  let sm = Shard_merge.make ~dispatch:short db ~shards:3 in
  Alcotest.(check int) "three ranges" 3 (Shard_merge.num_shards sm);
  let e = List.hd (Inverted_index.events idx) in
  refuses "a part short" (fun () ->
      Shard_merge.grow sm Support_set.grow idx (Support_set.of_event idx e) e)

(* --- Support_set.combine: the shard-merge algebra ---

   Per-shard supports computed slice-by-slice from the root must
   reassemble, under any association and operand order, into exactly the
   set a full recomputation yields — the identity Shard_merge.grow's
   correctness (and hence byte-identical sharded mining) rests on. *)

let support_set_of idx p =
  let s = ref (Support_set.of_event idx (Pattern.get p 1)) in
  for j = 2 to Pattern.length p do
    s := Support_set.grow idx !s (Pattern.get p j)
  done;
  !s

(* brute force: re-grow the shard's slice from scratch, never consulting
   the full set *)
let shard_set_of idx ~lo ~hi p =
  let s =
    ref (Support_set.slice (Support_set.of_event idx (Pattern.get p 1)) ~lo ~hi)
  in
  for j = 2 to Pattern.length p do
    s := Support_set.grow idx !s (Pattern.get p j)
  done;
  !s

let prop_combine_reassembles =
  Gens.make ~name:"combine: shard-by-shard growth reassembles" ~count:150
    QCheck2.Gen.(
      pair (Gens.db ~num_seqs:8 ~alphabet:4 ~max_len:10)
        (Gens.pattern ~alphabet:4 ~max_len:3))
    Gens.print_db_pattern
    (fun (db, p) ->
      let idx = Inverted_index.build db in
      let whole = support_set_of idx p in
      List.for_all
        (fun shards ->
          let parts =
            Array.to_list (Seqdb.shard db shards)
            |> List.map (fun (lo, hi) -> shard_set_of idx ~lo ~hi p)
          in
          let fwd = List.fold_left Support_set.combine Support_set.empty parts in
          let bwd =
            List.fold_left Support_set.combine Support_set.empty
              (List.rev parts)
          in
          let nested =
            (* right-associated, vs fwd's left association *)
            List.fold_right Support_set.combine parts Support_set.empty
          in
          Support_set.equal whole fwd
          && Support_set.equal whole bwd
          && Support_set.equal whole nested)
        [ 1; 2; 3; 5; 8 ])

let test_combine_rejects_overlap () =
  let db = Seqdb.of_sequences [ Sequence.of_list [ 0; 0; 1 ] ] in
  let idx = Inverted_index.build db in
  let s = Support_set.of_event idx 0 in
  Alcotest.(check bool) "fixture non-empty" true (Support_set.size s > 0);
  Alcotest.check_raises "overlapping operands rejected"
    (Invalid_argument "Support_set.combine: operands share a sequence")
    (fun () -> ignore (Support_set.combine s s));
  (* empty operands short-circuit on either side *)
  Alcotest.(check bool) "empty left" true
    (Support_set.equal s (Support_set.combine Support_set.empty s));
  Alcotest.(check bool) "empty right" true
    (Support_set.equal s (Support_set.combine s Support_set.empty))

let suite =
  [
    Alcotest.test_case "Seqdb.shard partition" `Quick test_shard_partition;
    Alcotest.test_case "all: shards × pool" `Quick test_pool_all_matches;
    Alcotest.test_case "closed: shards × pool" `Quick test_pool_closed_matches;
    Alcotest.test_case "pool run-to-run determinism" `Quick
      test_pool_deterministic;
    Alcotest.test_case "pool stats = sequential stats" `Quick
      test_pool_stats_match;
    Alcotest.test_case "gap: shards × pool" `Quick test_pool_gap_matches;
    Alcotest.test_case "Miner: domains + max_gap routing" `Quick
      test_miner_gap_routing;
    Alcotest.test_case "pool with shard dispatch" `Quick
      test_pool_shard_dispatch;
    Alcotest.test_case "jboss_like: shards × pool" `Quick test_pool_jboss_like;
    Alcotest.test_case "mapped store backend" `Quick test_pool_mapped_store;
    prop_pool_all_closed;
    prop_pool_skewed;
    prop_pool_gap;
    prop_pool_topk;
    prop_pool_targeted;
    prop_pool_gap_queries;
    Alcotest.test_case "Shard_merge verify run" `Quick test_shard_merge_verify;
    Alcotest.test_case "shard seams refuse half a layout" `Quick
      test_seams_refuse;
    prop_combine_reassembles;
    Alcotest.test_case "combine: overlap + identities" `Quick
      test_combine_rejects_overlap;
  ]
