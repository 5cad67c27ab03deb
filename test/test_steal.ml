(* The @steal tier: differential proof that shard-parallel mining with
   work stealing is invisible in the output.

   Contract under test: for every database, index backend, shard count in
   {1,2,4,8} and domain count, [Parallel_miner.mine_steal] (and the
   [?steal]/[?shards] routing in Miner / Parallel_miner.mine_all/closed)
   emits {e byte-identical} results to the sequential miners — including
   under gap constraints and Targeted/Top_k query plans, and on the
   adversarial all-work-in-one-root skew where static per-root scheduling
   degenerates to a single busy domain. *)

open Rgs_sequence
open Rgs_core
module Store = Rgs_store.Store

let signatures results =
  List.map (fun r -> (Pattern.to_string r.Mined.pattern, r.Mined.support)) results

let sig_t = Alcotest.(list (pair string int))
let closed_strategy = Clogsgrow.strategy ~use_lb_check:true ~use_c_check:true

let backends db =
  [
    ("csr", Inverted_index.build_kind Inverted_index.Kcsr db);
    ("paged", Inverted_index.build_kind ~fanout:4 Inverted_index.Kpaged db);
  ]

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

(* --- deterministic differentials: named dbs × shards × {LPT, steal} --- *)

let test_steal_all_matches () =
  List.iter
    (fun (name, db, min_sup) ->
      let idx = Inverted_index.build db in
      let sequential, _ = Gsgrow.mine ~max_length:4 idx ~min_sup in
      List.iter
        (fun shards ->
          let lpt, _ =
            Parallel_miner.mine_all ~domains:4 ~max_length:4 ~shards idx ~min_sup
          in
          Alcotest.check sig_t
            (Printf.sprintf "%s all s%d lpt" name shards)
            (signatures sequential) (signatures lpt);
          let steal, _ =
            Parallel_miner.mine_all ~domains:4 ~max_length:4 ~steal:true ~shards
              idx ~min_sup
          in
          Alcotest.check sig_t
            (Printf.sprintf "%s all s%d steal" name shards)
            (signatures sequential) (signatures steal))
        shard_counts)
    (Lazy.force dbs)

let test_steal_closed_matches () =
  List.iter
    (fun (name, db, min_sup) ->
      let idx = Inverted_index.build db in
      let sequential, _ = Clogsgrow.mine ~max_length:4 idx ~min_sup in
      List.iter
        (fun shards ->
          let lpt, _ =
            Parallel_miner.mine_closed ~domains:3 ~max_length:4 ~shards idx
              ~min_sup
          in
          Alcotest.check sig_t
            (Printf.sprintf "%s closed s%d lpt" name shards)
            (signatures sequential) (signatures lpt);
          let steal, _ =
            Parallel_miner.mine_closed ~domains:3 ~max_length:4 ~steal:true
              ~shards idx ~min_sup
          in
          Alcotest.check sig_t
            (Printf.sprintf "%s closed s%d steal" name shards)
            (signatures sequential) (signatures steal))
        shard_counts)
    (Lazy.force dbs)

let test_steal_deterministic () =
  let _, db, min_sup = List.nth (Lazy.force dbs) 2 in
  let idx = Inverted_index.build db in
  let runs =
    List.init 5 (fun _ ->
        let r, _, q =
          Parallel_miner.mine_steal ~domains:4 ~max_length:4 ~shards:4
            ~strategy:Gsgrow.strategy idx ~min_sup
        in
        Alcotest.(check int) "no quarantines" 0 q;
        signatures r)
  in
  List.iteri
    (fun i r -> Alcotest.check sig_t (Printf.sprintf "run %d" i) (List.hd runs) r)
    (List.tl runs)

(* the store-backed (mapped) read path shards and steals identically *)
let test_steal_mapped_store () =
  let _, db, min_sup = List.nth (Lazy.force dbs) 1 in
  let path = Filename.temp_file "rgs_steal" ".rgsdb" in
  Store.write ~path db;
  let mdb, _ = Store.open_db path in
  Sys.remove path;
  let sequential, _ = Clogsgrow.mine ~max_length:4 (Inverted_index.build db) ~min_sup in
  let midx = Inverted_index.build mdb in
  let steal, _ =
    Parallel_miner.mine_closed ~domains:4 ~max_length:4 ~steal:true ~shards:3
      midx ~min_sup
  in
  Alcotest.check sig_t "mapped closed steal" (signatures sequential)
    (signatures steal)

(* --- QCheck differentials: random dbs × both backends --- *)

(* Each case draws one shard count and one backend, so 120 cases spread
   over {1,2,4,8} × {csr, paged} without multiplying the run
   count by eight (the deterministic tests above already sweep every
   shard count exhaustively). *)
let with_shards gen =
  QCheck2.Gen.(pair gen (oneofl shard_counts))

let with_shards_backend gen =
  QCheck2.Gen.(triple gen (oneofl shard_counts) (int_bound 1))

let prop_steal_all_closed =
  Gens.make ~name:"steal ≡ sequential (all + closed, both backends)" ~count:120
    (with_shards_backend (Gens.db ~num_seqs:6 ~alphabet:4 ~max_len:9))
    (fun (db, shards, b) ->
      Printf.sprintf "shards: %d backend: %d\n%s" shards b (Gens.print_db db))
    (fun (db, shards, b) ->
      let _, idx = List.nth (backends db) b in
      let all_seq, _ = Gsgrow.mine ~max_length:4 idx ~min_sup:2 in
      let all_steal, _ =
        Parallel_miner.mine_all ~domains:3 ~max_length:4 ~steal:true ~shards idx
          ~min_sup:2
      in
      let closed_seq, _ = Clogsgrow.mine ~max_length:4 idx ~min_sup:2 in
      let closed_steal, _ =
        Parallel_miner.mine_closed ~domains:3 ~max_length:4 ~steal:true ~shards
          idx ~min_sup:2
      in
      signatures all_seq = signatures all_steal
      && signatures closed_seq = signatures closed_steal)

let prop_steal_skewed =
  Gens.make ~name:"steal ≡ sequential on adversarial skew" ~count:40
    (with_shards (Gens.skewed_db ~num_seqs:8 ~alphabet:4 ~len:12))
    (fun (db, shards) ->
      Printf.sprintf "shards: %d\n%s" shards (Gens.print_db db))
    (fun (db, shards) ->
      let idx = Inverted_index.build db in
      let seq, _ = Clogsgrow.mine ~max_length:4 idx ~min_sup:3 in
      let steal, _ =
        Parallel_miner.mine_closed ~domains:4 ~max_length:4 ~steal:true ~shards
          idx ~min_sup:3
      in
      signatures seq = signatures steal)

let prop_steal_gap =
  Gens.make ~name:"steal ≡ sequential (gap-constrained)" ~count:60
    (with_shards (Gens.db ~num_seqs:6 ~alphabet:4 ~max_len:9))
    (fun (db, shards) ->
      Printf.sprintf "shards: %d\n%s" shards (Gens.print_db db))
    (fun (db, shards) ->
      let idx = Inverted_index.build db in
      let seq, _ = Gap_constrained.mine ~max_length:4 idx ~max_gap:2 ~min_sup:2 in
      let steal, _, quarantined =
        Parallel_miner.mine_steal ~domains:3 ~max_length:4 ~shards
          ~strategy:(Gap_constrained.strategy ~min_gap:0 ~max_gap:2)
          idx ~min_sup:2
      in
      quarantined = 0 && signatures seq = signatures steal)

(* --- queries under stealing --- *)

let prop_steal_topk =
  (* baseline is the canonical answer: sort the FULL sequential output by
     support (desc) and take k — exactly Query.shared's finalize contract,
     independent of heap arrival order. *)
  Gens.make ~name:"steal Top_k ≡ sort-take-k of sequential" ~count:60
    QCheck2.Gen.(
      pair (Gens.db ~num_seqs:6 ~alphabet:4 ~max_len:9) (int_range 1 6))
    (fun (db, k) -> Printf.sprintf "k: %d\n%s" k (Gens.print_db db))
    (fun (db, k) ->
      let idx = Inverted_index.build db in
      let full, _ = Clogsgrow.mine ~max_length:4 idx ~min_sup:2 in
      let expected =
        List.filteri
          (fun i _ -> i < k)
          (List.sort Mined.compare_by_support_desc full)
      in
      let cfg =
        Miner.config ~query:(Query.Top_k k) ~max_length:4 ~domains:3 ~steal:true
          ~shards:2 ~min_sup:2 ()
      in
      let report = Miner.mine_indexed cfg idx in
      signatures report.Miner.results = signatures expected)

let prop_steal_targeted =
  Gens.make ~name:"steal Targeted ≡ sequential Targeted" ~count:60
    QCheck2.Gen.(
      pair (Gens.db ~num_seqs:6 ~alphabet:4 ~max_len:9)
        (Gens.pattern ~alphabet:4 ~max_len:2))
    Gens.print_db_pattern
    (fun (db, p) ->
      let idx = Inverted_index.build db in
      let q = Query.Targeted p in
      let seq_cfg = Miner.config ~query:q ~max_length:4 ~min_sup:2 () in
      let steal_cfg =
        Miner.config ~query:q ~max_length:4 ~domains:3 ~steal:true ~shards:2
          ~min_sup:2 ()
      in
      let seq = Miner.mine_indexed seq_cfg idx in
      let steal = Miner.mine_indexed steal_cfg idx in
      signatures seq.Miner.results = signatures steal.Miner.results)

(* --- the Shard_merge proof obligation, run live --- *)

let test_shard_merge_verify () =
  let _, db, min_sup = List.nth (Lazy.force dbs) 1 in
  let idx = Inverted_index.build db in
  let sm = Shard_merge.make db ~shards:3 in
  let results = ref [] in
  (* ~verify:true recomputes every grow unsharded and raises on the first
     divergence, so completing at all is the proof; check the output too. *)
  let _ =
    Engine.run ~max_length:3
      (Shard_merge.strategy ~verify:true sm closed_strategy)
      idx ~min_sup
      ~emit:(fun m -> results := m :: !results)
  in
  let expected, _ = Clogsgrow.mine ~max_length:3 idx ~min_sup in
  Alcotest.check sig_t "verified sharded run ≡ sequential"
    (signatures expected)
    (signatures (List.rev !results))

(* --- stealing actually happens on the skewed workload --- *)

let test_steal_successes_on_skew () =
  let db = Lazy.force skew_db in
  let idx = Inverted_index.build db in
  let sequential, _ = Clogsgrow.mine ~max_length:5 idx ~min_sup:4 in
  (* scheduling decides *whether* a given run steals, never *what* it
     returns; retry a few times so the assertion is schedule-robust *)
  let rec attempt n =
    let before = Metrics.snapshot () in
    let steal, _, q =
      Parallel_miner.mine_steal ~domains:4 ~max_length:5
        ~strategy:closed_strategy idx ~min_sup:4
    in
    let after = Metrics.snapshot () in
    let d = Metrics.diff ~before ~after in
    Alcotest.(check int) "no quarantines" 0 q;
    Alcotest.check sig_t "skew steal output" (signatures sequential)
      (signatures steal);
    Alcotest.(check bool) "attempts counted" true
      (Metrics.find d "steal_attempts" > 0);
    if Metrics.find d "steal_successes" > 0 then ()
    else if n > 1 then attempt (n - 1)
    else Alcotest.fail "no successful steal in any run on the skewed workload"
  in
  attempt 10

let suite =
  [
    Alcotest.test_case "Seqdb.shard partition" `Quick test_shard_partition;
    Alcotest.test_case "all: shards × {lpt, steal}" `Quick test_steal_all_matches;
    Alcotest.test_case "closed: shards × {lpt, steal}" `Quick
      test_steal_closed_matches;
    Alcotest.test_case "steal run-to-run determinism" `Quick
      test_steal_deterministic;
    Alcotest.test_case "mapped store backend" `Quick test_steal_mapped_store;
    prop_steal_all_closed;
    prop_steal_skewed;
    prop_steal_gap;
    prop_steal_topk;
    prop_steal_targeted;
    Alcotest.test_case "Shard_merge verify run" `Quick test_shard_merge_verify;
    Alcotest.test_case "steals happen on skew" `Quick
      test_steal_successes_on_skew;
  ]
