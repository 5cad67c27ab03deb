(* The query layer, checked three ways against code that shares nothing
   with the engine:

   1. an oracle DFS — fifteen lines of naive pattern growth over
      Support_set, written here — must agree with the engine's mine-all
      on every random database (and its closed subset, the
      patterns with no equal-support superpattern in the full output,
      must agree with CloGSgrow);
   2. the in-DFS targeted plan must return exactly the brute-force
      post-filter of mine-all (same order: targeted answers keep DFS
      order and containment filtering preserves it);
   3. the in-DFS top-k plan must return exactly the tie-rule oracle: a
      full engine run with the roots in descending single-event support,
      stable-sorted by support, first k — at every entry point
      (sequential, the root pool under shards, with and without a
      checkpoint, and resumed from a stopped run's log).

   The δ-cover post-pass is
   checked against its definition: every absorbed pattern is contained in
   its representative within the δ support band, every input pattern is
   accounted for exactly once, and the cover is deterministic. *)

open Rgs_sequence
open Rgs_core

let sig_of m = (Pattern.to_list m.Mined.pattern, m.Mined.support)
let sigs = List.map sig_of
let sorted l = List.sort compare l

(* --- oracle 1: naive mine-all, sharing no code with Engine --- *)

let oracle_mine_all ?max_length idx ~min_sup =
  let events = Inverted_index.frequent_events idx ~min_sup in
  let under_limit p =
    match max_length with None -> true | Some l -> Pattern.length p < l
  in
  let acc = ref [] in
  let rec go p i =
    acc := (Pattern.to_list p, Support_set.size i) :: !acc;
    if under_limit p then
      List.iter
        (fun e ->
          let i' = Support_set.grow idx i e in
          if Support_set.size i' >= min_sup then go (Pattern.grow p e) i')
        events
  in
  List.iter
    (fun e ->
      let i = Support_set.of_event idx e in
      if Support_set.size i >= min_sup then go (Pattern.of_list [ e ]) i)
    events;
  List.rev !acc

(* independent support replay: grow the leftmost support set from scratch *)
let oracle_support idx p =
  match p with
  | [] -> 0
  | e :: rest ->
    Support_set.size
      (List.fold_left
         (fun i e -> Support_set.grow idx i e)
         (Support_set.of_event idx e)
         rest)

(* Closed subset by Definition 2.4, checked against single-event
   insertions: if any proper supersequence has equal support then, by
   antimonotonicity, some length+1 insertion does too — so insertions are
   a complete witness set. Closedness is global (a witness may exceed the
   mining length cap), which is why this cannot be computed by filtering
   the capped output list against itself. *)
let oracle_closed idx ~min_sup all =
  let events = Inverted_index.frequent_events idx ~min_sup in
  List.filter
    (fun (p, sup) ->
      let pat = Pattern.of_list p in
      not
        (List.exists
           (fun at ->
             List.exists
               (fun e ->
                 oracle_support idx
                   (Pattern.to_list (Pattern.insert pat ~at e))
                 = sup)
               events)
           (List.init (List.length p + 1) Fun.id)))
    all

let mine_with ?max_length ~mode ~query idx ~min_sup =
  let cfg =
    Miner.config ~mode ~query ?max_length ~min_sup ()
  in
  (Miner.mine_indexed cfg idx).Miner.results

let db_gen = Gens.db ~num_seqs:6 ~alphabet:5 ~max_len:12

(* --- 1: oracle vs engine, all and closed --- *)

let prop_oracle_vs_engine =
  Gens.make ~name:"oracle DFS = engine mine-all; its closed subset = CloGSgrow"
    ~count:120 db_gen Gens.print_db (fun db ->
      let idx = Inverted_index.build db in
      let expect = oracle_mine_all ~max_length:4 idx ~min_sup:2 in
      let all =
        sigs (mine_with ~max_length:4 ~mode:Miner.All ~query:Query.All idx
                ~min_sup:2)
      in
      let closed =
        sigs (mine_with ~max_length:4 ~mode:Miner.Closed ~query:Query.All
                idx ~min_sup:2)
      in
      all = expect
      && sorted closed = sorted (oracle_closed idx ~min_sup:2 expect))

(* --- 2: in-DFS targeted = brute-force post-filter, exact order --- *)

let target_gen =
  QCheck2.Gen.(
    pair db_gen (list_size (int_range 1 3) (int_bound 4) >|= Pattern.of_list))

let print_db_target (db, t) =
  Printf.sprintf "db:\n%s\ntarget: %s" (Gens.print_db db) (Pattern.to_string t)

let prop_targeted_vs_post_filter =
  Gens.make ~name:"targeted query = post-filtered mine-all (both modes)"
    ~count:120 target_gen print_db_target (fun (db, target) ->
      let idx = Inverted_index.build db in
      List.for_all
        (fun mode ->
          let all =
            mine_with ~max_length:4 ~mode ~query:Query.All idx ~min_sup:2
          in
          let expect =
            List.filter
              (fun m -> Pattern.is_subpattern target ~of_:m.Mined.pattern)
              all
          in
          let got =
            mine_with ~max_length:4 ~mode ~query:(Query.Targeted target) idx
              ~min_sup:2
          in
          sigs got = sigs expect)
        [ Miner.All; Miner.Closed ])

(* --- 3: in-DFS top-k = the tie-rule oracle, at every entry point --- *)

let topk_gen = QCheck2.Gen.(pair db_gen (int_range 1 8))

let print_db_k (db, k) =
  Printf.sprintf "db:\n%s\nk: %d" (Gens.print_db db) k

let strategy_of = function
  | Miner.All -> Gsgrow.strategy
  | Miner.Closed -> Gens.closed

(* The tie rule by its definition: the full miner with the roots visited
   in descending single-event support (ties in event order), its output
   stable-sorted by support, the first k. *)
let topk_oracle ?max_length ~mode idx ~min_sup k =
  let roots =
    List.stable_sort
      (fun a b ->
        Int.compare
          (Inverted_index.occurrence_count idx b)
          (Inverted_index.occurrence_count idx a))
      (Inverted_index.frequent_events idx ~min_sup)
  in
  let all, _ =
    Engine.mine ?max_length ~roots (strategy_of mode) idx ~min_sup
  in
  List.stable_sort (fun a b -> Int.compare b.Mined.support a.Mined.support) all
  |> List.filteri (fun i _ -> i < k)

let prop_topk_vs_oracle =
  Gens.make ~name:"top-k query = tie-rule oracle (both modes)"
    ~count:120 topk_gen print_db_k (fun (db, k) ->
      let idx = Inverted_index.build db in
      List.for_all
        (fun mode ->
          let got =
            mine_with ~max_length:4 ~mode ~query:(Query.Top_k k) idx ~min_sup:2
          in
          sigs got = sigs (topk_oracle ~max_length:4 ~mode idx ~min_sup:2 k))
        [ Miner.All; Miner.Closed ])

let with_temp_log f =
  let path = Filename.temp_file "rgs_topk" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* Every way to run a top-k mine against the oracle: the sequential run,
   the root pool under a drawn domain × shard count, without and with a
   checkpoint, and a resume from the log of a run a node budget
   stopped. *)
let prop_topk_every_entry_point =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 22 |])
    (QCheck2.Test.make ~name:"top-k: every entry point = tie-rule oracle"
       ~count:60
       ~print:(fun (((db, k), closed), (domains, shards, nodes)) ->
         Printf.sprintf "%s\nclosed: %b domains: %d shards: %d max_nodes: %d"
           (print_db_k (db, k)) closed domains shards nodes)
       QCheck2.Gen.(
         pair (pair topk_gen bool)
           (triple (int_range 1 3) (int_range 1 3) (int_range 1 30)))
       (fun (((db, k), closed), (domains, shards, max_nodes)) ->
         let mode = if closed then Miner.Closed else Miner.All in
         let idx = Inverted_index.build db in
         let expect = sigs (topk_oracle ~max_length:4 ~mode idx ~min_sup:2 k) in
         let cfg ?domains ?shards ?max_nodes () =
           Miner.config ~mode ~query:(Query.Top_k k) ~max_length:4 ?domains
             ?shards
             ?shard_dispatch:(Option.map (fun _ -> Gens.inproc_dispatch) shards)
             ?max_nodes ~min_sup:2 ()
         in
         let answer r = sigs r.Miner.results in
         answer (Miner.mine_indexed (cfg ()) idx) = expect
         && answer (Miner.mine_indexed (cfg ~domains ~shards ()) idx) = expect
         && answer (Miner.mine ~config:(cfg ~domains ()) db) = expect
         && with_temp_log (fun path ->
                answer (Miner.mine ~checkpoint:path ~config:(cfg ()) db)
                = expect)
         && with_temp_log (fun path ->
                ignore
                  (Miner.mine ~checkpoint:path ~config:(cfg ~max_nodes ()) db);
                answer
                  (Miner.mine ~checkpoint:path ~resume:true
                     ~config:(cfg ~domains ()) db)
                = expect)))

(* --- a checkpointed run must agree with a plain one --- *)

let prop_checkpointed_matches_indexed =
  Gens.make ~name:"checkpointed run agrees with mine_indexed on queries"
    ~count:40 topk_gen print_db_k (fun (db, k) ->
      let idx = Inverted_index.build db in
      let check query =
        let cfg = Miner.config ~query ~max_length:4 ~min_sup:2 () in
        sigs (Miner.mine_indexed cfg idx).Miner.results
        = with_temp_log (fun path ->
              sigs (Miner.mine ~checkpoint:path ~config:cfg db).Miner.results)
      in
      check Query.All
      && check (Query.Targeted (Pattern.of_list [ 0 ]))
      && check (Query.Top_k k))

(* --- δ-cover: definitional properties + determinism --- *)

let prop_delta_cover =
  Gens.make ~name:"delta-cover: sound, complete, deterministic" ~count:80
    QCheck2.Gen.(pair db_gen (float_range 0.0 1.0))
    (fun (db, delta) ->
      Printf.sprintf "db:\n%s\ndelta: %f" (Gens.print_db db) delta)
    (fun (db, delta) ->
      let idx = Inverted_index.build db in
      let results = mine_with ~max_length:4 ~mode:Miner.Closed
          ~query:Query.All idx ~min_sup:2
      in
      let covers = Rgs_post.Compress.delta_cover ~delta results in
      let again = Rgs_post.Compress.delta_cover ~delta results in
      let absorbed_ok =
        List.for_all
          (fun c ->
            List.for_all
              (fun p ->
                Pattern.is_subpattern p.Mined.pattern
                  ~of_:c.Rgs_post.Compress.representative.Mined.pattern
                && float_of_int
                     (p.Mined.support
                     - c.Rgs_post.Compress.representative.Mined.support)
                   <= delta *. float_of_int p.Mined.support)
              c.Rgs_post.Compress.covered)
          covers
      in
      let accounted =
        List.concat_map
          (fun c ->
            c.Rgs_post.Compress.representative :: c.Rgs_post.Compress.covered)
          covers
      in
      absorbed_ok
      && sorted (sigs accounted) = sorted (sigs results)
      && List.length covers <= List.length results
      && sigs (Rgs_post.Compress.representatives covers)
         = sigs (Rgs_post.Compress.representatives again))

(* --- pruning actually happens (not just correct answers) --- *)

let test_query_prunes_search () =
  let db =
    Rgs_datagen.Quest_gen.generate
      (Rgs_datagen.Quest_gen.params ~d:25 ~c:10 ~n:25 ~s:3 ~seed:11 ())
  in
  let idx = Inverted_index.build db in
  let nodes query =
    Metrics.reset ();
    ignore (mine_with ~max_length:4 ~mode:Miner.All ~query idx ~min_sup:3);
    Metrics.value Metrics.dfs_nodes
  in
  let full = nodes Query.All in
  let topk = nodes (Query.Top_k 5) in
  let targeted = nodes (Query.Targeted (Pattern.of_list [ 0; 1; 2 ])) in
  Alcotest.(check bool)
    (Printf.sprintf "top-k expands fewer nodes (%d < %d)" topk full)
    true (topk < full);
  Alcotest.(check bool)
    (Printf.sprintf "targeted expands fewer nodes (%d < %d)" targeted full)
    true (targeted < full);
  (* the cuts are observable in the query metrics *)
  Metrics.reset ();
  ignore
    (mine_with ~max_length:4 ~mode:Miner.All
       ~query:(Query.Targeted (Pattern.of_list [ 0; 1; 2 ]))
       idx ~min_sup:3);
  Alcotest.(check bool) "query_targeted_cuts counted" true
    (Metrics.value Metrics.query_targeted_cuts > 0);
  Metrics.reset ();
  ignore (mine_with ~max_length:4 ~mode:Miner.All ~query:(Query.Top_k 5) idx
            ~min_sup:3);
  Alcotest.(check bool) "query_floor_prunes counted" true
    (Metrics.value Metrics.query_floor_prunes > 0)

let suite =
  [
    prop_oracle_vs_engine;
    prop_targeted_vs_post_filter;
    prop_topk_vs_oracle;
    prop_topk_every_entry_point;
    prop_checkpointed_matches_indexed;
    prop_delta_cover;
    Alcotest.test_case "query plans prune the DFS" `Quick
      test_query_prunes_search;
  ]
