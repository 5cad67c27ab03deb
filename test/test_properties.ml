(* Property-based tests (qcheck): the production algorithms against the
   exponential reference oracle on small random databases.

   Properties checked:
   - supComp computes the true maximum non-overlapping instance count
     (greedy leftmost is optimal, Lemma 4 / Theorem 2);
   - the computed support set is non-redundant and leftmost;
   - Apriori monotonicity (Lemma 1): growing a pattern never increases
     support; deleting any event never decreases it;
   - GSgrow output = exhaustive frequent set with exact supports;
   - CloGSgrow output = exhaustive closed set (soundness + completeness);
   - CloGSgrow invariance: disabling LBCheck does not change the output;
   - closure checking agrees with the definition of closedness;
   - LBCheck is sound (Theorem 5): no closed pattern extends an
     LB-prunable prefix;
   - closure checking and CloGSgrow are invariant under an injective
     remap of events to sparse, negative ids;
   - the miner's frame-carrying closure checks agree with fresh-stack
     checks at every DFS node, and on a stack shared in any order;
   - sequential baselines agree with definition-level counting. *)

open Rgs_sequence
open Rgs_core

(* --- generators (shared in gens.ml) --- *)

let gen_db = Gens.db
let gen_pattern = Gens.pattern
let default_db = gen_db ~num_seqs:4 ~alphabet:3 ~max_len:8
let default_pattern = gen_pattern ~alphabet:3 ~max_len:4
let print_db = Gens.print_db
let print_pair = Gens.print_db_pattern
let make = Gens.make

(* --- properties --- *)

let prop_support_matches_oracle =
  make ~name:"supComp = exact maximum (oracle)" ~count:300
    QCheck2.Gen.(pair default_db default_pattern)
    print_pair
    (fun (db, p) ->
      let idx = Inverted_index.build db in
      Sup_comp.support idx p = Brute_force.support db p)

let prop_support_set_valid =
  make ~name:"support set: valid, non-redundant, right-shift sorted" ~count:300
    QCheck2.Gen.(pair default_db default_pattern)
    print_pair
    (fun (db, p) ->
      let full = Sup_comp.landmarks (Inverted_index.build db) p in
      (* all landmarks valid *)
      List.for_all
        (fun (f : Instance.full) ->
          Instance.is_landmark_of p (Seqdb.seq db f.Instance.fseq) f.Instance.landmark)
        full
      && (* pairwise non-overlapping *)
      List.for_all
        (fun f1 ->
          List.for_all
            (fun f2 -> f1 == f2 || Instance.non_overlapping f1 f2)
            full)
        full
      && (* sorted in right-shift order *)
      (let rec sorted = function
         | a :: (b :: _ as rest) ->
           Instance.right_shift_compare_full a b <= 0 && sorted rest
         | _ -> true
       in
       sorted full))

(* Leftmostness (Definition 3.2): against every support set that a
   brute-force search can find. Checking the defining inequality for ALL
   support sets is exponential, so we check a strong consequence that is
   cheap: for each k, the k-th instance's positions are component-wise <=
   those of the k-th instance of any maximum non-redundant set found by a
   randomised greedy. We approximate with the oracle's exhaustive landmark
   set: for each prefix length j, the leftmost set's j-th positions are the
   smallest reachable. Here we only verify the first and last positions
   (which the compressed representation exposes and the algorithms rely
   on). *)
let prop_leftmost_borders =
  make ~name:"leftmost: ends are minimal among maximum sets" ~count:150
    QCheck2.Gen.(pair (gen_db ~num_seqs:3 ~alphabet:3 ~max_len:7) (gen_pattern ~alphabet:3 ~max_len:3))
    print_pair
    (fun (db, p) ->
      let full = Sup_comp.landmarks (Inverted_index.build db) p in
      let sup = List.length full in
      sup = 0
      ||
      (* Build every maximum non-redundant set per sequence by exhaustive
         search and compare sorted end positions. *)
      let ok = ref true in
      Seqdb.iter
        (fun i s ->
          let ours =
            List.filter (fun (f : Instance.full) -> f.Instance.fseq = i) full
          in
          let all =
            List.map
              (fun landmark -> { Instance.fseq = i; landmark })
              (Brute_force.landmarks_in s p)
          in
          let target = List.length ours in
          if target > 0 then begin
            (* enumerate all maximum sets; compare element-wise minima of
               sorted end positions *)
            let best_ends = ref None in
            let arr = Array.of_list all in
            let n = Array.length arr in
            let rec search k chosen =
              if List.length chosen = target then begin
                let ends =
                  List.sort compare
                    (List.map
                       (fun (f : Instance.full) ->
                         f.Instance.landmark.(Array.length f.Instance.landmark - 1))
                       chosen)
                in
                match !best_ends with
                | None -> best_ends := Some ends
                | Some b -> best_ends := Some (List.map2 min b ends)
              end
              else if k < n then begin
                if List.for_all (Instance.non_overlapping arr.(k)) chosen then
                  search (k + 1) (arr.(k) :: chosen);
                search (k + 1) chosen
              end
            in
            search 0 [];
            let our_ends =
              List.sort compare
                (List.map
                   (fun (f : Instance.full) ->
                     f.Instance.landmark.(Array.length f.Instance.landmark - 1))
                   ours)
            in
            match !best_ends with
            | None -> ok := false
            | Some b -> if not (List.for_all2 ( <= ) our_ends b) then ok := false
          end)
        db;
      !ok)

let prop_apriori_growth =
  make ~name:"Apriori: sup(P ◦ e) <= sup(P)" ~count:300
    QCheck2.Gen.(triple default_db default_pattern (int_bound 2))
    (fun (db, p, e) -> print_pair (db, p) ^ Printf.sprintf "\nevent: %d" e)
    (fun (db, p, e) ->
      let idx = Inverted_index.build db in
      Sup_comp.support idx (Pattern.grow p e) <= Sup_comp.support idx p)

let prop_apriori_deletion =
  make ~name:"Apriori: deleting any event never lowers support" ~count:200
    QCheck2.Gen.(pair default_db (gen_pattern ~alphabet:3 ~max_len:4))
    print_pair
    (fun (db, p) ->
      let idx = Inverted_index.build db in
      let sup = Sup_comp.support idx p in
      let m = Pattern.length p in
      m < 2
      || List.for_all
           (fun j ->
             let arr = Pattern.to_array p in
             let shorter =
               Pattern.of_array
                 (Array.append (Array.sub arr 0 j) (Array.sub arr (j + 1) (m - j - 1)))
             in
             Sup_comp.support idx shorter >= sup)
           (List.init m Fun.id))

let results_set results =
  List.sort_uniq compare
    (List.map (fun r -> (Pattern.to_string r.Mined.pattern, r.Mined.support)) results)

let oracle_set oracle =
  List.sort_uniq compare (List.map (fun (q, s) -> (Pattern.to_string q, s)) oracle)

let prop_gsgrow_complete =
  make ~name:"GSgrow = exhaustive frequent set" ~count:120
    QCheck2.Gen.(pair (gen_db ~num_seqs:3 ~alphabet:3 ~max_len:7) (int_range 1 4))
    (fun (db, ms) -> print_db db ^ Printf.sprintf "min_sup: %d" ms)
    (fun (db, min_sup) ->
      let idx = Inverted_index.build db in
      let got, _ = Engine.mine Gsgrow.strategy idx ~min_sup in
      results_set got = oracle_set (Brute_force.frequent db ~min_sup))

let prop_clogsgrow_closed =
  make ~name:"CloGSgrow = exhaustive closed set" ~count:120
    QCheck2.Gen.(pair (gen_db ~num_seqs:3 ~alphabet:3 ~max_len:7) (int_range 1 4))
    (fun (db, ms) -> print_db db ^ Printf.sprintf "min_sup: %d" ms)
    (fun (db, min_sup) ->
      let idx = Inverted_index.build db in
      let got, _ = Engine.mine Gens.closed idx ~min_sup in
      results_set got = oracle_set (Brute_force.closed db ~min_sup))

let prop_clogsgrow_lb_invariant =
  make ~name:"CloGSgrow: LBCheck does not change the output" ~count:120
    QCheck2.Gen.(pair (gen_db ~num_seqs:3 ~alphabet:3 ~max_len:7) (int_range 1 4))
    (fun (db, ms) -> print_db db ^ Printf.sprintf "min_sup: %d" ms)
    (fun (db, min_sup) ->
      let idx = Inverted_index.build db in
      let with_lb, _ = Engine.mine Gens.closed idx ~min_sup in
      let without_lb, _ =
        Engine.mine
          (Clogsgrow.strategy ~use_lb_check:false ~use_c_check:true)
          idx ~min_sup
      in
      results_set with_lb = results_set without_lb)

let prop_closure_check_definition =
  make ~name:"CCheck agrees with closedness by definition" ~count:150
    QCheck2.Gen.(pair (gen_db ~num_seqs:3 ~alphabet:3 ~max_len:7) (gen_pattern ~alphabet:3 ~max_len:3))
    print_pair
    (fun (db, p) ->
      let idx = Inverted_index.build db in
      let sup = Sup_comp.support idx p in
      sup = 0
      ||
      (* definition: closed iff no frequent super-pattern (at threshold
         sup) properly contains p with equal support. *)
      let freq = Brute_force.frequent db ~min_sup:sup in
      let closed_def =
        not
          (List.exists
             (fun (q, s) ->
               s = sup
               && Pattern.length q > Pattern.length p
               && Pattern.is_subpattern p ~of_:q)
             freq)
      in
      Closure.is_closed idx p = closed_def)

(* Theorem 5, checked directly: if LBCheck prunes [p], then no strictly
   longer pattern with prefix [p] is closed at any threshold s <= sup(p).
   Every pattern frequent at [s] is tried, so each database exercises both
   verdicts. *)
let prop_lb_prunable_sound =
  make ~name:"LBCheck sound: no closed pattern extends an LB-prunable prefix"
    ~count:100
    QCheck2.Gen.(pair (gen_db ~num_seqs:3 ~alphabet:3 ~max_len:7) (int_range 1 3))
    (fun (db, s) -> print_db db ^ Printf.sprintf "min_sup: %d" s)
    (fun (db, s) ->
      let idx = Inverted_index.build db in
      let extends p q =
        let p = Pattern.to_array p and q = Pattern.to_array q in
        Array.length q > Array.length p
        && Array.for_all2 ( = ) p (Array.sub q 0 (Array.length p))
      in
      match
        let closed = Brute_force.closed db ~min_sup:s in
        List.for_all
          (fun (p, _) ->
            (not (Closure.lb_prunable idx p))
            || not (List.exists (fun (q, _) -> extends p q) closed))
          (Brute_force.frequent db ~min_sup:s)
      with
      | ok -> ok
      | exception Brute_force.Too_large -> true)

(* Events remapped through an injective map onto sparse, negative ids: the
   closure pre-filter must key its counters on dense alphabet ids, never on
   raw events. Answers on the remapped database must be exactly the
   remapped answers on the dense one. *)
let sparse e = (7919 * e) - 50000

let prop_sparse_event_ids =
  make ~name:"closure + CloGSgrow invariant under sparse negative event ids"
    ~count:80
    QCheck2.Gen.(
      triple (gen_db ~num_seqs:3 ~alphabet:4 ~max_len:8)
        (gen_pattern ~alphabet:4 ~max_len:3) (int_range 1 3))
    (fun (db, p, s) -> print_pair (db, p) ^ Printf.sprintf "\nmin_sup: %d" s)
    (fun (db, p, min_sup) ->
      let remap_seq q = Sequence.of_list (List.map sparse (Sequence.to_list q)) in
      let remap_pat q = Pattern.of_list (List.map sparse (Pattern.to_list q)) in
      let db' = Seqdb.of_array (Array.map remap_seq (Seqdb.sequences db)) in
      let p' = remap_pat p in
      let answers idx pat =
        let mined, _ = Engine.mine Gens.closed idx ~min_sup in
        ( List.sort compare
            (List.map
               (fun r -> (Pattern.to_list r.Mined.pattern, r.Mined.support))
               mined),
          Closure.is_closed idx pat,
          Closure.lb_prunable idx pat )
      in
      let mined, closed, prunable =
        answers (Inverted_index.build db) p
      in
      let expect =
        ( List.sort compare
            (List.map (fun (q, sup) -> (List.map sparse q, sup)) mined),
          closed,
          prunable )
      in
      answers (Inverted_index.build db') p' = expect)

(* The miner's closure checks keep frames on the DFS stack and resume
   their parent's extension sets; the standalone checks run on a fresh
   stack and grow every extension from its base. Their verdicts must agree
   on every DFS node, in two orders:

   - the miner's own: CloGSgrow's strategy with its closure spec wrapped
     to log each node's verdict, so the frames are always the parent's;
   - a replay of every frequent pattern on one shared stack, in a seeded
     random order, with the prefix sets of a common prefix shared
     physically. Frames are then sometimes the right prefix's and
     sometimes another's: a check that trusted a frame without testing
     its owner resumes foreign extension sets.

   A node's check does not see the appends ([has_equal_append:false]), so
   its [closed] is compared with [is_closed] once the appends are
   folded in. Databases are drawn heap or mapped, with dense or sparse
   negative event ids. *)
let has_equal_append idx set events =
  List.exists
    (fun e -> Support_set.size (Support_set.grow idx set e) = Support_set.size set)
    events

let agrees_with_standalone idx events pattern set (v : Closure.verdict) =
  v.Closure.prunable = Closure.lb_prunable ~events idx pattern
  && (v.Closure.closed && not (has_equal_append idx set events))
     = Closure.is_closed ~events idx pattern

let logging_closed log =
  let logged mk idx ~events ~trace =
    let spec = mk idx ~events ~trace in
    {
      spec with
      Engine.check =
        (fun ~pattern ~support_set ~prefix_rev_chain ->
          let v = spec.Engine.check ~pattern ~support_set ~prefix_rev_chain in
          log := (pattern, support_set, events, v) :: !log;
          v);
    }
  in
  { Gens.closed with Engine.closure = Option.map logged Gens.closed.Engine.closure }

let shuffle seed a =
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let frame_verdicts_agree (db, min_sup, (mapped, sparse_ids, seed)) =
  let db =
    if sparse_ids then
      Seqdb.of_array
        (Array.map
           (fun q -> Sequence.of_list (List.map sparse (Sequence.to_list q)))
           (Seqdb.sequences db))
    else db
  in
  let idx = Inverted_index.build (if mapped then Gens.mapped_db db else db) in
  let max_length = 5 in
  let log = ref [] in
  ignore (Engine.mine (logging_closed log) ~max_length idx ~min_sup);
  let dfs_ok =
    List.for_all
      (fun (p, set, events, v) -> agrees_with_standalone idx events p set v)
      !log
  in
  let events = Inverted_index.frequent_events idx ~min_sup in
  let frequent, _ = Engine.mine Gsgrow.strategy ~max_length idx ~min_sup in
  let patterns = Array.of_list (List.map (fun r -> r.Mined.pattern) frequent) in
  shuffle seed patterns;
  (* one support set per prefix, keyed by the reversed prefix *)
  let memo = Hashtbl.create 64 in
  let rec prefix_set = function
    | [] -> assert false
    | e :: rest as key -> (
      match Hashtbl.find_opt memo key with
      | Some s -> s
      | None ->
        let s =
          if rest = [] then Support_set.of_event idx e
          else Support_set.grow idx (prefix_set rest) e
        in
        Hashtbl.add memo key s;
        s)
  in
  let stack = Closure.stack idx ~candidate_events:events in
  let replay_ok =
    Array.for_all
      (fun p ->
        let rev = ref [] in
        let prefix_sets =
          Array.of_list
            (List.map
               (fun e ->
                 rev := e :: !rev;
                 prefix_set !rev)
               (Pattern.to_list p))
        in
        let set = prefix_sets.(Array.length prefix_sets - 1) in
        let v =
          Closure.check stack ~prefix_sets ~pattern:p ~has_equal_append:false
        in
        agrees_with_standalone idx events p set v)
      patterns
  in
  dfs_ok && replay_ok

let prop_frame_verdicts =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xF4A3E |])
    (QCheck2.Test.make
       ~name:"closure frames: DFS and shared-stack verdicts = fresh-stack checks"
       ~count:120
       ~print:(fun (db, s, (mapped, sparse_ids, seed)) ->
         print_db db
         ^ Printf.sprintf "min_sup: %d mapped: %b sparse: %b order seed: %d" s
             mapped sparse_ids seed)
       QCheck2.Gen.(
         triple
           (gen_db ~num_seqs:4 ~alphabet:4 ~max_len:9)
           (int_range 1 3)
           (triple bool bool int))
       frame_verdicts_agree)

let prop_insgrow_incremental =
  make ~name:"supComp(P ◦ e) = INSgrow(supComp(P), e)" ~count:300
    QCheck2.Gen.(triple default_db default_pattern (int_bound 2))
    (fun (db, p, e) -> print_pair (db, p) ^ Printf.sprintf "\nevent: %d" e)
    (fun (db, p, e) ->
      let idx = Inverted_index.build db in
      let grown_direct = Sup_comp.support_set idx (Pattern.grow p e) in
      let grown_incr = Support_set.grow idx (Sup_comp.support_set idx p) e in
      Support_set.equal grown_direct grown_incr)

let suite =
  [
    prop_support_matches_oracle;
    prop_support_set_valid;
    prop_leftmost_borders;
    prop_apriori_growth;
    prop_apriori_deletion;
    prop_gsgrow_complete;
    prop_clogsgrow_closed;
    prop_clogsgrow_lb_invariant;
    prop_closure_check_definition;
    prop_lb_prunable_sound;
    prop_sparse_event_ids;
    prop_frame_verdicts;
    prop_insgrow_incremental;
  ]
