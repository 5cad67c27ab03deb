(* Tests for the data-generation substrate: PRNG determinism, sampler
   sanity, and the statistical calibration of the four dataset
   generators. *)

open Rgs_sequence
open Rgs_datagen

(* --- Splitmix --- *)

let test_determinism () =
  let a = Splitmix.create ~seed:1 in
  let b = Splitmix.create ~seed:1 in
  let xs = List.init 32 (fun _ -> Splitmix.int a 1000) in
  let ys = List.init 32 (fun _ -> Splitmix.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  let c = Splitmix.create ~seed:2 in
  let zs = List.init 32 (fun _ -> Splitmix.int c 1000) in
  Alcotest.(check bool) "different seed, different stream" true (xs <> zs)

let test_ranges () =
  let rng = Splitmix.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Splitmix.int rng 7 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 7);
    let y = Splitmix.int_in rng ~min:3 ~max:5 in
    Alcotest.(check bool) "int_in range" true (y >= 3 && y <= 5);
    let f = Splitmix.float rng in
    Alcotest.(check bool) "float in range" true (f >= 0. && f < 1.)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Splitmix.int: bound must be positive")
    (fun () -> ignore (Splitmix.int rng 0))

let test_split_independence () =
  let rng = Splitmix.create ~seed:4 in
  let child = Splitmix.split rng in
  let xs = List.init 16 (fun _ -> Splitmix.int rng 100) in
  let ys = List.init 16 (fun _ -> Splitmix.int child 100) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_weighted_index () =
  let rng = Splitmix.create ~seed:5 in
  (* index 1 has weight 0: never drawn *)
  for _ = 1 to 500 do
    let k = Splitmix.weighted_index rng [| 1.0; 0.0; 3.0 |] in
    Alcotest.(check bool) "never zero-weight" true (k = 0 || k = 2)
  done;
  Alcotest.check_raises "all zero"
    (Invalid_argument "Splitmix.weighted_index: no positive weight") (fun () ->
      ignore (Splitmix.weighted_index rng [| 0.0; 0.0 |]))

let test_shuffle_permutes () =
  let rng = Splitmix.create ~seed:6 in
  let a = Array.init 50 Fun.id in
  Splitmix.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (list int)) "permutation" (List.init 50 Fun.id) (Array.to_list sorted)

(* --- Samplers --- *)

let mean_of samples = List.fold_left ( +. ) 0. samples /. float_of_int (List.length samples)

let test_poisson_mean () =
  let rng = Splitmix.create ~seed:7 in
  let samples = List.init 3000 (fun _ -> float_of_int (Samplers.poisson rng ~mean:20.)) in
  let m = mean_of samples in
  Alcotest.(check bool) (Printf.sprintf "poisson mean ~20 (got %.2f)" m) true
    (m > 18.5 && m < 21.5);
  (* large-mean path (normal-ish splitting) *)
  let samples = List.init 500 (fun _ -> float_of_int (Samplers.poisson rng ~mean:200.)) in
  let m = mean_of samples in
  Alcotest.(check bool) (Printf.sprintf "poisson mean ~200 (got %.2f)" m) true
    (m > 190. && m < 210.)

let test_geometric_mean () =
  let rng = Splitmix.create ~seed:8 in
  let p = 0.25 in
  let samples = List.init 4000 (fun _ -> float_of_int (Samplers.geometric rng ~p)) in
  let m = mean_of samples in
  (* mean = (1-p)/p = 3 *)
  Alcotest.(check bool) (Printf.sprintf "geometric mean ~3 (got %.2f)" m) true
    (m > 2.7 && m < 3.3)

let test_zipf_skew () =
  let rng = Splitmix.create ~seed:9 in
  let z = Samplers.zipf ~n:100 ~s:1.2 in
  let counts = Array.make 100 0 in
  for _ = 1 to 5000 do
    let k = Samplers.zipf_draw rng z in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 100);
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true (counts.(0) > counts.(10));
  Alcotest.(check bool) "strong skew" true (counts.(0) > 5000 / 10)

let test_pareto_bounds () =
  let rng = Splitmix.create ~seed:10 in
  for _ = 1 to 1000 do
    let x = Samplers.pareto_int rng ~alpha:1.1 ~x_min:20 ~max_value:651 in
    Alcotest.(check bool) "bounded" true (x >= 20 && x <= 651)
  done

(* --- Quest generator --- *)

let test_quest_shape () =
  let params = Quest_gen.params ~d:200 ~c:20 ~n:1000 ~s:5 () in
  let db = Quest_gen.generate params in
  let st = Seqdb.stats db in
  Alcotest.(check int) "D sequences" 200 st.Seqdb.num_sequences;
  Alcotest.(check bool)
    (Printf.sprintf "avg length ~C (got %.1f)" st.Seqdb.avg_length)
    true
    (st.Seqdb.avg_length > 15. && st.Seqdb.avg_length < 26.);
  Alcotest.(check bool) "alphabet bounded by N" true (st.Seqdb.num_events <= 1000);
  (* determinism *)
  Alcotest.(check bool) "deterministic" true
    (Seqdb.equal db (Quest_gen.generate params));
  (* different seed differs *)
  let params' = Quest_gen.params ~d:200 ~c:20 ~n:1000 ~s:5 ~seed:7 () in
  Alcotest.(check bool) "seed-sensitive" false (Seqdb.equal db (Quest_gen.generate params'))

let test_quest_label () =
  Alcotest.(check string) "paper label" "D5C20N10S20"
    (Quest_gen.label (Quest_gen.params ~d:5000 ~c:20 ~n:10000 ~s:20 ()));
  Alcotest.(check string) "absolute label" "D500C20N10S20"
    (Quest_gen.label (Quest_gen.params ~d:500 ~c:20 ~n:10000 ~s:20 ()))

let test_quest_embeds_patterns () =
  (* With no noise and no corruption, sequences are concatenations of pool
     patterns, so mining should find a long frequent pattern. *)
  let params =
    Quest_gen.params ~d:30 ~c:30 ~n:50 ~s:6 ~num_patterns:3 ~corruption:0.0
      ~noise_ratio:0.0 ()
  in
  let db = Quest_gen.generate params in
  let idx = Inverted_index.build db in
  let results, _ = Rgs_core.Engine.mine Rgs_core.Gsgrow.strategy ~max_length:3 idx ~min_sup:30 in
  Alcotest.(check bool) "frequent length-3 pattern exists" true
    (List.exists (fun r -> Rgs_core.Pattern.length r.Rgs_core.Mined.pattern = 3) results)

(* --- Clickstream generator --- *)

let test_clickstream_shape () =
  let params = Clickstream_gen.gazelle_like ~scale:0.05 () in
  let db = Clickstream_gen.generate params in
  let st = Seqdb.stats db in
  Alcotest.(check int) "scaled sequences" 1468 st.Seqdb.num_sequences;
  Alcotest.(check bool)
    (Printf.sprintf "short average (got %.2f)" st.Seqdb.avg_length)
    true (st.Seqdb.avg_length < 10.);
  Alcotest.(check bool)
    (Printf.sprintf "heavy tail (max %d)" st.Seqdb.max_length)
    true
    (st.Seqdb.max_length > 15);
  Alcotest.(check bool) "bounded" true (st.Seqdb.max_length <= 651)

(* --- Trace generator --- *)

let test_trace_model_runner () =
  let open Trace_gen in
  let rng = Splitmix.create ~seed:11 in
  let model = Seq [ Emit 1; Branch [ (1.0, Emit 2); (0.0, Emit 3) ]; Emit 4 ] in
  let s = run_model rng model in
  Alcotest.(check (list int)) "deterministic branch" [ 1; 2; 4 ] (Sequence.to_list s);
  (* loop runs at least once, at most max_iters *)
  let loop = Loop { body = Emit 7; continue_p = 1.0; max_iters = 5 } in
  let s = run_model rng loop in
  Alcotest.(check (list int)) "loop capped" [ 7; 7; 7; 7; 7 ] (Sequence.to_list s);
  let never = Loop { body = Emit 7; continue_p = 0.0; max_iters = 5 } in
  let s = run_model rng never in
  Alcotest.(check (list int)) "loop at least once" [ 7 ] (Sequence.to_list s);
  (* max_length truncation *)
  let s = run_model rng ~max_length:3 (Seq [ Emit 1; Emit 2; Emit 3; Emit 4 ]) in
  Alcotest.(check int) "truncated" 3 (Sequence.length s)

let test_trace_model_events () =
  let open Trace_gen in
  let model = Seq [ Emit 3; Opt (0.5, Emit 1); Loop { body = Emit 2; continue_p = 0.1; max_iters = 2 } ] in
  Alcotest.(check (list int)) "collected events" [ 1; 2; 3 ] (events_of_model model)

let test_tcas_shape () =
  let db = Trace_gen.generate (Trace_gen.tcas_like ~scale:0.5 ()) in
  let st = Seqdb.stats db in
  Alcotest.(check int) "sequences" 789 st.Seqdb.num_sequences;
  Alcotest.(check bool) "max <= 70" true (st.Seqdb.max_length <= 70);
  Alcotest.(check bool)
    (Printf.sprintf "avg in trace range (got %.1f)" st.Seqdb.avg_length)
    true
    (st.Seqdb.avg_length > 15. && st.Seqdb.avg_length < 70.);
  Alcotest.(check bool) "alphabet <= 75" true (st.Seqdb.num_events <= 75)

(* --- JBoss generator --- *)

let test_jboss_shape () =
  let db, codec = Jboss_gen.generate (Jboss_gen.params ()) in
  let st = Seqdb.stats db in
  Alcotest.(check int) "28 traces" 28 st.Seqdb.num_sequences;
  Alcotest.(check bool) "max <= 125" true (st.Seqdb.max_length <= 125);
  Alcotest.(check bool)
    (Printf.sprintf "avg near 91 (got %.1f)" st.Seqdb.avg_length)
    true
    (st.Seqdb.avg_length > 50. && st.Seqdb.avg_length < 125.);
  (* every lifecycle event is interned *)
  List.iter
    (fun name ->
      Alcotest.(check bool) ("interned: " ^ name) true
        (Option.is_some (Codec.find codec name)))
    Jboss_gen.full_lifecycle;
  Alcotest.(check int) "lifecycle has 66 steps" 66 (List.length Jboss_gen.full_lifecycle);
  Alcotest.(check int) "six blocks" 6 (List.length Jboss_gen.blocks)

let test_jboss_rollback_path () =
  (* With rollback_p = 1 every transaction aborts: rollback events appear,
     commit events do not. *)
  let db, codec = Jboss_gen.generate (Jboss_gen.params ~rollback_p:1.0 ()) in
  let has name =
    match Codec.find codec name with
    | None -> false
    | Some e -> Seqdb.event_count db e > 0
  in
  Alcotest.(check bool) "rollback present" true (has "TxManager.rollback");
  Alcotest.(check bool) "commit absent" false (has "TxManager.commit");
  (* and the complement *)
  let db, codec = Jboss_gen.generate (Jboss_gen.params ~rollback_p:0.0 ()) in
  let has name =
    match Codec.find codec name with
    | None -> false
    | Some e -> Seqdb.event_count db e > 0
  in
  Alcotest.(check bool) "commit present" true (has "TxManager.commit");
  Alcotest.(check bool) "rollback absent" false (has "TxManager.rollback")

let test_clickstream_revisit_extremes () =
  (* With revisit_p = 1 every click after the first repeats an earlier
     page, so each session has exactly one distinct event. *)
  let db =
    Clickstream_gen.generate
      (Clickstream_gen.params ~num_sequences:50 ~revisit_p:1.0 ())
  in
  Seqdb.iter
    (fun i s ->
      if Sequence.length s > 0 then
        Alcotest.(check int)
          (Printf.sprintf "session %d single page" i)
          1
          (List.length (Sequence.events s)))
    db

let test_splitmix_copy () =
  let a = Splitmix.create ~seed:99 in
  ignore (Splitmix.int a 10);
  let b = Splitmix.copy a in
  let xs = List.init 8 (fun _ -> Splitmix.int a 1000) in
  let ys = List.init 8 (fun _ -> Splitmix.int b 1000) in
  Alcotest.(check (list int)) "copy continues identically" xs ys

let test_jboss_lock_unlock_frequent () =
  let db, codec = Jboss_gen.generate (Jboss_gen.params ()) in
  let lock = Option.get (Codec.find codec "TransImpl.lock") in
  let unlock = Option.get (Codec.find codec "TransImpl.unlock") in
  let sup =
    Rgs_core.Sup_comp.support (Inverted_index.build db)
      (Rgs_core.Pattern.of_list [ lock; unlock ])
  in
  (* the case study's most frequent fine-grained behaviour *)
  Alcotest.(check bool) (Printf.sprintf "lock->unlock frequent (sup %d)" sup) true (sup > 28)

let suite =
  [
    Alcotest.test_case "splitmix determinism" `Quick test_determinism;
    Alcotest.test_case "splitmix ranges" `Quick test_ranges;
    Alcotest.test_case "splitmix split" `Quick test_split_independence;
    Alcotest.test_case "weighted index" `Quick test_weighted_index;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
    Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "pareto bounds" `Quick test_pareto_bounds;
    Alcotest.test_case "quest shape" `Quick test_quest_shape;
    Alcotest.test_case "quest label" `Quick test_quest_label;
    Alcotest.test_case "quest embeds patterns" `Quick test_quest_embeds_patterns;
    Alcotest.test_case "clickstream shape" `Quick test_clickstream_shape;
    Alcotest.test_case "trace model runner" `Quick test_trace_model_runner;
    Alcotest.test_case "trace model events" `Quick test_trace_model_events;
    Alcotest.test_case "tcas shape" `Quick test_tcas_shape;
    Alcotest.test_case "jboss shape" `Quick test_jboss_shape;
    Alcotest.test_case "jboss rollback path" `Quick test_jboss_rollback_path;
    Alcotest.test_case "clickstream revisit extremes" `Quick test_clickstream_revisit_extremes;
    Alcotest.test_case "splitmix copy" `Quick test_splitmix_copy;
    Alcotest.test_case "jboss lock-unlock" `Quick test_jboss_lock_unlock_frequent;
  ]
