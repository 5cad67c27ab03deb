(* Benchmark harness: regenerates every table and figure of the paper
   (Section A) and runs one Bechamel micro-benchmark per experiment id
   (Section B).

   Run with: dune exec bench/main.exe
   Knobs (environment):
     RGS_BENCH_SCALE    dataset scale relative to the paper (default 0.05)
     RGS_BENCH_TIMEOUT  per-mining-run cut-off in seconds (default 5)
     RGS_BENCH_SKIP_TABLES / RGS_BENCH_SKIP_MICRO / RGS_BENCH_SKIP_CHECKPOINT /
     RGS_BENCH_SKIP_QUERY / RGS_BENCH_SKIP_STORE / RGS_BENCH_SKIP_STEAL /
     RGS_BENCH_SKIP_SUPERVISE
                        set to 1 to skip a section (RGS_BENCH_SKIP_STEAL
                        skips Section G, the shards x pool sweep)
     RGS_DATA_DIR       where the checked-in datasets live (default data)
     RGS_BENCH_LAYOUT_REPS  timing repetitions per Section F-H run (default 3)

   Sections A, B and D-H print tables and fail on their gates; the
   repository's benchmark ledger is perfbench/ (see perfbench/README.md).

   The tables here are shape-checks at reduced scale; EXPERIMENTS.md records
   the larger-budget runs produced with bin/experiments.exe. *)

module E = Rgs_experiments

let env_float name default =
  match Sys.getenv_opt name with Some v -> float_of_string v | None -> default

let env_flag name = Sys.getenv_opt name = Some "1"

let scale = env_float "RGS_BENCH_SCALE" 0.05
let timeout_s = env_float "RGS_BENCH_TIMEOUT" 5.

(* Timing repetitions per Section F-H measurement. *)
let reps = int_of_float (env_float "RGS_BENCH_LAYOUT_REPS" 3.) |> max 1

(* Best-of-[reps] wall time of [f], after one untimed warm-up run. *)
let best f =
  ignore (f ());
  let wall = ref infinity in
  for _ = 1 to reps do
    let _, elapsed = E.Exp_common.time f in
    if elapsed < !wall then wall := elapsed
  done;
  !wall

let print_table title t =
  Format.printf "== %s ==@.%s@." title (Rgs_post.Report.to_string t)

(* --- Section A: paper tables and figures --- *)

let section_tables () =
  Format.printf "### Section A: paper tables and figures (scale %.2f, cut-off %.0fs)@.@."
    scale timeout_s;
  print_table "Table I: support semantics on Example 1.1" (E.Table1.report ());
  let sweep name ~x_label (rows, label) =
    print_table
      (Printf.sprintf "%s — %s" name label)
      (E.Sweeps.report ~x_label rows);
    print_string (E.Sweeps.charts rows);
    print_newline ()
  in
  sweep "Figure 2 (runtime & #patterns vs min_sup)" ~x_label:"min_sup"
    (E.Sweeps.fig2 ~scale ~timeout_s ());
  sweep "Figure 3 (runtime & #patterns vs min_sup)" ~x_label:"min_sup"
    (E.Sweeps.fig3 ~scale ~timeout_s ());
  sweep "Figure 4 (runtime & #patterns vs min_sup)" ~x_label:"min_sup"
    (E.Sweeps.fig4 ~scale:(max scale 0.1) ~timeout_s ());
  sweep "Figure 5 (vary #sequences D)" ~x_label:"D"
    (E.Sweeps.fig5 ~scale ~timeout_s ());
  sweep "Figure 6 (vary average length C=S)" ~x_label:"avg_len"
    (E.Sweeps.fig6 ~scale ~timeout_s ());
  let db = E.Exp_common.quest_d5c20n10s20 ~scale () in
  print_table "Sec IV-A comparators — D5C20N10S20-like, min_sup=10"
    (E.Comparators.report (E.Comparators.compare_all ~timeout_s db ~min_sup:10));
  let tcas = E.Exp_common.tcas_like ~scale:0.1 () in
  print_table "Ablation (DESIGN.md) — TCAS-like, min_sup=100"
    (E.Ablation.report (E.Ablation.run ~timeout_s tcas ~min_sup:100));
  let o = E.Case_study.run ~max_patterns:2000 () in
  print_table "Sec IV-B case study — JBoss-like traces, min_sup=18" (E.Case_study.report o)

(* --- Section F: binary store — zero-copy open vs text parse ---

   The paper-scale corpus is generated from data/quest_paper.config
   (deterministic, never checked in as text), saved in the SPMF text
   format and packed into a .rgsdb. Three budgets are enforced, so a
   regression in the store's open path or the mapped read path fails the
   bench instead of drifting: the mmap open must beat the text parse by
   >= 100x, mining the mapped database must produce output identical to
   the text path, and the workload must actually exercise the cursor's
   doubling search (cursor_gallops > 0 — long postings are the point of
   this corpus). *)

let section_store () =
  let open Rgs_sequence in
  let open Rgs_core in
  let module Store = Rgs_store.Store in
  let signatures results =
    List.map (fun r -> (Pattern.to_string r.Mined.pattern, r.Mined.support)) results
  in
  let data_dir = Option.value (Sys.getenv_opt "RGS_DATA_DIR") ~default:"data" in
  let config_path = Filename.concat data_dir "quest_paper.config" in
  Format.printf
    "@.### Section F: binary store — zero-copy open vs text parse@.@.";
  if not (Sys.file_exists config_path) then
    Format.printf "(skipping: %s not found)@." config_path
  else begin
    let p = Rgs_datagen.Quest_gen.load_config config_path in
    let label = Rgs_datagen.Quest_gen.label p in
    let db, gen_s = E.Exp_common.time (fun () -> Rgs_datagen.Quest_gen.generate p) in
    let alphabet = Alphabet.size (Seqdb.dense_alphabet db) in
    Format.printf "%s: %d sequences, %d events, alphabet %d (generated in %.1fs)@."
      label (Seqdb.size db) (Seqdb.total_length db) alphabet gen_s;
    let txt = Filename.temp_file "rgs_bench_store" ".spmf" in
    let rgsdb = Filename.temp_file "rgs_bench_store" ".rgsdb" in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ txt; rgsdb ])
      (fun () ->
        Seq_io.save_spmf db txt;
        Store.write ~path:rgsdb db;
        let size f = (Unix.stat f).Unix.st_size in
        let text_bytes = size txt and store_bytes = size rgsdb in
        let parse_s = best (fun () -> Seq_io.load_spmf txt) in
        let open_s = best (fun () -> Store.open_db rgsdb) in
        let speedup = parse_s /. open_s in
        let t =
          Rgs_post.Report.create
            ~columns:[ "path"; "bytes"; "load_s"; "speedup" ]
        in
        Rgs_post.Report.add_row t
          [ "text (spmf parse)"; string_of_int text_bytes;
            Rgs_post.Report.cell_float parse_s; "1.0x" ];
        Rgs_post.Report.add_row t
          [ "store (mmap open)"; string_of_int store_bytes;
            Rgs_post.Report.cell_float open_s;
            Printf.sprintf "%.0fx" speedup ];
        print_table
          (Printf.sprintf "open cost — %s, best of %d" label reps) t;
        if speedup < 100. then
          failwith
            (Printf.sprintf
               "store bench: mmap open is only %.1fx faster than the text \
                parse (budget: >= 100x)"
               speedup);
        (* the mapped database must mine exactly like the parsed one, and
           the long postings must drive the cursor into its gallop path.
           GSgrow (mine-all): on this dense corpus CloGSgrow's closure
           pass multiplies the work ~120x without changing what this
           section pins, the mapped read path *)
        let min_sup = 2000 and max_length = 2 in
        let text_db = Seq_io.load_spmf txt in
        let store_t = Store.open_store rgsdb in
        let mine db =
          let idx = Inverted_index.build_kind Inverted_index.Kcsr db in
          Metrics.reset ();
          let results, wall =
            E.Exp_common.time (fun () ->
                fst (Gsgrow.mine ~max_length idx ~min_sup))
          in
          (signatures results, wall, Metrics.value Metrics.cursor_gallops)
        in
        let out_text, mine_text_s, _ = mine text_db in
        let out_store, mine_store_s, gallops = mine (Store.db store_t) in
        if out_text <> out_store then
          failwith "store bench: mapped mining output differs from text path";
        if gallops = 0 then
          failwith
            "store bench: cursor_gallops = 0 — the paper-scale corpus no \
             longer exercises the gallop path";
        Format.printf
          "gsgrow min_sup=%d max_length=%d: %d patterns, text %.2fs, \
           store %.2fs, %d gallops (outputs identical)@."
          min_sup max_length (List.length out_text) mine_text_s mine_store_s
          gallops)
  end

(* --- Section G: shard-parallel mining on the root pool ---

   Correctness-as-performance-contract: on the JBoss-like corpus (and the
   paper-scale QUEST corpus when its config is present), mining on the
   root pool under every shard count in {1,2,4,8} produces output
   byte-identical to the sequential miner (enforced; a divergence fails
   the bench). The wall time per shard count is recorded, not gated. *)

let section_shards () =
  let open Rgs_sequence in
  let open Rgs_core in
  let signatures results =
    List.map (fun r -> (Pattern.to_string r.Mined.pattern, r.Mined.support)) results
  in
  let domains = 4 in
  Format.printf
    "@.### Section G: shard-parallel mining on the root pool (%d domains, \
     best of %d)@.@."
    domains reps;
  let jboss, _ = E.Exp_common.jboss_like () in
  let datasets =
    ("jboss_like", jboss, 18, 4)
    ::
    (let data_dir = Option.value (Sys.getenv_opt "RGS_DATA_DIR") ~default:"data" in
     let config_path = Filename.concat data_dir "quest_paper.config" in
     if not (Sys.file_exists config_path) then begin
       Format.printf "(skipping quest_paper: %s not found)@." config_path;
       []
     end
     else
       let p = Rgs_datagen.Quest_gen.load_config config_path in
       (* mine-all at a high threshold, as in the store section: the
          closure pass would multiply the work without changing what
          this section pins (sharded pool output) *)
       [ (Rgs_datagen.Quest_gen.label p, Rgs_datagen.Quest_gen.generate p,
          2000, 2) ])
  in
  let t =
    Rgs_post.Report.create ~columns:[ "dataset"; "shards"; "time_s"; "patterns" ]
  in
  List.iter
    (fun (name, db, min_sup, max_length) ->
      let idx = Inverted_index.build_kind Inverted_index.Kcsr db in
      let all_mode = min_sup >= 2000 in
      let mine ~shards () =
        if all_mode then
          fst (Parallel_miner.mine_all ~domains ~max_length ~shards idx ~min_sup)
        else
          fst (Parallel_miner.mine_closed ~domains ~max_length ~shards idx ~min_sup)
      in
      let sequential =
        signatures
          (if all_mode then fst (Gsgrow.mine ~max_length idx ~min_sup)
           else fst (Clogsgrow.mine ~max_length idx ~min_sup))
      in
      List.iter
        (fun shards ->
          let out = signatures (mine ~shards ()) in
          if out <> sequential then
            failwith
              (Printf.sprintf
                 "shard bench: %s shards=%d: output differs from the \
                  sequential miner"
                 name shards);
          let wall = best (fun () -> ignore (mine ~shards ())) in
          Rgs_post.Report.add_row t
            [ name; string_of_int shards;
              Rgs_post.Report.cell_float wall;
              string_of_int (List.length out) ])
        [ 1; 2; 4; 8 ])
    datasets;
  print_table "shards x pool — outputs checked against sequential" t

(* --- Section H: supervised multi-process shard workers ---

   Pins the supervision tax. Mining with every instance growth shipped to
   per-shard rgsworker processes over the CRC-framed socketpairs must
   stay byte-identical to the in-process sharded run (enforced; that is
   the whole contract of the supervisor), and a fault-free run must
   spawn exactly one worker per shard, restart none and never degrade
   (enforced — a restart here means the handshake or liveness deadline
   is mis-tuned, not a flaky host). What is recorded, not gated, is the
   overhead ratio of supervised vs in-process growth per shard count —
   the price of crash isolation. Skipped gracefully when the rgsworker
   executable is not built next to the bench binary;
   RGS_BENCH_SKIP_SUPERVISE gates the whole section (the perf-smoke
   alias sets it: process supervision has no place in a 1-rep smoke). *)

let section_supervise () =
  let open Rgs_core in
  let worker_exe =
    Filename.concat (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "rgsworker.exe"))
  in
  Format.printf "@.### Section H: supervised multi-process shard workers@.@.";
  if not (Sys.file_exists worker_exe) then
    Format.printf "(skipping: %s not built)@." worker_exe
  else begin
    let signatures results =
      List.map
        (fun r -> (Pattern.to_string r.Mined.pattern, r.Mined.support))
        results
    in
    let db, _ = E.Exp_common.jboss_like () in
    let min_sup = 18 and max_length = 4 in
    let sequential =
      signatures
        (Miner.mine
           ~config:(Miner.config ~max_length ~min_sup ())
           db)
          .Miner.results
    in
    let t =
      Rgs_post.Report.create
        ~columns:
          [ "shards"; "mode"; "time_s"; "overhead_x"; "spawns"; "restarts" ]
    in
    List.iter
      (fun shards ->
        let inproc_cfg = Miner.config ~shards ~max_length ~min_sup () in
        let inproc_wall =
          best (fun () -> ignore (Miner.mine ~config:inproc_cfg db))
        in
        let sup =
          Rgs_server.Supervisor.create
            (Rgs_server.Supervisor.config ~shards ~worker_exe ())
            db
        in
        Fun.protect
          ~finally:(fun () -> Rgs_server.Supervisor.shutdown sup)
          (fun () ->
            let cfg =
              Miner.config ~shards
                ~shard_dispatch:(Rgs_server.Supervisor.dispatch sup)
                ~max_length ~min_sup ()
            in
            let out = signatures (Miner.mine ~config:cfg db).Miner.results in
            if out <> sequential then
              failwith
                (Printf.sprintf
                   "supervise bench: shards=%d: output differs from the \
                    sequential miner"
                   shards);
            let wall = best (fun () -> ignore (Miner.mine ~config:cfg db)) in
            let s = Rgs_server.Supervisor.stats sup in
            if s.Rgs_server.Supervisor.degraded then
              failwith "supervise bench: supervisor degraded on a healthy host";
            if s.Rgs_server.Supervisor.restarts > 0 then
              failwith
                (Printf.sprintf
                   "supervise bench: %d restart(s) without any injected fault"
                   s.Rgs_server.Supervisor.restarts);
            if s.Rgs_server.Supervisor.spawns <> shards then
              failwith
                (Printf.sprintf
                   "supervise bench: %d spawn(s) for %d shard(s)"
                   s.Rgs_server.Supervisor.spawns shards);
            let overhead = wall /. inproc_wall in
            Rgs_post.Report.add_row t
              [ string_of_int shards; "in-process";
                Rgs_post.Report.cell_float inproc_wall; "1.00"; "-"; "-" ];
            Rgs_post.Report.add_row t
              [ string_of_int shards; "supervised";
                Rgs_post.Report.cell_float wall;
                Printf.sprintf "%.2f" overhead;
                string_of_int s.Rgs_server.Supervisor.spawns;
                string_of_int s.Rgs_server.Supervisor.restarts ]))
      [ 2; 4 ];
    print_table
      "supervised worker processes vs in-process sharded growth \
       (outputs checked against sequential)"
      t
  end

(* --- Section B: bechamel micro-benchmarks, one per experiment id --- *)

open Bechamel
open Toolkit

let micro_tests () =
  let open Rgs_sequence in
  let open Rgs_core in
  (* Fixed small inputs so each staged function runs in well under 100ms. *)
  let table1_db = Seqdb.of_strings [ "AABCDABB"; "ABCD" ] in
  let quest = E.Exp_common.quest_d5c20n10s20 ~scale:0.02 () in
  let quest_idx = Inverted_index.build quest in
  let gazelle = E.Exp_common.gazelle_like ~scale:0.02 () in
  let gazelle_idx = Inverted_index.build gazelle in
  let tcas = E.Exp_common.tcas_like ~scale:0.02 () in
  let tcas_idx = Inverted_index.build tcas in
  let jboss, jboss_codec = E.Exp_common.jboss_like () in
  let jboss_idx = Inverted_index.build jboss in
  let lock = Option.get (Codec.find jboss_codec "TransImpl.lock") in
  let unlock = Option.get (Codec.find jboss_codec "TransImpl.unlock") in
  let lock_unlock = Pattern.of_list [ lock; unlock ] in
  let table3_idx = Inverted_index.build (Seqdb.of_strings [ "ABCACBDDB"; "ACDBACADD" ]) in
  let acb = Pattern.of_string "ACB" in
  [
    Test.make ~name:"table1:semantics-rows" (Staged.stage (fun () ->
        Sys.opaque_identity (E.Table1.rows ())));
    Test.make ~name:"fig2:clogsgrow-quest" (Staged.stage (fun () ->
        Sys.opaque_identity (Clogsgrow.mine ~max_length:4 quest_idx ~min_sup:5)));
    Test.make ~name:"fig3:clogsgrow-gazelle" (Staged.stage (fun () ->
        Sys.opaque_identity (Clogsgrow.mine ~max_length:3 gazelle_idx ~min_sup:60)));
    Test.make ~name:"fig4:clogsgrow-tcas" (Staged.stage (fun () ->
        Sys.opaque_identity (Clogsgrow.mine ~max_length:3 tcas_idx ~min_sup:15)));
    Test.make ~name:"fig5:gsgrow-quest" (Staged.stage (fun () ->
        Sys.opaque_identity (Gsgrow.mine ~max_length:4 quest_idx ~min_sup:5)));
    Test.make ~name:"fig6:supcomp-long-pattern" (Staged.stage (fun () ->
        Sys.opaque_identity (Sup_comp.support table3_idx acb)));
    Test.make ~name:"comparators:prefixspan-quest" (Staged.stage (fun () ->
        Sys.opaque_identity (Rgs_baselines.Prefixspan.mine ~max_length:4 quest ~min_sup:5)));
    Test.make ~name:"comparators:bide-quest" (Staged.stage (fun () ->
        Sys.opaque_identity (Rgs_baselines.Bide.mine ~max_length:4 quest ~min_sup:5)));
    Test.make ~name:"casestudy:supcomp-lock-unlock" (Staged.stage (fun () ->
        Sys.opaque_identity (Sup_comp.support jboss_idx lock_unlock)));
    Test.make ~name:"casestudy:closure-check" (Staged.stage (fun () ->
        Sys.opaque_identity (Closure.is_closed jboss_idx lock_unlock)));
    Test.make ~name:"primitive:index-build" (Staged.stage (fun () ->
        Sys.opaque_identity (Inverted_index.build table1_db)));
    Test.make ~name:"primitive:insgrow" (Staged.stage (fun () ->
        let i = Support_set.of_event table3_idx 0 in
        Sys.opaque_identity (Support_set.grow table3_idx i 2)));
    Test.make ~name:"primitive:btree-successor" (Staged.stage (fun () ->
        let bt = Btree.of_sorted_array (Array.init 1000 (fun i -> 2 * i)) in
        Sys.opaque_identity (Btree.successor bt 999)));
  ]

(* Parallel scaling: one timed CloGSgrow per domain count (too coarse for
   bechamel's sampling; measured directly). Speedup only appears on
   multi-core hosts; output equality with the sequential miner is
   guaranteed either way (test/test_parallel.ml). *)
let section_parallel () =
  let open Rgs_core in
  Format.printf "host cores (recommended domains): %d@."
    (Domain.recommended_domain_count ());
  let jboss, _ = E.Exp_common.jboss_like () in
  let idx = Rgs_sequence.Inverted_index.build jboss in
  let t = Rgs_post.Report.create ~columns:[ "domains"; "time_s"; "patterns" ] in
  let counts =
    List.sort_uniq compare [ 1; 2; Parallel_miner.default_domains () ]
  in
  List.iter
    (fun domains ->
      let (results, _), elapsed =
        E.Exp_common.time (fun () ->
            Parallel_miner.mine_closed ~domains ~max_length:5 idx ~min_sup:18)
      in
      Rgs_post.Report.add_row t
        [ string_of_int domains; Rgs_post.Report.cell_float elapsed;
          string_of_int (List.length results) ])
    counts;
  print_table "parallel CloGSgrow scaling — JBoss-like, min_sup=18, max_length=5" t

(* --- Section D: durable checkpoint log — append vs whole-file rewrite ---

   PR 1's checkpoint rewrote the whole file after every completed root, so
   saving root i cost O(results of roots 1..i) — O(n^2) marshalling over a
   run. The record log appends one CRC32-framed record per root. This
   section replays both strategies over the same mined results at several
   root counts; "rewrite" is what the seed format would have paid. *)

let section_checkpoint () =
  let open Rgs_core in
  Format.printf "@.### Section D: checkpoint log — append vs whole-file rewrite@.@.";
  let db = E.Exp_common.quest_d5c20n10s20 ~scale:0.05 () in
  let report = Miner.mine ~config:(Miner.config ~min_sup:10 ~max_length:4 ()) db in
  let results = report.Miner.results in
  let fp = String.make 32 'b' in
  let entries n =
    List.init n (fun k ->
        { Checkpoint.root = k; results = List.filteri (fun i _ -> i mod n = k) results })
  in
  let with_temp f =
    let path = Filename.temp_file "rgs_bench_ckpt" ".bin" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
      (fun () -> f path)
  in
  let t =
    Rgs_post.Report.create
      ~columns:[ "roots"; "rewrite_s"; "append_s"; "rewrite/append"; "log_bytes" ]
  in
  List.iter
    (fun n ->
      let es = entries n in
      let prefix i = List.filteri (fun j _ -> j < i) es in
      let (), rewrite_s =
        E.Exp_common.time (fun () ->
            with_temp (fun path ->
                for i = 1 to n do
                  Checkpoint.write ~path ~fingerprint:fp ~completed:(prefix i)
                    ~quarantined:[] ()
                done))
      in
      let bytes = ref 0 in
      let (), append_s =
        E.Exp_common.time (fun () ->
            with_temp (fun path ->
                let w = Checkpoint.Writer.create ~path ~fingerprint:fp () in
                List.iter
                  (fun e -> Checkpoint.Writer.append w (Checkpoint.Root_done e))
                  es;
                Checkpoint.Writer.close w;
                bytes := (Unix.stat path).Unix.st_size))
      in
      Rgs_post.Report.add_row t
        [ string_of_int n; Rgs_post.Report.cell_float rewrite_s;
          Rgs_post.Report.cell_float append_s;
          Printf.sprintf "%.1fx" (rewrite_s /. append_s);
          string_of_int !bytes ])
    [ 8; 32; 128 ];
  print_table
    (Printf.sprintf "checkpoint save cost over a run (%d mined patterns)"
       (List.length results))
    t

let section_micro () =
  Format.printf "@.### Section B: bechamel micro-benchmarks@.@.";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None
      ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let t = Rgs_post.Report.create ~columns:[ "bench"; "time/run" ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let cell =
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] ->
              if est > 1e9 then Printf.sprintf "%.3f s" (est /. 1e9)
              else if est > 1e6 then Printf.sprintf "%.3f ms" (est /. 1e6)
              else if est > 1e3 then Printf.sprintf "%.3f us" (est /. 1e3)
              else Printf.sprintf "%.0f ns" est
            | _ -> "n/a"
          in
          Rgs_post.Report.add_row t [ name; cell ])
        analyzed)
    (micro_tests ());
  print_table "micro-benchmarks (OLS time per run)" t

(* --- Section E: query answer modes — in-DFS pruning vs mine-all ---

   The query layer's one claim worth benching: a top-k or targeted answer
   is computed by visiting fewer DFS nodes, not by post-filtering a full
   enumeration. Every mode's answer is checked against the mine-all run
   (the k best supports for top-k, the exact filtered subset for
   targeted). Two budgets are enforced, so a pruning regression fails the
   bench instead of drifting silently: top-100 on jboss_traces must expand
   under 25% of mine-all's nodes, and the answers must match mine-all
   exactly. *)

let section_query () =
  let open Rgs_sequence in
  let open Rgs_core in
  let data_dir = Option.value (Sys.getenv_opt "RGS_DATA_DIR") ~default:"data" in
  Format.printf
    "@.### Section E: query answer modes — in-DFS pruning vs mine-all@.@.";
  let datasets =
    List.filter_map
      (fun (name, file, min_sup, max_length) ->
        let path = Filename.concat data_dir file in
        if Sys.file_exists path then Some (name, path, min_sup, max_length)
        else begin
          Format.printf "(skipping %s: %s not found)@." name path;
          None
        end)
      [
        ("quest_small", "quest_small.txt", 4, Some 5);
        ("jboss_traces", "jboss_traces.txt", 18, Some 4);
      ]
  in
  let delta_lines = ref [] in
  let t =
    Rgs_post.Report.create
      ~columns:[ "dataset"; "mode"; "dfs_nodes"; "node%"; "patterns"; "time_s" ]
  in
  List.iter
    (fun (name, path, min_sup, max_length) ->
      let db, _codec = Seq_io.load_tokens path in
      let idx = Inverted_index.build_kind Inverted_index.Kcsr db in
      (* queries prune hardest where the pattern universe is largest: the
         all-patterns mode (the closed sets of these datasets are smaller
         than k = 100, which would make top-k pruning a no-op) *)
      let run ?(mode = Miner.All) query =
        Metrics.reset ();
        let report, wall =
          E.Exp_common.time (fun () ->
              Miner.mine_indexed
                (Miner.config ~mode ~query ?max_length ~min_sup ())
                idx)
        in
        (report.Miner.results, Metrics.value Metrics.dfs_nodes, wall)
      in
      let sig_of m = (Pattern.to_list m.Mined.pattern, m.Mined.support) in
      let all, nodes_all, wall_all = run Query.All in
      let row mode nodes patterns wall =
        let pct =
          100. *. float_of_int nodes /. float_of_int (max 1 nodes_all)
        in
        Rgs_post.Report.add_row t
          [ name; mode; string_of_int nodes; Printf.sprintf "%.1f%%" pct;
            string_of_int patterns; Rgs_post.Report.cell_float wall ];
        pct
      in
      ignore (row "all" nodes_all (List.length all) wall_all);
      (* top-100: the supports must be exactly the 100 best of mine-all *)
      let k = 100 in
      let topk, nodes_topk, wall_topk = run (Query.Top_k k) in
      let expect_sup =
        List.filteri (fun i _ -> i < k)
          (List.sort Mined.compare_by_support_desc all)
        |> List.map (fun m -> m.Mined.support)
        |> List.sort compare
      in
      let got_sup =
        List.map (fun m -> m.Mined.support) topk |> List.sort compare
      in
      if got_sup <> expect_sup then
        failwith
          (Printf.sprintf
             "query bench: %s: top-%d supports differ from mine-all" name k);
      let pct =
        row (Printf.sprintf "top-%d" k) nodes_topk (List.length topk)
          wall_topk
      in
      if name = "jboss_traces" && pct >= 25.0 then
        failwith
          (Printf.sprintf
             "query bench: top-%d on %s expanded %.1f%% of mine-all's nodes \
              (budget: < 25%%)"
             k name pct);
      (* targeted: the best length-2 closed pattern as the target; the
         answer must be the exact containment filter of mine-all *)
      let by_sup = List.sort Mined.compare_by_support_desc all in
      let target =
        match
          List.filter (fun m -> Pattern.length m.Mined.pattern = 2) by_sup
        with
        | m :: _ -> m.Mined.pattern
        | [] -> (List.hd by_sup).Mined.pattern
      in
      let targeted, nodes_t, wall_t = run (Query.Targeted target) in
      let expect =
        List.filter
          (fun m -> Pattern.is_subpattern target ~of_:m.Mined.pattern)
          all
      in
      if List.map sig_of targeted <> List.map sig_of expect then
        failwith
          (Printf.sprintf
             "query bench: %s: targeted answer differs from the post-filter"
             name);
      ignore
        (row
           (Printf.sprintf "target %s" (Pattern.to_string target))
           nodes_t (List.length targeted) wall_t);
      (* δ-cover of the closed answer (its natural input) at a few
         compression bands *)
      let closed, _, _ = run ~mode:Miner.Closed Query.All in
      let bands =
        List.map
          (fun delta ->
            Printf.sprintf "delta %.2f -> %d" delta
              (List.length (Rgs_post.Compress.delta_cover ~delta closed)))
          [ 0.05; 0.2; 0.5 ]
      in
      delta_lines :=
        Printf.sprintf "%s: %d closed patterns, representatives: %s" name
          (List.length closed) (String.concat ", " bands)
        :: !delta_lines)
    datasets;
  print_table "query answer modes — DFS nodes vs mine-all (answers checked)" t;
  List.iter (Format.printf "delta-cover %s@.") (List.rev !delta_lines)

let () =
  if not (env_flag "RGS_BENCH_SKIP_TABLES") then section_tables ();
  if not (env_flag "RGS_BENCH_SKIP_STORE") then section_store ();
  if not (env_flag "RGS_BENCH_SKIP_STEAL") then section_shards ();
  if not (env_flag "RGS_BENCH_SKIP_SUPERVISE") then section_supervise ();
  if not (env_flag "RGS_BENCH_SKIP_MICRO") then begin
    section_micro ();
    section_parallel ()
  end;
  if not (env_flag "RGS_BENCH_SKIP_CHECKPOINT") then section_checkpoint ();
  if not (env_flag "RGS_BENCH_SKIP_QUERY") then section_query ()
