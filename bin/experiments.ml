(* experiments: regenerate any table or figure of the paper by id.

   Examples:
     experiments table1
     experiments fig2 --scale 0.1
     experiments fig4
     experiments casestudy
     experiments comparators
     experiments ablation
     experiments all *)

open Cmdliner
open Rgs_sequence
module E = Rgs_experiments

(* When RGS_CSV_DIR is set, every printed table is also written there as
   CSV (slug derived from the title) for plotting. *)
let csv_dir = Sys.getenv_opt "RGS_CSV_DIR"

let slug title =
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c
      else if c >= 'A' && c <= 'Z' then Char.lowercase_ascii c
      else '_')
    title

let print_table title t =
  Format.printf "== %s ==@.%s@." title (Rgs_post.Report.to_string t);
  match csv_dir with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir (slug title ^ ".csv") in
    Rgs_post.Export.save path (Rgs_post.Export.report_to_csv t);
    Format.eprintf "wrote %s@." path

let run_table1 () = print_table "Table I: support semantics on Example 1.1" (E.Table1.report ())

let run_sweep name (rows, label) =
  print_table (Printf.sprintf "%s — %s" name label) (E.Sweeps.report ~x_label:"min_sup" rows);
  print_string (E.Sweeps.charts rows);
  print_newline ()

let run_fig5 scale timeout_s =
  let rows, label = E.Sweeps.fig5 ~scale ?timeout_s () in
  print_table (Printf.sprintf "Figure 5 — %s" label) (E.Sweeps.report ~x_label:"D" rows)

let run_fig6 scale timeout_s =
  let rows, label = E.Sweeps.fig6 ~scale ?timeout_s () in
  print_table (Printf.sprintf "Figure 6 — %s" label)
    (E.Sweeps.report ~x_label:"avg_len" rows)

let run_casestudy () =
  let o = E.Case_study.run () in
  print_table "Case study — JBoss-style transaction traces" (E.Case_study.report o);
  Format.printf "longest pattern events:@.";
  List.iter (fun n -> Format.printf "  %s@." n) o.E.Case_study.longest_events

let run_comparators scale timeout_s =
  let db = E.Exp_common.quest_d5c20n10s20 ~scale () in
  print_table "Comparators — D5C20N10S20-like, min_sup=10"
    (E.Comparators.report (E.Comparators.compare_all ?timeout_s db ~min_sup:10));
  let db = E.Exp_common.tcas_like ~scale:0.25 () in
  print_table "Comparators — TCAS-like, min_sup=300"
    (E.Comparators.report
       (E.Comparators.compare_all ?timeout_s ~max_length:8 db ~min_sup:300))

let run_ablation timeout_s =
  let db = E.Exp_common.tcas_like ~scale:0.25 () in
  print_table "Ablation — TCAS-like (scale 0.25), min_sup=200"
    (E.Ablation.report (E.Ablation.run ?timeout_s db ~min_sup:200))

let scale =
  Arg.(value & opt float 0.1 & info [ "scale" ] ~docv:"X"
         ~doc:"Dataset scale relative to the paper (1.0 = paper size).")

let timeout =
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS"
         ~doc:"Per-run time budget (cut-off).")

let stats_arg =
  Arg.(value & opt (some string) None & info [ "stats" ] ~docv:"FILE"
         ~doc:"Write the experiment's Metrics counter delta to $(docv) \
               (JSON when it ends in .json, Prometheus text exposition \
               otherwise) — same format as rgsminer --stats.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace_event JSON timeline of the experiment's \
               mining runs to $(docv) — same format as rgsminer --trace; \
               open in ui.perfetto.dev.")

let trace_level_arg =
  let level_conv =
    Arg.enum
      [ ("off", Trace.Off); ("roots", Trace.Roots);
        ("nodes", Trace.Nodes) ]
  in
  Arg.(value & opt level_conv Trace.Roots
       & info [ "trace-level" ] ~docv:"LEVEL"
         ~doc:"Trace detail for $(b,--trace): $(b,roots) (default), \
               $(b,nodes), or $(b,off).")

(* Snapshot around the experiment so the written stats attribute only this
   run's work, not whatever ran earlier in the process. *)
let with_stats stats f =
  let before = Metrics.snapshot () in
  let r = f () in
  (match stats with
  | None -> ()
  | Some path ->
    Metrics.write_stats ~path
      (Metrics.diff ~before ~after:(Metrics.snapshot ()));
    Format.eprintf "wrote %s@." path);
  r

(* The experiment drivers record through Exp_common's ambient trace;
   install one for the invocation and export it afterwards. *)
let with_trace trace_file trace_level f =
  match trace_file with
  | None -> f ()
  | Some path ->
    let trace = Trace.create ~level:trace_level () in
    E.Exp_common.set_trace trace;
    let r =
      Fun.protect ~finally:(fun () -> E.Exp_common.set_trace Trace.null) f
    in
    Trace.write_chrome path trace;
    Format.eprintf "wrote %s@." path;
    r

let with_obs stats trace_file trace_level f =
  with_stats stats (fun () -> with_trace trace_file trace_level f)

let obs_args = Term.(const (fun s t l -> (s, t, l)) $ stats_arg $ trace_arg $ trace_level_arg)

let simple name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(const (fun (stats, tf, tl) -> with_obs stats tf tl f) $ obs_args)

let sweep_cmd name doc make =
  let run scale timeout_s (stats, tf, tl) =
    with_obs stats tf tl (fun () -> make ~scale ?timeout_s (); 0)
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ scale $ timeout $ obs_args)

let fig2_cmd =
  sweep_cmd "fig2" "Figure 2: vary min_sup on D5C20N10S20" (fun ~scale ?timeout_s () ->
      run_sweep "Figure 2" (E.Sweeps.fig2 ~scale ?timeout_s ()))

let fig3_cmd =
  sweep_cmd "fig3" "Figure 3: vary min_sup on Gazelle-like" (fun ~scale ?timeout_s () ->
      run_sweep "Figure 3" (E.Sweeps.fig3 ~scale ?timeout_s ()))

let fig4_cmd =
  sweep_cmd "fig4" "Figure 4: vary min_sup on TCAS-like" (fun ~scale ?timeout_s () ->
      run_sweep "Figure 4" (E.Sweeps.fig4 ~scale:(max scale 0.25) ?timeout_s ()))

let fig5_cmd =
  let run scale timeout_s (stats, tf, tl) =
    with_obs stats tf tl (fun () -> run_fig5 scale timeout_s; 0)
  in
  Cmd.v (Cmd.info "fig5" ~doc:"Figure 5: vary the number of sequences")
    Term.(const run $ scale $ timeout $ obs_args)

let fig6_cmd =
  let run scale timeout_s (stats, tf, tl) =
    with_obs stats tf tl (fun () -> run_fig6 scale timeout_s; 0)
  in
  Cmd.v (Cmd.info "fig6" ~doc:"Figure 6: vary the average sequence length")
    Term.(const run $ scale $ timeout $ obs_args)

let comparators_cmd =
  let store_arg =
    Arg.(value & opt (some file) None & info [ "store" ] ~docv:"FILE"
           ~doc:"Run the comparator suite on a packed $(b,.rgsdb) store \
                 instead of the built-in generated datasets.")
  in
  let store_min_sup =
    Arg.(value & opt int 10 & info [ "min-sup" ] ~docv:"N"
           ~doc:"Support threshold for the $(b,--store) corpus (default 10; \
                 ignored without $(b,--store)).")
  in
  let run scale timeout_s store min_sup (stats, tf, tl) =
    with_obs stats tf tl (fun () ->
        (match store with
        | None -> run_comparators scale timeout_s
        | Some path ->
          let db, _ = Rgs_store.Store.open_db path in
          print_table
            (Printf.sprintf "Comparators — %s, min_sup=%d"
               (Filename.basename path) min_sup)
            (E.Comparators.report
               (E.Comparators.compare_all ?timeout_s db ~min_sup)));
        0)
  in
  Cmd.v (Cmd.info "comparators" ~doc:"Sequential-miner runtime comparison")
    Term.(const run $ scale $ timeout $ store_arg $ store_min_sup $ obs_args)

let ablation_cmd =
  let run timeout_s (stats, tf, tl) =
    with_obs stats tf tl (fun () -> run_ablation timeout_s; 0)
  in
  Cmd.v (Cmd.info "ablation" ~doc:"CloGSgrow checking-strategy ablation")
    Term.(const run $ timeout $ obs_args)

(* gen-quest regenerates a synthetic corpus from a checked-in key=value
   config (data/*.config). Generation is deterministic in the config, so
   the emitted file — and any .rgsdb packed from it — is reproducible
   byte-for-byte; the datasets themselves are never checked in. *)
let gen_quest_cmd =
  let config_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CONFIG"
           ~doc:"Quest_gen key=value config file (e.g. \
                 data/quest_paper.config).")
  in
  let out_arg =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output path; written in the SPMF format ($(b,-1)-separated \
                 integer events, $(b,-2)-terminated sequences), which \
                 round-trips event ids exactly.")
  in
  let run config out =
    match Rgs_datagen.Quest_gen.load_config config with
    | exception Failure msg ->
      Format.eprintf "experiments: %s@." msg;
      1
    | p ->
      let db = Rgs_datagen.Quest_gen.generate p in
      Seq_io.save_spmf db out;
      Format.printf "wrote %s: %s — %d sequences, %d events, seed %d@." out
        (Rgs_datagen.Quest_gen.label p)
        (Seqdb.size db)
        (Seqdb.total_length db)
        p.Rgs_datagen.Quest_gen.seed;
      0
  in
  Cmd.v
    (Cmd.info "gen-quest"
       ~doc:"Regenerate a QUEST-style corpus from a config file")
    Term.(const run $ config_arg $ out_arg)

let all_cmd =
  let run scale timeout_s (stats, tf, tl) =
    with_obs stats tf tl (fun () ->
        run_table1 ();
        run_sweep "Figure 2" (E.Sweeps.fig2 ~scale ?timeout_s ());
        run_sweep "Figure 3" (E.Sweeps.fig3 ~scale ?timeout_s ());
        run_sweep "Figure 4" (E.Sweeps.fig4 ~scale:(max scale 0.25) ?timeout_s ());
        run_fig5 scale timeout_s;
        run_fig6 scale timeout_s;
        run_comparators scale timeout_s;
        run_ablation timeout_s;
        run_casestudy ();
        0)
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment")
    Term.(const run $ scale $ timeout $ obs_args)

let cmd =
  let doc =
    "regenerate the paper's tables and figures (set RGS_CSV_DIR to also \
     dump each table as CSV)"
  in
  Cmd.group
    (Cmd.info "experiments" ~version:"1.0.0" ~doc)
    [
      simple "table1" "Table I: support semantics comparison" (fun () -> run_table1 (); 0);
      fig2_cmd;
      fig3_cmd;
      fig4_cmd;
      fig5_cmd;
      fig6_cmd;
      comparators_cmd;
      ablation_cmd;
      gen_quest_cmd;
      simple "casestudy" "Section IV-B case study" (fun () -> run_casestudy (); 0);
      all_cmd;
    ]

let () = exit (Cmd.eval' cmd)
