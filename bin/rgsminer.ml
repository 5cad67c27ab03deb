(* rgsminer: mine (closed) repetitive gapped subsequences from a sequence
   file or a packed binary store.

   Examples:
     rgsminer --min-sup 3 data.txt
     rgsminer --min-sup 18 --all --max-length 10 --limit 50 traces.txt
     rgsminer --min-sup 5 --format spmf data.spmf --instances
     rgsminer --min-sup 2 --deadline 5 --checkpoint run.ckpt data.txt
     rgsminer --min-sup 2 --checkpoint run.ckpt --resume data.txt
     rgsminer --min-sup 3 --trace run.json --trace-level nodes data.txt
     rgsminer --min-sup 3 --stats stats.prom data.txt
     rgsminer pack data.txt -o data.rgsdb
     rgsminer --min-sup 3 --store data.rgsdb *)

open Cmdliner
open Rgs_sequence
open Rgs_core
module Store = Rgs_store.Store

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

(* Exit code for a run stopped by SIGINT/SIGTERM: the handlers request a
   cooperative Budget stop, the final checkpoint records are appended, the
   partial report is printed, and the process exits 130 (documented in the
   README's failure-modes runbook). *)
let exit_interrupted = 130

(* --target follows the input format: a letter string for chars, and
   comma/space-separated event names (tokens) or ids (spmf) otherwise. *)
let parse_target format codec s =
  let split s =
    String.split_on_char ',' s
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (fun t -> t <> "")
  in
  match format with
  | Seq_io.Chars -> Pattern.of_string s
  | Seq_io.Spmf ->
    Pattern.of_list
      (List.map
         (fun t ->
           match int_of_string_opt t with
           | Some e when e >= 0 -> e
           | _ -> invalid_arg (Printf.sprintf "--target: bad event id %S" t))
         (split s))
  | Seq_io.Tokens ->
    let codec =
      match codec with
      | Some c -> c
      | None -> invalid_arg "--target: no codec for this input"
    in
    Pattern.of_list
      (List.map
         (fun t ->
           match Codec.find codec t with
           | Some e -> e
           | None ->
             invalid_arg
               (Printf.sprintf "--target: event %S does not occur in the input" t))
         (split s))

(* [--workers auto] parses as 0; resolution to the machine's
   recommended count happens here, after Cmdliner. *)
let resolve_auto = function
  | Some 0 -> Some (Parallel_miner.auto_shards ())
  | n -> n

let run input store format min_sup all max_length max_patterns limit instances max_gap parallel
    workers deadline max_nodes max_words target top_k compress_delta
    checkpoint resume retry_quarantined
    trace_file trace_level trace_ring stats_file stats_interval verbose =
  setup_logs verbose;
  Budget.install_signal_handlers ();
  if stats_interval <> None && stats_file = None then begin
    Format.eprintf "rgsminer: --stats-interval requires --stats@.";
    exit 1
  end;
  if target <> None && top_k <> None then begin
    Format.eprintf "rgsminer: --target and --top-k are mutually exclusive@.";
    exit 1
  end;
  if (input = None) = (store = None) then begin
    Format.eprintf "rgsminer: exactly one of FILE or --store is required@.";
    exit 1
  end;
  let workers = resolve_auto workers in
  let input = match (input, store) with
    | Some path, _ | _, Some path -> path
    | None, None -> assert false
  in
  match
    let db, codec =
      match store with
      | Some path -> Store.open_db path
      | None -> Seq_io.parse format (Seq_io.read_file input)
    in
    Format.printf "%a@.@." Seqdb.pp_stats (Seqdb.stats db);
    let mode = if all then Miner.All else Miner.Closed in
    let domains =
      if parallel then Some (Parallel_miner.default_domains ()) else None
    in
    let query =
      match (target, top_k) with
      | Some t, _ -> Query.Targeted (parse_target format codec t)
      | None, Some k -> Query.Top_k k
      | None, None -> Query.All
    in
    (* --workers: one supervised rgsworker process per shard runs the
       instance growths, crash-isolated; failures degrade back to
       in-process growth with identical output. When mining from a
       --store the workers map that same file; otherwise the supervisor
       packs a temporary store for them. *)
    let supervisor =
      match workers with
      | None -> None
      | Some n ->
        let scfg =
          Rgs_server.Supervisor.config ~shards:n
            ?gap:(Option.map (fun g -> (0, g)) max_gap)
            ()
        in
        Some (Rgs_server.Supervisor.create ?store scfg db)
    in
    let config =
      Miner.config ~mode ~query ?max_length ?max_patterns ?max_gap ?domains
        ?shards:workers ?deadline_s:deadline ?max_nodes ?max_words
        ?shard_dispatch:
          (Option.map Rgs_server.Supervisor.dispatch supervisor)
        ~min_sup ()
    in
    let trace =
      match trace_file with
      | None -> Trace.null
      | Some _ -> Trace.create ?capacity:trace_ring ~level:trace_level ()
    in
    let before = if stats_file <> None then Some (Metrics.snapshot ()) else None in
    (* With --stats-interval the run's metric deltas are written
       periodically while mining (and once more at the end) instead of
       only at exit; the same helper drives the daemon's periodic dump. *)
    let ticker =
      match (stats_file, stats_interval, before) with
      | Some path, Some interval_s, Some baseline ->
        Some (Rgs_server.Stats_dump.start ~baseline ~interval_s ~path ())
      | _ -> None
    in
    let finish_ticker () = Option.iter Rgs_server.Stats_dump.stop ticker in
    (* one index serves the mine and the --instances landmarks *)
    let idx = Inverted_index.build db in
    let report =
      match
        Miner.mine_indexed ?checkpoint ~resume ~retry_quarantined ~trace config
          idx
      with
      | report -> report
      | exception e ->
        finish_ticker ();
        Option.iter Rgs_server.Supervisor.shutdown supervisor;
        raise e
    in
    (match supervisor with
    | None -> ()
    | Some sup ->
      Rgs_server.Supervisor.shutdown sup;
      Format.printf "%a@." Rgs_server.Supervisor.pp_stats
        (Rgs_server.Supervisor.stats sup));
    (match trace_file with
    | None -> ()
    | Some path ->
      Trace.write_chrome path trace;
      Format.printf "trace: %d event(s) written to %s%s@."
        (List.length (Trace.events trace))
        path
        (let d = Trace.dropped trace in
         if d > 0 then Printf.sprintf " (%d dropped: ring full)" d else ""));
    (match (stats_file, before, ticker) with
    | Some path, _, Some _ ->
      finish_ticker ();
      Format.printf "stats: written to %s@." path
    | Some path, Some before, None ->
      let delta = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
      Metrics.write_stats ~path delta;
      Format.printf "stats: written to %s@." path
    | _ -> ());
    (* δ-compression is a post-mining pass: cluster the answer under the
       support-distance tolerance and report only the representatives. *)
    let report =
      match compress_delta with
      | None -> report
      | Some delta ->
        let covers = Rgs_post.Compress.delta_cover ~delta report.Miner.results in
        let absorbed =
          List.fold_left
            (fun a c -> a + List.length c.Rgs_post.Compress.covered)
            0 covers
        in
        Format.printf
          "delta-cover (delta=%g): %d representative(s), %d pattern(s) absorbed@."
          delta (List.length covers) absorbed;
        { report with Miner.results = Rgs_post.Compress.representatives covers }
    in
    (match codec with
    | Some codec -> Format.printf "%a@." (Miner.pp_report ~codec ~limit) report
    | None -> Format.printf "%a@." (fun ppf r -> Miner.pp_report ~limit ppf r) report);
    (match report.Miner.outcome with
    | Budget.Completed -> ()
    | outcome ->
      Format.printf "run stopped early: %a — results above are partial%s@."
        Budget.pp outcome
        (match checkpoint with
        | Some path -> Printf.sprintf " (checkpoint saved to %s; rerun with --resume)" path
        | None -> ""));
    if report.Miner.quarantined > 0 then
      Format.printf
        "%d poison root(s) quarantined — their patterns are missing; rerun \
         with --resume --retry-quarantined to re-mine them@."
        report.Miner.quarantined;
    if instances then begin
      let sorted = List.sort Mined.compare_by_support_desc report.Miner.results in
      List.iteri
        (fun k r ->
          if k < limit then begin
            Format.printf "@.%a:@." Pattern.pp r.Mined.pattern;
            List.iter
              (fun f -> Format.printf "  %a@." Instance.pp_full f)
              (Sup_comp.landmarks idx r.Mined.pattern)
          end)
        sorted
    end;
    report.Miner.outcome
  with
  | Budget.Interrupted -> exit_interrupted
  | _ -> 0
  | exception Seq_io.Parse_error { line; msg } ->
    Format.eprintf "rgsminer: %s:%d: %s@." input line msg;
    1
  | exception Checkpoint.Corrupt msg ->
    Format.eprintf "rgsminer: checkpoint: %s@." msg;
    1
  | exception Store.Invalid_store e ->
    Format.eprintf "rgsminer: %s: %s@." input (Store.error_message e);
    1
  | exception Invalid_argument msg ->
    Format.eprintf "rgsminer: %s@." msg;
    1

let input =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Input sequence file. Exactly one of $(docv) or $(b,--store) is required.")

let store_arg =
  Arg.(value & opt (some file) None & info [ "store" ] ~docv:"FILE"
         ~doc:"Mine from a packed $(b,.rgsdb) store (see $(b,rgsminer pack)) instead \
               of a text file: the corpus is mapped read-only in milliseconds and \
               shared across parallel domains. Event names come from the store's \
               NAME section, so output matches the $(b,tokens) text path byte for \
               byte. Mutually exclusive with $(docv).")

let format =
  let format_conv =
    Arg.enum [ ("tokens", Seq_io.Tokens); ("chars", Seq_io.Chars); ("spmf", Seq_io.Spmf) ]
  in
  Arg.(value & opt format_conv Seq_io.Tokens & info [ "format"; "f" ] ~docv:"FMT"
         ~doc:"Input format: $(b,tokens) (names per line), $(b,chars) (A-Z strings), or $(b,spmf).")

let min_sup =
  Arg.(required & opt (some int) None & info [ "min-sup"; "s" ] ~docv:"N"
         ~doc:"Repetitive support threshold (>= 1).")

let all =
  Arg.(value & flag & info [ "all"; "a" ]
         ~doc:"Mine all frequent patterns (GSgrow) instead of closed ones (CloGSgrow).")

let max_length =
  Arg.(value & opt (some int) None & info [ "max-length" ] ~docv:"N"
         ~doc:"Bound pattern length.")

let max_patterns =
  Arg.(value & opt (some int) None & info [ "max-patterns" ] ~docv:"N"
         ~doc:"Stop after N patterns (output becomes a prefix of the full answer).")

let limit =
  Arg.(value & opt int 25 & info [ "limit"; "n" ] ~docv:"N"
         ~doc:"How many patterns to print.")

let instances =
  Arg.(value & flag & info [ "instances"; "i" ]
         ~doc:"Also print the leftmost support set (landmarks) of printed patterns.")

let max_gap =
  Arg.(value & opt (some int) None & info [ "max-gap"; "g" ] ~docv:"N"
         ~doc:"Gap-constrained mining: instances may skip at most N events between \
               successive pattern events (sound greedy lower bound; mines all \
               patterns, not closed ones).")

let parallel =
  Arg.(value & flag & info [ "parallel"; "p" ]
         ~doc:"Mine with one domain per core: the DFS subtrees of distinct \
               size-1 patterns are mined in parallel, in every mode \
               (closed, $(b,--all), $(b,--max-gap), $(b,--target), \
               $(b,--top-k)). Output is identical to the sequential run, \
               $(b,--top-k) ties included. Not compatible with \
               $(b,--max-patterns).")

(* a worker count, or "auto" (parsed as 0) for the machine's
   recommended domain count *)
let count_or_auto =
  let parse s =
    match s with
    | "auto" -> Ok 0
    | _ -> (
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok n
      | _ -> Error (`Msg (Printf.sprintf "expected a count or 'auto', got %S" s)))
  in
  let print ppf = function
    | 0 -> Format.pp_print_string ppf "auto"
    | n -> Format.pp_print_int ppf n
  in
  Arg.conv (parse, print)

let workers =
  Arg.(value & opt (some count_or_auto) None & info [ "workers" ] ~docv:"N"
         ~doc:"Run instance growths in N supervised $(b,rgsworker) processes, \
               one per balanced database shard ($(b,auto) or $(b,0): one per \
               recommended domain). Workers heartbeat and are \
               restarted with exponential backoff when they crash, hang or \
               corrupt a frame; flapping shards are quarantined and the run \
               degrades to in-process growth — the mined output is identical \
               in every case.")

let deadline =
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS"
         ~doc:"Wall-clock budget. When it expires the run stops gracefully and \
               reports the patterns mined so far.")

let max_nodes =
  Arg.(value & opt (some int) None & info [ "max-nodes" ] ~docv:"N"
         ~doc:"DFS-node budget: stop gracefully after visiting N search nodes.")

let max_words =
  Arg.(value & opt (some int) None & info [ "max-words" ] ~docv:"N"
         ~doc:"GC heap ceiling in words: stop gracefully when the OCaml heap \
               exceeds N words.")

let target =
  Arg.(value & opt (some string) None & info [ "target" ] ~docv:"PATTERN"
         ~doc:"Mine only patterns containing PATTERN as a subsequence, pruning \
               unreachable DFS subtrees instead of filtering afterwards. \
               PATTERN follows $(b,--format): comma/space-separated event \
               names ($(b,tokens)), a letter string ($(b,chars)), or ids \
               ($(b,spmf)). Mutually exclusive with $(b,--top-k).")

let top_k =
  Arg.(value & opt (some int) None & info [ "top-k" ] ~docv:"K"
         ~doc:"Mine only the K best patterns by repetitive support: a rising \
               support floor prunes subtrees that can no longer reach the \
               answer. Output is support-descending. Mutually exclusive with \
               $(b,--target) and $(b,--max-patterns).")

let compress_delta =
  Arg.(value & opt (some float) None & info [ "compress-delta" ] ~docv:"D"
         ~doc:"After mining, cluster the answer by greedy delta-cover \
               (a pattern is absorbed by a supersequence representative \
               retaining at least a (1-D) fraction of its support, D in \
               [0,1]) and report only the representatives.")

let checkpoint =
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
         ~doc:"Checkpoint completed DFS roots to FILE, one record per root as it \
               completes, so a stopped or killed run can resume. Not \
               compatible with $(b,--max-patterns).")

let resume =
  Arg.(value & flag & info [ "resume" ]
         ~doc:"Resume from the $(b,--checkpoint) file, mining only the roots it \
               does not already cover. The checkpoint must match the input data, \
               threshold, mode, $(b,--max-length), query and $(b,--max-gap).")

let retry_quarantined =
  Arg.(value & flag & info [ "retry-quarantined" ]
         ~doc:"Put roots the checkpoint recorded as quarantined (crashed twice) \
               back on the mining frontier instead of skipping them.")

let trace_file =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace_event JSON timeline of the run to FILE. \
               Open it in ui.perfetto.dev or chrome://tracing. Event volume is \
               set by $(b,--trace-level).")

let trace_level =
  let level_conv =
    Arg.enum [ ("off", Trace.Off); ("roots", Trace.Roots); ("nodes", Trace.Nodes) ]
  in
  Arg.(value & opt level_conv Trace.Roots & info [ "trace-level" ] ~docv:"LEVEL"
         ~doc:"Trace detail: $(b,roots) (default; per-root DFS spans and run \
               milestones), $(b,nodes) (adds one event per DFS node, extension \
               and closure check), or $(b,off).")

let trace_ring =
  Arg.(value & opt (some int) None & info [ "trace-ring" ] ~docv:"N"
         ~doc:"Trace ring-buffer capacity in events per buffer (default 65536, \
               rounded up to a power of two). Once full the ring keeps the \
               newest events; overwrites are counted in the \
               $(b,trace_dropped_events) metric and noted next to the trace \
               file summary.")

let stats_file =
  Arg.(value & opt (some string) None & info [ "stats" ] ~docv:"FILE"
         ~doc:"Write the run's metric deltas to FILE: JSON when FILE ends in \
               $(b,.json), Prometheus text exposition otherwise. See \
               OBSERVABILITY.md for every metric.")

let stats_interval =
  Arg.(value & opt (some float) None & info [ "stats-interval" ] ~docv:"SECONDS"
         ~doc:"With $(b,--stats), rewrite FILE every SECONDS while mining \
               (atomically, via rename) instead of only at exit, so a long run \
               can be watched live. The final write still lands at exit.")

let verbose =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log mining progress to stderr.")

(* --- pack: text database -> .rgsdb binary store --- *)

let pack input format output check verbose =
  setup_logs verbose;
  match
    let db, codec = Seq_io.parse format (Seq_io.read_file input) in
    let out =
      match output with
      | Some o -> o
      | None -> Filename.remove_extension input ^ ".rgsdb"
    in
    Store.write ?codec ~path:out db;
    let t = Store.open_store ~verify:check out in
    Format.printf "packed %s -> %s@." input out;
    Format.printf "  %d sequence(s), %d event(s), alphabet %d, digest %s@."
      (Seqdb.size db) (Seqdb.total_length db) (Seqdb.alphabet_size db)
      (Store.digest t);
    List.iter
      (fun (tag, words) -> Format.printf "  section %s: %d word(s)@." tag words)
      (Store.sections t);
    if check then begin
      if Store.digest t <> Seqdb.content_digest db then begin
        Format.eprintf "rgsminer pack: digest mismatch after round-trip@.";
        exit 1
      end;
      Format.printf "check: section CRCs and content digest verified@."
    end;
    0
  with
  | code -> code
  | exception Seq_io.Parse_error { line; msg } ->
    Format.eprintf "rgsminer pack: %s:%d: %s@." input line msg;
    1
  | exception Store.Invalid_store e ->
    Format.eprintf "rgsminer pack: %s@." (Store.error_message e);
    1
  | exception Sys_error msg ->
    Format.eprintf "rgsminer pack: %s@." msg;
    1
  | exception Invalid_argument msg ->
    Format.eprintf "rgsminer pack: %s@." msg;
    1

let pack_cmd =
  let pack_input =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Input sequence file to pack.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"OUT"
           ~doc:"Store file to write (default: $(b,FILE) with its extension \
                 replaced by $(b,.rgsdb)). Written atomically; packing the same \
                 corpus twice yields byte-identical files.")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"After packing, re-open the store, verify every section CRC \
                 and the sealed content digest.")
  in
  Cmd.v
    (Cmd.info "pack" ~doc:"pack a sequence file into a .rgsdb binary store")
    Term.(const pack $ pack_input $ format $ output $ check $ verbose)

let mine_term =
  Term.(const run $ input $ store_arg $ format $ min_sup $ all $ max_length
        $ max_patterns $ limit
        $ instances $ max_gap $ parallel $ workers $ deadline $ max_nodes
        $ max_words $ target $ top_k $ compress_delta $ checkpoint $ resume
        $ retry_quarantined $ trace_file $ trace_level $ trace_ring
        $ stats_file $ stats_interval $ verbose)

let cmd =
  let doc = "mine (closed) repetitive gapped subsequences from a sequence database" in
  Cmd.group ~default:mine_term
    (Cmd.info "rgsminer" ~version:"1.2.0" ~doc)
    [ pack_cmd ]

let () = exit (Cmd.eval' cmd)
