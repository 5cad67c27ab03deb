open Rgs_sequence

type mode = All | Closed

type config = {
  min_sup : int;
  mode : mode;
  query : Query.t;
  max_length : int option;
  max_patterns : int option;
  max_gap : int option;
  domains : int option;
  shards : int option;
  shard_dispatch : Shard_merge.dispatch option;
  index_kind : Inverted_index.kind option;
  deadline_s : float option;
  max_nodes : int option;
  max_words : int option;
}

let validate_config cfg =
  if cfg.min_sup < 1 then invalid_arg "Miner: min_sup must be >= 1";
  Query.validate cfg.query;
  (match (cfg.query, cfg.max_patterns) with
  | Query.Top_k _, Some _ ->
    invalid_arg "Miner: max_patterns cannot be combined with a top-k query"
  | _ -> ());
  (match cfg.domains with
  | Some d when d < 1 -> invalid_arg "Miner: domains must be >= 1"
  | _ -> ());
  (match cfg.shards with
  | Some s when s < 1 -> invalid_arg "Miner: shards must be >= 1"
  | _ -> ());
  if cfg.shard_dispatch <> None && cfg.shards = None then
    invalid_arg "Miner: shard_dispatch requires shards";
  (match cfg.deadline_s with
  | Some d when d < 0.0 -> invalid_arg "Miner: deadline_s must be >= 0"
  | _ -> ());
  (match cfg.max_nodes with
  | Some n when n < 0 -> invalid_arg "Miner: max_nodes must be >= 0"
  | _ -> ());
  match cfg.max_words with
  | Some w when w < 1 -> invalid_arg "Miner: max_words must be >= 1"
  | _ -> ()

let config ?(mode = Closed) ?(query = Query.All) ?max_length ?max_patterns
    ?max_gap ?domains ?shards ?shard_dispatch ?index_kind ?deadline_s
    ?max_nodes ?max_words ~min_sup () =
  let cfg =
    {
      min_sup;
      mode;
      query;
      max_length;
      max_patterns;
      max_gap;
      domains;
      shards;
      shard_dispatch;
      index_kind;
      deadline_s;
      max_nodes;
      max_words;
    }
  in
  validate_config cfg;
  cfg

let build_index cfg db =
  Inverted_index.build_kind
    (Option.value cfg.index_kind ~default:Inverted_index.Kcsr)
    db

type report = {
  results : Mined.t list;
  truncated : bool;
  outcome : Budget.outcome;
  elapsed_s : float;
  quarantined : int;
}

let log_src = Logs.Src.create "rgs.miner" ~doc:"Repetitive gapped subsequence mining"

module Log = (val Logs.src_log log_src : Logs.LOG)

let describe cfg =
  String.concat ""
    [
      (match cfg.max_gap with
      | Some g -> Printf.sprintf "gap-constrained (<= %d) " g
      | None -> "");
      (match cfg.mode with All -> "all" | Closed -> "closed");
      (match cfg.query with
      | Query.All -> ""
      | q -> Printf.sprintf ", query=%s" (Query.to_string q));
      (match cfg.domains with Some d -> Printf.sprintf ", %d domains" d | None -> "");
      (match cfg.shards with Some s -> Printf.sprintf ", %d shards" s | None -> "");
      (if cfg.shard_dispatch <> None then " (supervised)" else "");
      (match cfg.max_length with Some l -> Printf.sprintf ", max_length=%d" l | None -> "");
      (match cfg.max_patterns with Some b -> Printf.sprintf ", max_patterns=%d" b | None -> "");
      (match cfg.deadline_s with Some d -> Printf.sprintf ", deadline=%gs" d | None -> "");
      (match cfg.max_nodes with Some n -> Printf.sprintf ", max_nodes=%d" n | None -> "");
      (match cfg.max_words with Some w -> Printf.sprintf ", max_words=%d" w | None -> "");
    ]

(* With signal handlers installed every run needs a budget, even a
   limitless one: [Budget.check] is where the process-global shutdown flag
   is polled, so without it SIGTERM could not stop the DFS gracefully. *)
let budget_of cfg =
  match (cfg.deadline_s, cfg.max_nodes, cfg.max_words) with
  | None, None, None ->
    if Budget.signals_installed () then Some (Budget.create ()) else None
  | deadline_s, max_nodes, max_words ->
    Some (Budget.create ?deadline_s ?max_nodes ?max_words ())

(* The strategy a config's DFS runs under, in both run shapes. *)
let strategy_of cfg =
  match (cfg.max_gap, cfg.mode) with
  | Some max_gap, _ -> Gap_constrained.strategy ~min_gap:0 ~max_gap
  | None, All -> Gsgrow.strategy
  | None, Closed -> Clogsgrow.strategy ~use_lb_check:true ~use_c_check:true

(* The shard layout a config asks for, computed once per run from the
   index's backing database ([None] = unsharded). *)
let layout_of cfg idx =
  Option.map
    (fun n ->
      Shard_merge.make ?dispatch:cfg.shard_dispatch (Inverted_index.db idx)
        ~shards:n)
    cfg.shards

(* The one root order, descending single-event support
   ([Parallel_miner.largest_first_order]). A top-k run visits its roots in
   it — the floor rises fastest when big subtrees come first — and it
   breaks top-k ties (see [Query]); everything else keeps the index's
   canonical event order (the output order contract). *)
let ranked idx events =
  let roots = Array.of_list events in
  Array.to_list
    (Array.map (fun k -> roots.(k)) (Parallel_miner.largest_first_order idx roots))

(* One sequential engine run under the query's plan, with the query's
   collector as the sink (under [Query.All] it keeps every pattern). *)
let mine_query ?trace cfg idx ~budget =
  let events = Inverted_index.frequent_events idx ~min_sup:cfg.min_sup in
  let collector =
    Query.collector ?max_length:cfg.max_length ~events ~min_sup:cfg.min_sup
      cfg.query
  in
  let count = ref 0 in
  let emit r =
    collector.Query.offer r;
    incr count;
    match cfg.max_patterns with
    | Some b when !count >= b -> raise Engine.Budget_exhausted
    | _ -> ()
  in
  let strategy =
    match layout_of cfg idx with
    | None -> strategy_of cfg
    | Some sm -> Shard_merge.strategy ?trace sm (strategy_of cfg)
  in
  let s =
    Engine.run ?max_length:cfg.max_length ~events
      ?roots:
        (match cfg.query with
        | Query.Top_k _ -> Some (ranked idx events)
        | Query.All | Query.Targeted _ -> None)
      ?budget ?trace ~plan:collector.Query.plan strategy idx
      ~min_sup:cfg.min_sup ~emit
  in
  (collector.Query.results (), s.Engine.outcome)

(* --- the root pool, and checkpoint/resume on it --- *)

let checkpoint_fingerprint cfg db =
  Checkpoint.fingerprint
    ~params:
      ([
         (match cfg.mode with All -> "all" | Closed -> "closed");
         string_of_int cfg.min_sup;
         (match cfg.max_length with Some l -> string_of_int l | None -> "-");
       ]
      @
      (* appended only for non-trivial queries, so checkpoints written
         before queries existed keep their fingerprints; a resumed run
         under a {e different} query is refused (Checkpoint.Corrupt) *)
      match cfg.query with
      | Query.All -> []
      | Query.Targeted _ as q -> [ "query=" ^ Query.to_string q ]
      (* per-root top-k answers follow the arrival tie rule; logs written
         under the earlier rule hold other tied patterns, so they must not
         resume into this run *)
      | Query.Top_k _ as q -> [ "query=" ^ Query.to_string q; "ties=arrival" ])
    db

(* Chaos/testing knob: slow every root down so an external harness has a
   deterministic window to deliver signals or kill -9 mid-run. Unset (the
   default) costs one load per root. *)
let chaos_root_delay_s =
  lazy
    (match Sys.getenv_opt "RGS_CHAOS_ROOT_DELAY_MS" with
    | None -> 0.0
    | Some v -> ( try float_of_string v /. 1000.0 with Failure _ -> 0.0))

(* The root-pool body behind every [domains] run and every
   [mine_resumable] run: one [Engine.run] per remaining root on
   [Parallel_miner.run_pool], one sequential retry for crashed roots, then
   the merge. [completed] holds the answers of roots already done (loaded
   from a checkpoint); [on_root_done] sees each root that completes here.
   Returns the answer, the run outcome and the roots quarantined now. *)
let run_roots ?(trace = Trace.null) ~budget ~completed ~on_root_done cfg idx
    ~events ~remaining =
  let roots = Array.of_list remaining in
  let layout = layout_of cfg idx in
  let base_strategy = strategy_of cfg in
  let mine_root k =
    (match Lazy.force chaos_root_delay_s with
    | 0.0 -> ()
    | d -> ( try Unix.sleepf d with Unix.Unix_error (Unix.EINTR, _, _) -> ()));
    (* Per-root query runs: a root's local answer over-approximates its
       contribution to the global one (for top-k, any globally winning
       pattern is in its root's local top-k), so per-root answers stay
       root-independent and the global answer is recovered by the merge.
       Under [Query.All] the collector keeps every pattern. *)
    let collector =
      Query.collector ?max_length:cfg.max_length ~events ~min_sup:cfg.min_sup
        cfg.query
    in
    let wtr = Trace.for_domain trace in
    let strategy =
      match layout with
      | None -> base_strategy
      | Some sm -> Shard_merge.strategy ~trace:wtr sm base_strategy
    in
    let s =
      Engine.run ?max_length:cfg.max_length ?budget ~trace:wtr ~events
        ~roots:[ roots.(k) ] ~plan:collector.Query.plan strategy idx
        ~min_sup:cfg.min_sup ~emit:collector.Query.offer
    in
    let results = collector.Query.results () in
    if s.Engine.outcome = Budget.Completed then on_root_done roots.(k) results;
    (results, s.Engine.outcome)
  in
  let slots, halt_reason =
    Parallel_miner.run_pool ~trace
      ~halt_on:(fun (_, outcome) -> Budget.is_stop outcome)
      ~order:(Parallel_miner.largest_first_order idx roots)
      ~domains:(Option.value cfg.domains ~default:1)
      ~num_roots:(Array.length roots) ~mine_root ()
  in
  let slots = Parallel_miner.retry_failed ~trace ~mine_root slots in
  (* Classify each freshly mined root: completed roots join [completed];
     partially mined and crashed roots do not, but partial results still
     reach the answer; quarantined roots are returned so a checkpoint can
     record them. *)
  let partials = Hashtbl.create 16 in
  let quarantined_now = ref [] in
  let outcome = ref (Option.value halt_reason ~default:Budget.Completed) in
  Array.iteri
    (fun k status ->
      let root = roots.(k) in
      match status with
      | Parallel_miner.Done (results, Budget.Completed) ->
        Hashtbl.replace completed root results
      | Parallel_miner.Done (results, stop) ->
        Hashtbl.replace partials root results;
        outcome := Budget.combine !outcome stop
      | Parallel_miner.Failed _ ->
        (* only reachable if retry_failed was skipped for this slot *)
        outcome := Budget.combine !outcome Budget.Worker_failed
      | Parallel_miner.Quarantined { exn; backtrace } ->
        quarantined_now :=
          { Checkpoint.root; reason = Printexc.to_string exn; backtrace }
          :: !quarantined_now;
        outcome := Budget.combine !outcome Budget.Worker_failed
      | Parallel_miner.Skipped -> ())
    slots;
  (* A [Skipped] slot was never claimed: the pool halted first. The halt
     reason, or another root's stop outcome, normally accounts for it; a
     halt with no recorded reason reads as a cancellation. *)
  let outcome =
    if
      Array.exists (function Parallel_miner.Skipped -> true | _ -> false) slots
      && not (Budget.is_stop !outcome)
    then Budget.Cancelled
    else !outcome
  in
  let answer root =
    match Hashtbl.find_opt completed root with
    | Some rs -> rs
    | None -> Option.value (Hashtbl.find_opt partials root) ~default:[]
  in
  (* Merge in the full root order, so a resumed run completes to exactly
     the uninterrupted run's answer: the canonical event order, or for
     top-k the one root order the tie rule is defined over. *)
  let results =
    match cfg.query with
    | Query.Top_k k -> Query.merge_top_k k (List.map answer (ranked idx events))
    | Query.All | Query.Targeted _ -> List.concat_map answer events
  in
  (results, outcome, List.rev !quarantined_now)

let mine_indexed ?trace cfg idx =
  validate_config cfg;
  if cfg.domains <> None && cfg.max_patterns <> None then
    invalid_arg "Miner: domains cannot be combined with max_patterns";
  Log.info (fun m -> m "mining %s patterns, min_sup=%d" (describe cfg) cfg.min_sup);
  let budget = budget_of cfg in
  let start = Unix.gettimeofday () in
  let results, outcome, quarantined =
    match cfg.domains with
    | Some _ ->
      let events = Inverted_index.frequent_events idx ~min_sup:cfg.min_sup in
      let results, outcome, quarantined_now =
        run_roots ?trace ~budget ~completed:(Hashtbl.create 64)
          ~on_root_done:(fun _ _ -> ())
          cfg idx ~events ~remaining:events
      in
      (results, outcome, List.length quarantined_now)
    | None ->
      let results, outcome = mine_query ?trace cfg idx ~budget in
      (results, outcome, 0)
  in
  let elapsed_s = Unix.gettimeofday () -. start in
  Log.info (fun m ->
      m "found %d pattern(s) (%a) in %.3fs" (List.length results) Budget.pp outcome
        elapsed_s);
  { results; truncated = Budget.is_stop outcome; outcome; elapsed_s; quarantined }

let mine ?config:cfg ?min_sup ?trace db =
  let cfg =
    match (cfg, min_sup) with
    | Some c, _ -> c
    | None, Some min_sup -> config ~min_sup ()
    | None, None -> invalid_arg "Miner.mine: provide ~config or ~min_sup"
  in
  let idx = build_index cfg db in
  mine_indexed ?trace cfg idx

let mine_resumable ?budget ?checkpoint ?(resume = false)
    ?(retry_quarantined = false) ?(trace = Trace.null) cfg db =
  validate_config cfg;
  (* the fingerprint does not carry the gap, so a gap-constrained
     checkpoint could be resumed under another gap *)
  if cfg.max_gap <> None && checkpoint <> None then
    invalid_arg "Miner: checkpointing is not supported with max_gap";
  (* a global output cap is not root-partitioned; name the option the
     caller combined it with *)
  (match (cfg.max_patterns, checkpoint, cfg.domains) with
  | None, _, _ -> ()
  | Some _, Some _, _ ->
    invalid_arg "Miner: checkpointing is not supported with max_patterns"
  | Some _, None, Some _ ->
    invalid_arg "Miner: domains cannot be combined with max_patterns"
  | Some _, None, None ->
    invalid_arg "Miner: root-partitioned mining does not support max_patterns");
  if resume && checkpoint = None then
    invalid_arg "Miner: resume requires a checkpoint path";
  let start = Unix.gettimeofday () in
  let idx = build_index cfg db in
  let events = Inverted_index.frequent_events idx ~min_sup:cfg.min_sup in
  let fp = checkpoint_fingerprint cfg db in
  let prior =
    match (resume, checkpoint) with
    | true, Some path -> Checkpoint.load_opt ~path ~expected_fingerprint:fp
    | _ -> None
  in
  let prior_completed =
    match prior with None -> [] | Some c -> c.Checkpoint.completed
  in
  let prior_quarantined =
    match prior with None -> [] | Some c -> c.Checkpoint.quarantined
  in
  let completed_results : (Event.t, Mined.t list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun { Checkpoint.root; results } ->
      Hashtbl.replace completed_results root results)
    prior_completed;
  (* Quarantined roots stay off the frontier — a poison root must not
     re-crash every resume — unless the caller explicitly asks to re-mine
     them ([retry_quarantined], e.g. after fixing the cause). *)
  let skip_quarantined = not retry_quarantined in
  let quarantined_skipped : (Event.t, unit) Hashtbl.t = Hashtbl.create 8 in
  if skip_quarantined then
    List.iter
      (fun (q : Checkpoint.quarantine) ->
        if not (Hashtbl.mem completed_results q.root) then
          Hashtbl.replace quarantined_skipped q.root ())
      prior_quarantined;
  let remaining =
    List.filter
      (fun root ->
        (not (Hashtbl.mem completed_results root))
        && not (Hashtbl.mem quarantined_skipped root))
      events
  in
  Log.info (fun m ->
      m "mining %s patterns, min_sup=%d: %d/%d root(s) to mine%s%s" (describe cfg)
        cfg.min_sup (List.length remaining) (List.length events)
        (if prior <> None then " (resumed)" else "")
        (match Hashtbl.length quarantined_skipped with
        | 0 -> ""
        | n -> Printf.sprintf " (%d quarantined root(s) skipped)" n));
  (* An external budget (the daemon's per-job budget) wins over the
     config-derived one: the caller owns its limits and its cancellation. *)
  let budget =
    match budget with Some b -> Some b | None -> budget_of cfg
  in
  let writer =
    Option.map
      (fun path ->
        let initial =
          match prior with Some c -> Checkpoint.records_of c | None -> []
        in
        Checkpoint.Writer.create ~trace ~initial ~path ~fingerprint:fp ())
      checkpoint
  in
  (* Append one [Root_done] record the moment a root completes — that is
     the durability unit: a kill -9 loses at most the root being appended.
     [logged] feeds the Checkpoint_write span args (completed, remaining). *)
  let total_roots = List.length events in
  let logged = Atomic.make (Hashtbl.length completed_results) in
  let log_root_done root results =
    match writer with
    | None -> ()
    | Some w ->
      let t0 = Trace.now trace in
      Checkpoint.Writer.append w (Checkpoint.Root_done { root; results });
      let done_now = 1 + Atomic.fetch_and_add logged 1 in
      Trace.span trace Trace.Checkpoint_write ~a0:done_now
        ~a1:(total_roots - done_now) ~start:t0
  in
  let results, outcome, quarantined_now =
    run_roots ~trace ~budget ~completed:completed_results
      ~on_root_done:log_root_done cfg idx ~events ~remaining
  in
  let outcome =
    if Hashtbl.length quarantined_skipped > 0 then
      (* the answer is missing the skipped roots' patterns *)
      Budget.combine outcome Budget.Worker_failed
    else outcome
  in
  (match writer with
  | None -> ()
  | Some w ->
    List.iter
      (fun q -> Checkpoint.Writer.append w (Checkpoint.Root_quarantined q))
      quarantined_now;
    Checkpoint.Writer.append w (Checkpoint.Run_outcome outcome);
    Checkpoint.Writer.close w);
  let quarantined =
    Hashtbl.length quarantined_skipped + List.length quarantined_now
  in
  let elapsed_s = Unix.gettimeofday () -. start in
  Log.info (fun m ->
      m "found %d pattern(s) (%a) in %.3fs" (List.length results) Budget.pp outcome
        elapsed_s);
  { results; truncated = Budget.is_stop outcome; outcome; elapsed_s; quarantined }

let landmarks db p = Sup_comp.landmarks (Inverted_index.build db) p
let support db p = Sup_comp.support (Inverted_index.build db) p

let pp_report ?codec ?(limit = 20) ppf report =
  let pp_one =
    match codec with Some c -> Mined.pp_with c | None -> Mined.pp
  in
  let sorted = List.sort Mined.compare_by_support_desc report.results in
  let total = List.length sorted in
  let suffix =
    match report.outcome with
    | Budget.Completed -> ""
    | Budget.Truncated -> " (truncated)"
    | o -> Printf.sprintf " (partial: %s)" (Budget.to_string o)
  in
  Format.fprintf ppf "@[<v>%d pattern%s%s in %.3fs@," total
    (if total = 1 then "" else "s")
    suffix report.elapsed_s;
  List.iteri
    (fun k r -> if k < limit then Format.fprintf ppf "  %a@," pp_one r)
    sorted;
  if total > limit then Format.fprintf ppf "  ... (%d more)@," (total - limit);
  Format.fprintf ppf "@]"
