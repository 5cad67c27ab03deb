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
  (match (cfg.shards, cfg.shard_dispatch) with
  | Some _, None -> invalid_arg "Miner: shards requires shard_dispatch"
  | None, Some _ -> invalid_arg "Miner: shard_dispatch requires shards"
  | _ -> ());
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
    ?max_gap ?domains ?shards ?shard_dispatch ?deadline_s
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
      deadline_s;
      max_nodes;
      max_words;
    }
  in
  validate_config cfg;
  cfg

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

(* The strategy a config's DFS runs under. *)
let strategy_of cfg =
  match (cfg.max_gap, cfg.mode) with
  | Some max_gap, _ -> Gap_constrained.strategy ~min_gap:0 ~max_gap
  | None, All -> Gsgrow.strategy
  | None, Closed -> Clogsgrow.strategy ~use_lb_check:true ~use_c_check:true

(* The shard layout a config asks for, computed once per run from the
   index's backing database ([None] = unsharded). *)
let layout_of cfg idx =
  match (cfg.shards, cfg.shard_dispatch) with
  | Some n, Some dispatch ->
    Some (Shard_merge.make ~dispatch (Inverted_index.db idx) ~shards:n)
  | _ -> None

(* The roots in answer order, which ranks them: the index's canonical
   event order (the output order contract), or for top-k the one root
   order ([Parallel_miner.largest_first_order]), which breaks top-k ties
   and raises the floor fastest (see [Query]). *)
let ranked_roots cfg idx events =
  let roots = Array.of_list events in
  match cfg.query with
  | Query.All | Query.Targeted _ -> roots
  | Query.Top_k _ ->
    Array.map (fun k -> roots.(k)) (Parallel_miner.largest_first_order idx roots)

(* --- the run body: the root pool, with checkpoint/resume on it --- *)

let checkpoint_fingerprint cfg db =
  Checkpoint.fingerprint
    ~params:
      ([
         (match cfg.mode with All -> "all" | Closed -> "closed");
         string_of_int cfg.min_sup;
         (match cfg.max_length with Some l -> string_of_int l | None -> "-");
       ]
      (* appended only for non-trivial queries, so checkpoints written
         before queries existed keep their fingerprints; a resumed run
         under a {e different} query is refused (Checkpoint.Corrupt) *)
      @ (match cfg.query with
        | Query.All -> []
        | Query.Targeted _ as q -> [ "query=" ^ Query.to_string q ]
        (* per-root top-k answers follow the arrival tie rule; logs written
           under the earlier rule hold other tied patterns, so they must
           not resume into this run *)
        | Query.Top_k _ as q -> [ "query=" ^ Query.to_string q; "ties=arrival" ])
      (* likewise appended only when set, so gapless fingerprints stay
         valid; a gap log resumed under another gap is refused *)
      @ match cfg.max_gap with None -> [] | Some g -> [ "gap=" ^ string_of_int g ])
    db

(* Chaos/testing knob: slow every root down so an external harness has a
   deterministic window to deliver signals or kill -9 mid-run. Unset (the
   default) costs one load per root. *)
let chaos_root_delay_s =
  lazy
    (match Sys.getenv_opt "RGS_CHAOS_ROOT_DELAY_MS" with
    | None -> 0.0
    | Some v -> ( try float_of_string v /. 1000.0 with Failure _ -> 0.0))

(* The one run body: one [Engine.run] per remaining (rank, root) on
   [Parallel_miner.run_pool], one sequential retry for crashed roots, and
   the answer read off [board], which already holds the roots loaded from
   a checkpoint. A completed root is handed to [on_root_done] and only
   then published, so no floor rises on a root a kill could still lose.
   Returns the answer, the run outcome and the roots quarantined now. *)
let run_roots ~trace ~budget ~board ~on_root_done cfg idx ~events ~remaining =
  let domains = Option.value cfg.domains ~default:1 in
  let layout = layout_of cfg idx in
  let base_strategy = strategy_of cfg in
  (* [max_patterns] counts across roots; it is refused with several
     domains, so the count is single-domain *)
  let emitted = ref 0 in
  let capped offer =
    match cfg.max_patterns with
    | None -> offer
    | Some b ->
      fun r ->
        offer r;
        incr emitted;
        if !emitted >= b then raise Engine.Budget_exhausted
  in
  let mine_root k =
    (match Lazy.force chaos_root_delay_s with
    | 0.0 -> ()
    | d -> ( try Unix.sleepf d with Unix.Unix_error (Unix.EINTR, _, _) -> ()));
    let rank, root = remaining.(k) in
    let collector =
      Query.collector ?max_length:cfg.max_length ~board ~rank ~events
        ~min_sup:cfg.min_sup cfg.query
    in
    let wtr = Trace.for_domain trace in
    let strategy =
      match layout with
      | None -> base_strategy
      | Some sm -> Shard_merge.strategy ~trace:wtr sm base_strategy
    in
    let s =
      Engine.run ?max_length:cfg.max_length ?budget ~trace:wtr ~events
        ~roots:[ root ] ~plan:collector.Query.plan strategy idx
        ~min_sup:cfg.min_sup ~emit:(capped collector.Query.offer)
    in
    let results = collector.Query.results () in
    if s.Engine.outcome = Budget.Completed then begin
      on_root_done root results;
      Query.publish board ~rank results
    end;
    (results, s.Engine.outcome)
  in
  (* One domain claims roots in rank order, so emission order, deadline
     partials and [max_patterns] prefixes are those of one DFS over every
     root; several domains claim largest subtree first. For top-k the rank
     order already is the largest-first order. *)
  let order =
    if domains = 1 then None
    else
      Some (Parallel_miner.largest_first_order idx (Array.map snd remaining))
  in
  let slots, halt_reason =
    Parallel_miner.run_pool ~trace
      ~halt_on:(fun (_, outcome) -> Budget.is_stop outcome)
      ?order ~domains ~num_roots:(Array.length remaining) ~mine_root ()
  in
  let slots = Parallel_miner.retry_failed ~trace ~mine_root slots in
  (* Classify each freshly mined root: completed roots are on the board
     already; partially mined roots join it now, after every floor has
     been used; quarantined roots are returned so a checkpoint can record
     them. *)
  let quarantined_now = ref [] in
  let outcome = ref (Option.value halt_reason ~default:Budget.Completed) in
  Array.iteri
    (fun k status ->
      let rank, root = remaining.(k) in
      match status with
      | Parallel_miner.Done (_, Budget.Completed) -> ()
      | Parallel_miner.Done (results, stop) ->
        Query.publish board ~rank results;
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
  (Query.answer board, outcome, List.rev !quarantined_now)

let mine_indexed ?budget ?checkpoint ?(resume = false)
    ?(retry_quarantined = false) ?(trace = Trace.null) cfg idx =
  validate_config cfg;
  (* a global output cap is not root-partitioned; name the option the
     caller combined it with *)
  (match (cfg.max_patterns, checkpoint, cfg.domains) with
  | None, _, _ | Some _, None, None -> ()
  | Some _, Some _, _ ->
    invalid_arg "Miner: checkpointing is not supported with max_patterns"
  | Some _, None, Some _ ->
    invalid_arg "Miner: domains cannot be combined with max_patterns");
  if resume && checkpoint = None then
    invalid_arg "Miner: resume requires a checkpoint path";
  let start = Unix.gettimeofday () in
  let events = Inverted_index.frequent_events idx ~min_sup:cfg.min_sup in
  let roots = ranked_roots cfg idx events in
  let board = Query.board ~roots:(Array.length roots) cfg.query in
  let fingerprint =
    lazy (checkpoint_fingerprint cfg (Inverted_index.db idx))
  in
  let prior =
    match (resume, checkpoint) with
    | true, Some path ->
      Checkpoint.load_opt ~path ~expected_fingerprint:(Lazy.force fingerprint)
    | _ -> None
  in
  (* A logged root is done ([Some] answer) or, when it was quarantined,
     skipped ([None]): a poison root must not re-crash every resume,
     unless the caller explicitly asks to re-mine it ([retry_quarantined],
     e.g. after fixing the cause). *)
  let logged_roots : (Event.t, Mined.t list option) Hashtbl.t =
    Hashtbl.create 64
  in
  Option.iter
    (fun (c : Checkpoint.t) ->
      List.iter
        (fun { Checkpoint.root; results } ->
          Hashtbl.replace logged_roots root (Some results))
        c.completed;
      if not retry_quarantined then
        List.iter
          (fun (q : Checkpoint.quarantine) ->
            if not (Hashtbl.mem logged_roots q.root) then
              Hashtbl.replace logged_roots q.root None)
          c.quarantined)
    prior;
  let remaining = ref [] and completed = ref 0 and skipped = ref 0 in
  Array.iteri
    (fun rank root ->
      match Hashtbl.find_opt logged_roots root with
      | Some (Some results) ->
        incr completed;
        Query.publish board ~rank results
      | Some None -> incr skipped
      | None -> remaining := (rank, root) :: !remaining)
    roots;
  let remaining = Array.of_list (List.rev !remaining) in
  Log.info (fun m ->
      m "mining %s patterns, min_sup=%d: %d/%d root(s) to mine%s%s" (describe cfg)
        cfg.min_sup (Array.length remaining) (Array.length roots)
        (if prior <> None then " (resumed)" else "")
        (match !skipped with
        | 0 -> ""
        | n -> Printf.sprintf " (%d quarantined root(s) skipped)" n));
  (* An external budget (the daemon's per-job budget) wins over the
     config-derived one: the caller owns its limits and its cancellation. *)
  let budget = match budget with Some b -> Some b | None -> budget_of cfg in
  let writer =
    Option.map
      (fun path ->
        let initial =
          match prior with Some c -> Checkpoint.records_of c | None -> []
        in
        Checkpoint.Writer.create ~trace ~initial ~path
          ~fingerprint:(Lazy.force fingerprint) ())
      checkpoint
  in
  (* Append one [Root_done] record the moment a root completes — that is
     the durability unit: a kill -9 loses at most the root being appended.
     [logged] feeds the Checkpoint_write span args (completed, remaining). *)
  let total_roots = Array.length roots in
  let logged = Atomic.make !completed in
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
    run_roots ~trace ~budget ~board ~on_root_done:log_root_done cfg idx ~events
      ~remaining
  in
  let outcome =
    if !skipped > 0 then
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
  let quarantined = !skipped + List.length quarantined_now in
  let elapsed_s = Unix.gettimeofday () -. start in
  Log.info (fun m ->
      m "found %d pattern(s) (%a) in %.3fs" (List.length results) Budget.pp outcome
        elapsed_s);
  { results; truncated = Budget.is_stop outcome; outcome; elapsed_s; quarantined }

let mine ?budget ?checkpoint ?resume ?retry_quarantined ?trace ?config:cfg
    ?min_sup db =
  let cfg =
    match (cfg, min_sup) with
    | Some c, _ -> c
    | None, Some min_sup -> config ~min_sup ()
    | None, None -> invalid_arg "Miner.mine: provide ~config or ~min_sup"
  in
  mine_indexed ?budget ?checkpoint ?resume ?retry_quarantined ?trace cfg
    (Inverted_index.build db)

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
