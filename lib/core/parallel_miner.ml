open Rgs_sequence

let default_domains () = max 1 (min (Domain.recommended_domain_count ()) 8)
let auto_shards () = max 1 (Domain.recommended_domain_count ())

type 'a root_status =
  | Done of 'a
  | Failed of exn
  | Skipped
  | Quarantined of { exn : exn; backtrace : string }

(* Claim roots from an atomic counter until exhausted; store each root's
   status into its slot. [mine_root] must be thread-compatible: it only
   reads the shared index and writes domain-local state.

   Crash isolation: an exception from [mine_root] (or from the fault hook)
   is captured as [Failed] in that root's slot — it never escapes a worker,
   so [Domain.join] cannot re-raise and the main domain always joins every
   spawned domain, even when its own worker fails. When a completed root
   satisfies [halt_on] (e.g. a shared budget reported a stop) the pool
   stops claiming further roots; unclaimed slots stay [Skipped].

   Scheduling: [order], when given, maps claim slots to root indices, so
   workers pull roots in that order while everything keyed by root — the
   slot array, fault sites, checkpoints, the collected output — is
   untouched by the permutation. The pool's merge is claim-order
   independent, so any [order] yields the identical result; it only moves
   wall-clock around (see [largest_first_order]).

   Observability: each worker samples [Metrics.peak_live_words] for its own
   domain as it exits (OCaml 5 keeps per-domain minor heaps, so the main
   domain's view alone undercounts a parallel run) and, when [trace] is
   live, records its lifecycle as a [Worker] span in its per-domain child
   buffer ([Trace.for_domain] — no cross-domain contention; the buffers are
   read merged after the joins). *)
let run_pool ?(trace = Trace.null) ?(halt_on = fun _ -> false) ?order ~domains
    ~num_roots ~mine_root () =
  (match order with
  | Some o when Array.length o <> num_roots ->
    invalid_arg "Parallel_miner.run_pool: order length <> num_roots"
  | _ -> ());
  let next = Atomic.make 0 in
  let halted = Atomic.make false in
  let halt_reason = Atomic.make None in
  let slots = Array.make num_roots Skipped in
  let worker slot () =
    Metrics.hit Metrics.pool_workers;
    let wtr = Trace.for_domain trace in
    let t0 = Trace.now wtr in
    let claimed = ref 0 in
    let rec loop () =
      if not (Atomic.get halted) then begin
        let k = Atomic.fetch_and_add next 1 in
        if k < num_roots then begin
          let k = match order with None -> k | Some o -> o.(k) in
          incr claimed;
          (match
             Budget.Fault.fire (Budget.Fault.Worker k);
             mine_root k
           with
          | r ->
            slots.(k) <- Done r;
            if halt_on r then Atomic.set halted true
          | exception Budget.Stop reason ->
            (* a shared budget tripped outside the miner's own handler; the
               root is not complete — leave it [Skipped] so a resume can
               re-claim it, but remember why the pool halted *)
            Metrics.hit Metrics.budget_stops;
            Trace.instant wtr Trace.Budget_stop ~a0:(Budget.severity reason)
              ~a1:0;
            Atomic.set halt_reason (Some reason);
            Atomic.set halted true
          | exception e -> slots.(k) <- Failed e);
          loop ()
        end
      end
    in
    (try loop () with _ -> ());
    ignore (Metrics.sample_live_words ());
    Trace.span wtr Trace.Worker ~a0:slot ~a1:!claimed ~start:t0
  in
  let spawned = List.init (domains - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun d -> try Domain.join d with _ -> ()) spawned)
    (worker 0);
  (slots, Atomic.get halt_reason)

(* One sequential retry for roots that crashed in the pool, after a short
   backoff (transient failures — an injected once-armed fault, a blip of
   memory pressure — recover); a root that fails its retry too is poison
   and gets quarantined: the exception and backtrace are preserved so a
   checkpoint can record it and a resumed run can skip it instead of
   re-crashing forever. *)
let retry_failed ?(trace = Trace.null) ?(backoff_s = 0.01) ~mine_root slots =
  Array.iteri
    (fun k status ->
      match status with
      | Failed _ -> (
        Metrics.hit Metrics.root_retries;
        Trace.instant trace Trace.Root_retry ~a0:k ~a1:0;
        if backoff_s > 0.0 then Unix.sleepf backoff_s;
        match
          Budget.Fault.fire (Budget.Fault.Worker k);
          mine_root k
        with
        | r -> slots.(k) <- Done r
        | exception e ->
          let backtrace = Printexc.get_backtrace () in
          Metrics.hit Metrics.quarantined_roots;
          Trace.instant trace Trace.Quarantine ~a0:k ~a1:0;
          slots.(k) <- Quarantined { exn = e; backtrace })
      | Done _ | Skipped | Quarantined _ -> ())
    slots;
  slots

let validate ?(domains = default_domains ()) ~min_sup () =
  if min_sup < 1 then invalid_arg "Parallel_miner: min_sup must be >= 1";
  if domains < 1 then invalid_arg "Parallel_miner: domains must be >= 1";
  domains

(* The run outcome of a finished pool: the most severe of the per-root
   outcomes, [Worker_failed] dominating when a root crashed twice, and
   [Skipped] slots inheriting the stop reason that halted the pool. *)
let pool_outcome ?halt_reason slots =
  let stop_reason =
    Array.fold_left
      (fun acc status ->
        match status with
        | Done (_, s) -> Budget.combine acc s.Engine.outcome
        | Failed _ | Quarantined _ -> Budget.combine acc Budget.Worker_failed
        | Skipped -> acc)
      (Option.value halt_reason ~default:Budget.Completed)
      slots
  in
  if
    Array.exists (function Skipped -> true | _ -> false) slots
    && not (Budget.is_stop stop_reason)
  then (* halted without a recorded reason: treat as cancelled *)
    Budget.Cancelled
  else stop_reason

(* Per-run counters summed over roots, under the run outcome. *)
let sum_stats ~outcome stats =
  List.fold_left
    (fun acc (s : Engine.stats) ->
      {
        acc with
        Engine.emitted = acc.Engine.emitted + s.Engine.emitted;
        dfs_nodes = acc.Engine.dfs_nodes + s.Engine.dfs_nodes;
        insgrow_calls = acc.Engine.insgrow_calls + s.Engine.insgrow_calls;
        lb_pruned = acc.Engine.lb_pruned + s.Engine.lb_pruned;
        non_closed_dropped =
          acc.Engine.non_closed_dropped + s.Engine.non_closed_dropped;
        query_cuts = acc.Engine.query_cuts + s.Engine.query_cuts;
        floor_prunes = acc.Engine.floor_prunes + s.Engine.floor_prunes;
      })
    {
      Engine.emitted = 0;
      dfs_nodes = 0;
      insgrow_calls = 0;
      lb_pruned = 0;
      non_closed_dropped = 0;
      query_cuts = 0;
      floor_prunes = 0;
      truncated = Budget.is_stop outcome;
      outcome;
    }
    stats

(* Merge per-root statuses: concatenate surviving results in root order
   (deterministic) and sum the stats under the run outcome. *)
let collect ?halt_reason slots =
  let outcome = pool_outcome ?halt_reason slots in
  let done_roots =
    List.filter_map
      (function Done r -> Some r | Failed _ | Skipped | Quarantined _ -> None)
      (Array.to_list slots)
  in
  ( List.concat_map fst done_roots,
    sum_stats ~outcome (List.map snd done_roots) )

(* Largest DFS subtrees first. A root's size-1 support (its event's total
   occurrence count) is a cheap proxy for its subtree's mining cost; with
   index-order claiming a heavy root claimed late leaves one domain mining
   alone while the rest idle — the classic LPT scheduling fix. Ties break
   toward the lower index so the permutation is deterministic. *)
let largest_first_order idx roots =
  let n = Array.length roots in
  let weight = Array.map (fun e -> Inverted_index.occurrence_count idx e) roots in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      if weight.(a) <> weight.(b) then compare weight.(b) weight.(a)
      else compare a b)
    order;
  order

let shard_layout ?dispatch idx shards =
  Option.map
    (fun n -> Shard_merge.make ?dispatch (Inverted_index.db idx) ~shards:n)
    shards

(* The one pool body behind [mine_all], [mine_closed] and every parallel
   [Miner] run: the strategy picks the miner, everything else — claiming,
   retry, merge — is shared. *)
let mine ~strategy ?domains ?max_length ?budget ?(trace = Trace.null) ?shards
    ?shard_dispatch idx ~min_sup =
  let domains = validate ?domains ~min_sup () in
  let sm = shard_layout ?dispatch:shard_dispatch idx shards in
  let events = Inverted_index.frequent_events idx ~min_sup in
  let roots = Array.of_list events in
  let mine_root k =
    let trace = Trace.for_domain trace in
    let strategy =
      match sm with
      | None -> strategy
      | Some sm -> Shard_merge.strategy ~trace sm strategy
    in
    let results = ref [] in
    let stats =
      Engine.run ?max_length ?budget ~trace ~events ~roots:[ roots.(k) ]
        strategy idx ~min_sup ~emit:(fun m -> results := m :: !results)
    in
    (List.rev !results, stats)
  in
  let slots, halt_reason =
    run_pool ~trace
      ~halt_on:(fun (_, s) -> Budget.is_stop s.Engine.outcome)
      ~order:(largest_first_order idx roots) ~domains
      ~num_roots:(Array.length roots) ~mine_root ()
  in
  collect ?halt_reason (retry_failed ~trace ~mine_root slots)

let mine_all = mine ~strategy:Gsgrow.strategy

let mine_closed ?domains ?max_length ?(use_lb_check = true) =
  mine ?domains ?max_length
    ~strategy:(Clogsgrow.strategy ~use_lb_check ~use_c_check:true)
