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
let pool_outcome ?halt_reason ~outcome_of slots =
  let stop_reason =
    Array.fold_left
      (fun acc status ->
        match status with
        | Done r -> Budget.combine acc (outcome_of r)
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

(* Per-run counters summed over workers or roots, under the run outcome. *)
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
  let outcome =
    pool_outcome ?halt_reason ~outcome_of:(fun (_, s) -> s.Engine.outcome) slots
  in
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

(* --- work-stealing executor ---------------------------------------- *)

(* One pending unit of DFS work. [t_path] is the list of child ranks from
   the root ([] = the root node itself): task boundaries follow the DFS
   tree, so sorting a root's per-task result lists by path (lexicographic,
   prefix first — exactly OCaml's structural compare on int lists) and
   concatenating reproduces the sequential preorder emission byte for
   byte, whatever domain mined which piece. *)
type steal_task = {
  t_root : int;  (* slot in the roots array *)
  t_path : int list;
  t_node : [ `Root of Event.t | `Frame of Engine.frame ];
}

type steal_worker = {
  w_id : int;
  w_ctx : Engine.ctx;
  w_trace : Trace.t;
  mutable w_claimed : int;
  mutable w_attempts : int;
  mutable w_successes : int;
  mutable w_depth : int;
  mutable w_idle : int;  (* failed steal rounds since the last success *)
}

(* An idle thief spins for [steal_spin_rounds] failed rounds (work often
   reappears within microseconds, when a sibling splits its next node),
   then sleeps between rounds: 10 µs doubling up to 1 ms, so a worker
   with nothing to steal stops burning the core its victims need. *)
let steal_spin_rounds = 64
let steal_max_sleep_s = 1e-3

let idle_backoff st =
  st.w_idle <- st.w_idle + 1;
  if st.w_idle <= steal_spin_rounds then Domain.cpu_relax ()
  else
    let doublings = min 7 (st.w_idle - steal_spin_rounds - 1) in
    Unix.sleepf (Float.min steal_max_sleep_s (1e-5 *. float_of_int (1 lsl doublings)))

let rec atomic_cons cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (x :: old)) then atomic_cons cell x

(* Shard-parallel mining with dynamic load balancing, replacing the
   root-granular static claiming of [run_pool]. Every worker owns a
   {!Deque}: it claims fresh roots from the shared counter while any
   remain (independent work first, in LPT order), splits shallow nodes
   (pattern length <= [split_len]) into one task per admitted child via
   [Engine.expand] and pushes them bottom-LIFO (so its own pops follow
   DFS order), and mines deeper subtrees whole with [Engine.run_frame].
   A worker that is out of roots and out of local work steals the oldest
   task from a sibling's deque — the largest deferred subtree — so one
   giant root no longer serializes the tail of the run.

   Determinism: results are keyed by (root, path) and stitched in root
   order / path order, so the output is identical to the sequential DFS
   for every schedule; the [@steal] differential suite pins this across
   backends, shard counts and seeds. Queries run through {!Query.shared}
   (thread-safe plans; the top-k floor is a shared atomic, so a stolen
   subtree inherits the current floor).

   Accounting per root mirrors [run_pool]: [pending] counts that root's
   outstanding tasks and the worker that drops it to zero finalizes the
   slot — [Done] with the stitched results, [Failed] when any task
   raised ([failed] keeps the first exception; remaining tasks of that
   root short-circuit), or left [Skipped] when a budget stop aborted a
   task before the subtree completed ([aborted]). Failed roots then take
   the usual [retry_failed] -> quarantine path, re-mined sequentially. *)
let mine_steal ?domains ?max_length ?budget ?(trace = Trace.null) ?shards
    ?(query = Query.All) ?(split_len = 2) ~strategy idx ~min_sup =
  let domains = validate ?domains ~min_sup () in
  let layout =
    Option.map
      (fun n -> Shard_merge.make (Inverted_index.db idx) ~shards:n)
      shards
  in
  let events = Inverted_index.frequent_events idx ~min_sup in
  let roots = Array.of_list events in
  let num_roots = Array.length roots in
  let shared = Query.shared ?max_length ~events ~min_sup query in
  let order = largest_first_order idx roots in
  let deques = Array.init domains (fun _ -> Deque.create ()) in
  let states = Array.make domains None in
  let next = Atomic.make 0 in
  let live = Atomic.make 0 in
  let halted = Atomic.make false in
  let halt_reason = Atomic.make None in
  let pending = Array.init num_roots (fun _ -> Atomic.make 0) in
  let parts = Array.init num_roots (fun _ -> Atomic.make []) in
  let failed = Array.init num_roots (fun _ -> Atomic.make None) in
  let aborted = Array.init num_roots (fun _ -> Atomic.make false) in
  let slots = Array.make num_roots Skipped in
  let finish_root r =
    match Atomic.get failed.(r) with
    | Some e -> slots.(r) <- Failed e
    | None ->
      if not (Atomic.get aborted.(r)) then begin
        let ps =
          List.sort
            (fun (p, _) (q, _) -> compare (p : int list) q)
            (Atomic.get parts.(r))
        in
        slots.(r) <- Done (List.concat_map snd ps)
      end
  in
  let exec ?(stolen = false) st task =
    let r = task.t_root in
    (if Atomic.get failed.(r) <> None || Atomic.get aborted.(r) then ()
     else if Atomic.get halted then Atomic.set aborted.(r) true
     else begin
       let results = ref [] in
       let emit m =
         shared.Query.shared_offer m;
         results := m :: !results
       in
       try
         if stolen then Budget.Fault.fire (Budget.Fault.Steal st.w_id);
         (match task.t_node with
         | `Root _ -> Budget.Fault.fire (Budget.Fault.Worker r)
         | `Frame _ -> ());
         (match
            match task.t_node with
            | `Root e -> Engine.root_frame st.w_ctx e
            | `Frame f -> Some f
          with
         | None -> ()
         | Some f ->
           if Pattern.length (Engine.frame_pattern f) <= split_len then begin
             let children = Array.of_list (Engine.expand st.w_ctx ~emit f) in
             let n = Array.length children in
             if n > 0 then begin
               ignore (Atomic.fetch_and_add pending.(r) n);
               ignore (Atomic.fetch_and_add live n);
               (* reversed, so the owner pops child 0 first (DFS order)
                  and thieves take the last child — order is irrelevant
                  for the output, only for locality *)
               for i = n - 1 downto 0 do
                 Deque.push deques.(st.w_id)
                   {
                     t_root = r;
                     t_path = task.t_path @ [ i ];
                     t_node = `Frame children.(i);
                   }
               done;
               st.w_depth <- max st.w_depth (Deque.size deques.(st.w_id))
             end
           end
           else Engine.run_frame st.w_ctx ~emit f);
         atomic_cons parts.(r) (task.t_path, List.rev !results)
       with
       | Budget.Stop reason ->
         if Atomic.compare_and_set halt_reason None (Some reason) then
           Engine.note_stop st.w_ctx reason;
         Atomic.set halted true;
         Atomic.set aborted.(r) true
       | Engine.Budget_exhausted ->
         (* only reachable once [halted] is set (the ctx's should_stop):
            some other worker already recorded the reason *)
         Atomic.set halted true;
         Atomic.set aborted.(r) true
       | e -> ignore (Atomic.compare_and_set failed.(r) None (Some e))
     end);
    if Atomic.fetch_and_add pending.(r) (-1) = 1 then finish_root r;
    ignore (Atomic.fetch_and_add live (-1))
  in
  let try_steal st =
    let stolen = ref None in
    let i = ref 1 in
    while !stolen = None && !i < domains do
      let v = (st.w_id + !i) mod domains in
      st.w_attempts <- st.w_attempts + 1;
      (match Deque.steal deques.(v) with
      | Deque.Stolen t ->
        st.w_successes <- st.w_successes + 1;
        st.w_idle <- 0;
        Trace.instant st.w_trace Trace.Steal ~a0:st.w_id ~a1:v;
        stolen := Some t
      | Deque.Empty | Deque.Retry -> incr i)
    done;
    !stolen
  in
  let worker slot () =
    Metrics.hit Metrics.pool_workers;
    let wtr = Trace.for_domain trace in
    let t0 = Trace.now wtr in
    let wstrategy =
      match layout with
      | None -> strategy
      | Some sm -> Shard_merge.strategy ~trace:wtr sm strategy
    in
    let st =
      {
        w_id = slot;
        w_ctx =
          Engine.make_ctx ?max_length ~events
            ~should_stop:(fun () -> Atomic.get halted)
            ?budget ~trace:wtr ~plan:shared.Query.shared_plan wstrategy idx
            ~min_sup;
        w_trace = wtr;
        w_claimed = 0;
        w_attempts = 0;
        w_successes = 0;
        w_depth = 0;
        w_idle = 0;
      }
    in
    states.(slot) <- Some st;
    let rec loop () =
      if not (Atomic.get halted) then
        match Deque.pop deques.(slot) with
        | Some t ->
          exec st t;
          loop ()
        | None ->
          let k = Atomic.fetch_and_add next 1 in
          if k < num_roots then begin
            let k = order.(k) in
            st.w_claimed <- st.w_claimed + 1;
            Atomic.set pending.(k) 1;
            ignore (Atomic.fetch_and_add live 1);
            exec st { t_root = k; t_path = []; t_node = `Root roots.(k) };
            loop ()
          end
          else if Atomic.get live > 0 then begin
            (match try_steal st with
            | Some t -> exec ~stolen:true st t
            | None -> idle_backoff st);
            loop ()
          end
    in
    (try loop () with _ -> ());
    Metrics.add Metrics.steal_attempts st.w_attempts;
    Metrics.add Metrics.steal_successes st.w_successes;
    Metrics.observe_max Metrics.deque_max_depth st.w_depth;
    ignore (Metrics.sample_live_words ());
    Trace.span wtr Trace.Worker ~a0:slot ~a1:st.w_claimed ~start:t0
  in
  let spawned =
    List.init (domains - 1) (fun i -> Domain.spawn (worker (i + 1)))
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun d -> try Domain.join d with _ -> ()) spawned)
    (worker 0);
  let all_stats =
    ref
      (Array.to_list states
      |> List.filter_map Fun.id
      |> List.map (fun st -> Engine.finish st.w_ctx ~outcome:Budget.Completed)
      )
  in
  let retry_root k =
    let wtr = Trace.for_domain trace in
    let wstrategy =
      match layout with
      | None -> strategy
      | Some sm -> Shard_merge.strategy ~trace:wtr sm strategy
    in
    let ctx =
      Engine.make_ctx ?max_length ~events ?budget ~trace:wtr
        ~plan:shared.Query.shared_plan wstrategy idx ~min_sup
    in
    let results = ref [] in
    let emit m =
      shared.Query.shared_offer m;
      results := m :: !results
    in
    (match Engine.root_frame ctx roots.(k) with
    | None -> ()
    | Some f -> Engine.run_frame ctx ~emit f);
    all_stats := Engine.finish ctx ~outcome:Budget.Completed :: !all_stats;
    List.rev !results
  in
  let slots = retry_failed ~trace ~mine_root:retry_root slots in
  let outcome =
    pool_outcome ?halt_reason:(Atomic.get halt_reason)
      ~outcome_of:(fun _ -> Budget.Completed) slots
  in
  let quarantined =
    Array.fold_left
      (fun n -> function Quarantined _ -> n + 1 | _ -> n)
      0 slots
  in
  let results =
    List.concat_map
      (function Done rs -> rs | Failed _ | Skipped | Quarantined _ -> [])
      (Array.to_list slots)
  in
  let results = shared.Query.finalize results in
  let stats = sum_stats ~outcome !all_stats in
  (results, stats, quarantined)

let shard_layout ?dispatch idx shards =
  Option.map
    (fun n -> Shard_merge.make ?dispatch (Inverted_index.db idx) ~shards:n)
    shards

(* The one pool body behind [mine_all] and [mine_closed]: the strategy
   picks the miner, everything else — claiming, retry, merge — is shared. *)
let mine_pool ~strategy ?domains ?max_length ?budget ?(trace = Trace.null)
    ?(steal = false) ?shards ?shard_dispatch idx ~min_sup =
  if steal then begin
    if shard_dispatch <> None then
      invalid_arg "Parallel_miner: shard_dispatch cannot be combined with steal";
    let results, stats, _quarantined =
      mine_steal ?domains ?max_length ?budget ~trace ?shards ~strategy idx
        ~min_sup
    in
    (results, stats)
  end
  else begin
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
  end

let mine_all = mine_pool ~strategy:Gsgrow.strategy

let mine_closed ?domains ?max_length ?(use_lb_check = true) =
  mine_pool ?domains ?max_length
    ~strategy:(Clogsgrow.strategy ~use_lb_check ~use_c_check:true)
