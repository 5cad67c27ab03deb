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

   Observability: each spawned worker samples [Metrics.peak_live_words] for
   its own domain as it exits (OCaml 5 keeps per-domain minor heaps, so the
   main domain's view alone undercounts a parallel run; the caller's worker
   skips it, so a one-domain run pays no [Gc.full_major]). Each worker,
   when [trace] is live, records its lifecycle as a [Worker] span in its
   per-domain child buffer ([Trace.for_domain] — no cross-domain
   contention; the buffers are read merged after the joins). *)
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
    if slot > 0 then ignore (Metrics.sample_live_words ());
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
