(* Seeded chaos sweep over the Budget.Fault sites (Chaos harness).

   For every generated plan — site kind x trigger firing count x
   transient/persistent — the faulted run must uphold the resilience
   invariant: mined output restricted to non-quarantined roots equals the
   fault-free run, and no injected fault escapes a root-pool run
   (Miner.mine_indexed with domains, in every mode, with or without a
   checkpoint) as an uncaught exception. The sweep is bounded so tier-1
   stays fast; RGS_CHAOS_PLANS raises the plan count for a deeper run
   (e.g. RGS_CHAOS_PLANS=100 dune build @chaos). *)

open Rgs_sequence
open Rgs_core

let chaos_db =
  lazy
    (Rgs_datagen.Quest_gen.generate
       (Rgs_datagen.Quest_gen.params ~d:40 ~c:12 ~n:30 ~s:3 ~seed:11 ()))

let min_sup = 5

let plan_count =
  match Sys.getenv_opt "RGS_CHAOS_PLANS" with
  | Some v -> ( try max 1 (int_of_string v) with Failure _ -> 12)
  | None -> 12

let plan_str plan = Format.asprintf "%a" Chaos.pp_plan plan

let check plan ~baseline ~faulty ~quarantined =
  match Chaos.check_invariant ~baseline ~faulty ~quarantined with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" (plan_str plan) msg

let quarantined_delta before =
  Metrics.find
    (Metrics.diff ~before ~after:(Metrics.snapshot ()))
    "quarantined_roots"

let with_temp_checkpoint f =
  let path = Filename.temp_file "rgs-chaos" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* --- generator determinism --- *)

let test_plans_deterministic () =
  let a = Chaos.plans ~seed:42 ~count:20 () in
  let b = Chaos.plans ~seed:42 ~count:20 () in
  Alcotest.(check bool) "same seed, same plans" true (a = b);
  let c = Chaos.plans ~seed:43 ~count:20 () in
  Alcotest.(check bool) "different seed, different plans" true (a <> c);
  List.iter
    (fun (p : Chaos.plan) ->
      Alcotest.(check bool) "trigger in [1,8]" true
        (p.trigger >= 1 && p.trigger <= 8))
    a;
  (* cycling guarantees kind coverage even in a small sweep *)
  let kinds = List.sort_uniq compare (List.map (fun p -> p.Chaos.kind) a) in
  Alcotest.(check int) "all three kinds attacked" 3 (List.length kinds)

let test_inject_counts_firings () =
  let fire () = Budget.Fault.fire Budget.Fault.Insgrow in
  let plan = { Chaos.id = 0; kind = Chaos.Insgrow; trigger = 3; persistent = false } in
  Chaos.inject plan (fun () ->
      fire ();
      fire ();
      (match fire () with
      | exception Chaos.Injected p -> Alcotest.(check int) "plan id" 0 p.Chaos.id
      | () -> Alcotest.fail "third firing should inject");
      (* transient: the fourth firing passes *)
      fire ());
  let persistent = { plan with Chaos.persistent = true } in
  Chaos.inject persistent (fun () ->
      fire ();
      fire ();
      (match fire () with
      | exception Chaos.Injected _ -> ()
      | () -> Alcotest.fail "third firing should inject");
      match fire () with
      | exception Chaos.Injected _ -> ()
      | () -> Alcotest.fail "persistent fault must keep firing")

(* --- invariant checker is itself testable --- *)

let mined root support =
  { Mined.pattern = Pattern.of_list [ root ]; support }

let test_invariant_checker () =
  let baseline = [ mined 1 5; mined 2 4 ] in
  Alcotest.(check bool) "identical ok" true
    (Chaos.check_invariant ~baseline ~faulty:baseline ~quarantined:0 = Ok ());
  Alcotest.(check bool) "missing root needs quarantine count" true
    (Result.is_error
       (Chaos.check_invariant ~baseline ~faulty:[ mined 1 5 ] ~quarantined:0));
  Alcotest.(check bool) "missing root matches quarantine count" true
    (Chaos.check_invariant ~baseline ~faulty:[ mined 1 5 ] ~quarantined:1 = Ok ());
  Alcotest.(check bool) "changed support detected" true
    (Result.is_error
       (Chaos.check_invariant ~baseline
          ~faulty:[ mined 1 6; mined 2 4 ]
          ~quarantined:0));
  Alcotest.(check bool) "invented root detected" true
    (Result.is_error
       (Chaos.check_invariant ~baseline
          ~faulty:[ mined 1 5; mined 2 4; mined 3 2 ]
          ~quarantined:0))

(* --- the sweeps --- *)

let test_sweep_mine_all () =
  let db = Lazy.force chaos_db in
  let idx = Inverted_index.build db in
  let baseline = (Gens.pool ~domains:2 ~max_length:3 idx ~min_sup).Miner.results in
  Alcotest.(check bool) "baseline mined something" true (baseline <> []);
  List.iter
    (fun plan ->
      let before = Metrics.snapshot () in
      match
        Chaos.inject plan (fun () ->
            Gens.pool ~domains:2 ~max_length:3 idx ~min_sup)
      with
      | faulty ->
        check plan ~baseline ~faulty:faulty.Miner.results
          ~quarantined:(quarantined_delta before)
      | exception e ->
        Alcotest.failf "%s: escaped exception %s" (plan_str plan)
          (Printexc.to_string e))
    (Chaos.plans
       ~kinds:[ Chaos.Insgrow; Chaos.Worker ]
       ~seed:101 ~count:plan_count ())

let test_sweep_mine_closed () =
  let db = Lazy.force chaos_db in
  let idx = Inverted_index.build db in
  let baseline =
    (Gens.pool ~mode:Miner.Closed ~domains:2 ~max_length:3 idx ~min_sup)
      .Miner.results
  in
  Alcotest.(check bool) "baseline mined something" true (baseline <> []);
  List.iter
    (fun plan ->
      let before = Metrics.snapshot () in
      match
        Chaos.inject plan (fun () ->
            Gens.pool ~mode:Miner.Closed ~domains:2 ~max_length:3 idx ~min_sup)
      with
      | faulty ->
        check plan ~baseline ~faulty:faulty.Miner.results
          ~quarantined:(quarantined_delta before)
      | exception e ->
        Alcotest.failf "%s: escaped exception %s" (plan_str plan)
          (Printexc.to_string e))
    (Chaos.plans
       ~kinds:[ Chaos.Insgrow; Chaos.Worker ]
       ~seed:202 ~count:plan_count ())

(* A checkpointed run additionally exposes the Checkpoint_io site; a
   checkpoint-write fault may never change mined output, only degrade
   durability (report.quarantined stays 0 for those plans). *)
let test_sweep_checkpointed () =
  let db = Lazy.force chaos_db in
  let cfg = Miner.config ~min_sup ~max_length:3 ~domains:2 () in
  let baseline = Miner.mine ~config:cfg db in
  Alcotest.(check bool) "baseline completed" true
    (baseline.Miner.outcome = Budget.Completed);
  List.iter
    (fun plan ->
      with_temp_checkpoint (fun path ->
          match
            Chaos.inject plan (fun () ->
                Miner.mine ~checkpoint:path ~config:cfg db)
          with
          | report ->
            check plan ~baseline:baseline.Miner.results
              ~faulty:report.Miner.results
              ~quarantined:report.Miner.quarantined;
            if plan.Chaos.kind = Chaos.Checkpoint_io then
              Alcotest.(check int)
                (plan_str plan ^ ": checkpoint faults quarantine nothing")
                0 report.Miner.quarantined
          | exception e ->
            Alcotest.failf "%s: escaped exception %s" (plan_str plan)
              (Printexc.to_string e)))
    (Chaos.plans ~seed:303 ~count:plan_count ())

(* A sharded pool run exposes one further site: a cancellation between
   a sharded growth's per-shard INSgrow passes and the combine
   (Shard_merge). Same invariant: output modulo quarantined roots equals
   the fault-free run — the sequential retry does not run the faulted
   merge pass at the same firing, so transient faults are fully absorbed.
   The skewed database puts most of the work under one root, so a fault
   usually lands in the root every other domain waits for. *)
let skew_db =
  lazy
    (QCheck2.Gen.generate1
       ~rand:(Random.State.make [| 0xC0A5 |])
       (Gens.skewed_db ~num_seqs:16 ~alphabet:4 ~len:16))

let test_sweep_pool_sharded () =
  let db = Lazy.force skew_db in
  let idx = Inverted_index.build db in
  (* GSgrow, not CloGSgrow: the invariant counts absent roots against the
     quarantine tally, which needs every root to emit at least its own
     size-1 pattern in the fault-free run *)
  let mine () = Gens.pool ~domains:3 ~max_length:4 ~shards:2 idx ~min_sup:4 in
  let { Miner.results = baseline; outcome; _ } = mine () in
  Alcotest.(check bool) "fault-free baseline" true
    (outcome = Budget.Completed);
  Alcotest.(check bool) "baseline mined something" true (baseline <> []);
  List.iter
    (fun plan ->
      let before = Metrics.snapshot () in
      match Chaos.inject plan mine with
      | faulty ->
        check plan ~baseline ~faulty:faulty.Miner.results
          ~quarantined:(quarantined_delta before)
      | exception e ->
        Alcotest.failf "%s: escaped exception %s" (plan_str plan)
          (Printexc.to_string e))
    (Chaos.plans
       ~kinds:[ Chaos.Insgrow; Chaos.Worker; Chaos.Shard_merge ]
       ~seed:404 ~count:plan_count ())

(* Gap-constrained mining runs on the same pool body: a fault inside its
   skip-on-failure grow or in a worker loses at most the faulted roots.
   Like GSgrow, the gap strategy has no closure check, so every frequent
   root emits its size-1 pattern and absent roots are countable. *)
let test_sweep_pool_gap () =
  let db = Lazy.force chaos_db in
  let idx = Inverted_index.build db in
  let mine () = Gens.pool ~domains:2 ~max_length:3 ~max_gap:2 idx ~min_sup in
  let { Miner.results = baseline; outcome; _ } = mine () in
  Alcotest.(check bool) "fault-free baseline" true
    (outcome = Budget.Completed);
  Alcotest.(check bool) "baseline mined something" true (baseline <> []);
  List.iter
    (fun plan ->
      let before = Metrics.snapshot () in
      match Chaos.inject plan mine with
      | faulty ->
        check plan ~baseline ~faulty:faulty.Miner.results
          ~quarantined:(quarantined_delta before)
      | exception e ->
        Alcotest.failf "%s: escaped exception %s" (plan_str plan)
          (Printexc.to_string e))
    (Chaos.plans
       ~kinds:[ Chaos.Insgrow; Chaos.Worker ]
       ~seed:606 ~count:plan_count ())

(* Mid-merge cancellation under the checkpointed path: Shard_merge faults
   inside a checkpointed run with sharding on must uphold the same invariant,
   and the checkpoint must stay loadable afterwards (exercised by the
   robustness tier; here the report contract suffices). *)
let test_sweep_resumable_sharded () =
  let db = Lazy.force chaos_db in
  let cfg =
    Miner.config ~min_sup ~max_length:3 ~domains:2 ~shards:3
      ~shard_dispatch:Gens.inproc_dispatch ()
  in
  let baseline = Miner.mine ~config:cfg db in
  Alcotest.(check bool) "sharded baseline completed" true
    (baseline.Miner.outcome = Budget.Completed);
  List.iter
    (fun plan ->
      with_temp_checkpoint (fun path ->
          match
            Chaos.inject plan (fun () ->
                Miner.mine ~checkpoint:path ~config:cfg db)
          with
          | report ->
            check plan ~baseline:baseline.Miner.results
              ~faulty:report.Miner.results
              ~quarantined:report.Miner.quarantined
          | exception e ->
            Alcotest.failf "%s: escaped exception %s" (plan_str plan)
              (Printexc.to_string e)))
    (Chaos.plans
       ~kinds:[ Chaos.Shard_merge; Chaos.Worker ]
       ~seed:505 ~count:plan_count ())

let suite =
  [
    Alcotest.test_case "plans deterministic" `Quick test_plans_deterministic;
    Alcotest.test_case "inject counts firings" `Quick test_inject_counts_firings;
    Alcotest.test_case "invariant checker" `Quick test_invariant_checker;
    Alcotest.test_case "sweep mine_all" `Quick test_sweep_mine_all;
    Alcotest.test_case "sweep mine_closed" `Quick test_sweep_mine_closed;
    Alcotest.test_case "sweep checkpointed" `Quick test_sweep_checkpointed;
    Alcotest.test_case "sweep pool sharded" `Quick test_sweep_pool_sharded;
    Alcotest.test_case "sweep pool gap-constrained" `Quick test_sweep_pool_gap;
    Alcotest.test_case "sweep resumable sharded" `Quick
      test_sweep_resumable_sharded;
  ]
