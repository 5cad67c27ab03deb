type counter = int Atomic.t
type kind = Counter | Gauge

let hit c = Atomic.incr c
let add c n = if n <> 0 then ignore (Atomic.fetch_and_add c n)
let value = Atomic.get

let observe_max c v =
  let rec loop () =
    let cur = Atomic.get c in
    if v > cur && not (Atomic.compare_and_set c cur v) then loop ()
  in
  loop ()

(* The registry holds every named counter/gauge. Registration is rare
   (module init, plus the odd dynamic caller) and mutex-protected; readers
   snapshot the list under the same mutex and then read the atomics
   lock-free. *)
let registry : (string * kind * counter) list ref = ref []
let registry_mutex = Mutex.create ()

let register name kind =
  Mutex.lock registry_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_mutex)
    (fun () ->
      if List.exists (fun (n, _, _) -> n = name) !registry then
        invalid_arg (Printf.sprintf "Metrics.register: duplicate name %S" name);
      let c = Atomic.make 0 in
      registry := (name, kind, c) :: !registry;
      c)

let registered () =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) (fun () -> !registry)

let insgrow_calls = register "insgrow_calls" Counter
let full_insgrow_calls = register "full_insgrow_calls" Counter
let next_calls = register "next_calls" Counter
let cursor_advances = register "cursor_advances" Counter
let cursor_gallops = register "cursor_gallops" Counter
let dfs_nodes = register "dfs_nodes" Counter
let patterns_emitted = register "patterns_emitted" Counter
let lb_prunes = register "lb_prunes" Counter
let closure_bound_checks = register "closure_bound_checks" Counter
let closure_bound_rejects = register "closure_bound_rejects" Counter
let closure_base_grows = register "closure_base_grows" Counter
let closure_full_grows = register "closure_full_grows" Counter
let budget_stops = register "budget_stops" Counter
let checkpoint_writes = register "checkpoint_writes" Counter
let checkpoint_io_retries = register "checkpoint_io_retries" Counter
let checkpoint_io_failures = register "checkpoint_io_failures" Counter
let checkpoint_salvaged_roots = register "checkpoint_salvaged_roots" Counter
let pool_workers = register "pool_workers" Counter
let root_retries = register "root_retries" Counter
let quarantined_roots = register "quarantined_roots" Counter
let trace_dropped_events = register "trace_dropped_events" Counter
let parse_errors_skipped = register "parse_errors_skipped" Counter
let query_targeted_cuts = register "query_targeted_cuts" Counter
let query_floor_prunes = register "query_floor_prunes" Counter
let query_topk_floor = register "query_topk_floor" Gauge
let query_delta_reps = register "query_delta_reps" Gauge
let query_delta_covered = register "query_delta_covered" Counter
let peak_live_words = register "peak_live_words" Gauge
let store_opens = register "store_opens" Counter
let store_open_ns = register "store_open_ns" Counter
let store_mapped_words = register "store_mapped_words" Gauge
let store_resident_words = register "store_resident_words" Counter
let store_crc_checks = register "store_crc_checks" Counter
let store_crc_failures = register "store_crc_failures" Counter
let shard_merge_ns = register "shard_merge_ns" Counter
let worker_spawns = register "worker_spawns" Counter
let worker_restarts = register "worker_restarts" Counter
let worker_heartbeats_missed = register "worker_heartbeats_missed" Counter
let worker_bytes_sent = register "worker_bytes_sent" Counter
let worker_bytes_received = register "worker_bytes_received" Counter
let worker_slot_hits = register "worker_slot_hits" Counter
let shard_quarantines = register "shard_quarantines" Counter
let supervisor_degraded = register "supervisor_degraded" Gauge

let sample_live_words () =
  (* force a full major first: without it [Gc.stat]'s [live_words] includes
     whatever floating garbage the last cycle left, which varies with
     allocation rhythm rather than retention and made backend memory
     comparisons meaningless *)
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  observe_max peak_live_words live;
  live

let reset () = List.iter (fun (_, _, c) -> Atomic.set c 0) (registered ())

(* --- snapshots --- *)

type snapshot = (string * kind * int) list

let snapshot () =
  List.map (fun (n, k, c) -> (n, k, Atomic.get c)) (registered ())
  |> List.sort compare

let diff ~before ~after =
  List.map
    (fun (n, k, v) ->
      match k with
      | Gauge -> (n, k, v)
      | Counter ->
        let v0 =
          match List.find_opt (fun (n0, _, _) -> n0 = n) before with
          | Some (_, _, v0) -> v0
          | None -> 0
        in
        (n, k, v - v0))
    after

let to_list s = List.map (fun (n, _, v) -> (n, v)) s

let find s name =
  match List.find_opt (fun (n, _, _) -> n = name) s with
  | Some (_, _, v) -> v
  | None -> 0

let dump () =
  List.filter (fun (_, v) -> v <> 0) (to_list (snapshot ()))

let pp ppf () =
  List.iter (fun (n, v) -> Format.fprintf ppf "%s = %d@." n v) (dump ())

let pp_prometheus ppf s =
  List.iter
    (fun (n, k, v) ->
      Format.fprintf ppf "# TYPE rgs_%s %s@." n
        (match k with Counter -> "counter" | Gauge -> "gauge");
      Format.fprintf ppf "rgs_%s %d@." n v)
    s

let pp_json ppf s =
  Format.fprintf ppf "{";
  List.iteri
    (fun i (n, k, v) ->
      Format.fprintf ppf "%s@\n  %S: {\"kind\": %S, \"value\": %d}"
        (if i = 0 then "" else ",")
        n
        (match k with Counter -> "counter" | Gauge -> "gauge")
        v)
    s;
  Format.fprintf ppf "@\n}@."

let write_stats ~path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let ppf = Format.formatter_of_out_channel oc in
      if Filename.check_suffix path ".json" then pp_json ppf s
      else pp_prometheus ppf s;
      Format.pp_print_flush ppf ())
