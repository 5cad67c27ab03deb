(* perfbench harness: the OCaml half of the repository benchmark.

   run.py drives this executable; every subcommand prints one JSON object
   on stdout and works on files inside the directory it is started in.

     harness prep WORKLOAD --data DIR --seed N
         write the workload's inputs (seeded copies of the corpora under
         data/) and the reference answers: the in-process, sequential
         [Miner.mine_indexed] answer of every job, as a row digest.
     harness job WORKLOAD
         one untraced end-to-end job through the entry points rgsminer
         uses (load or map, index, supervisor, [Miner.mine_indexed]).
     harness trace WORKLOAD [--in-process] [--chrome FILE]
         the same job with the calls into each layer wrapped in spans
         and counted (see [Spans]); reports per-layer self times,
         counters and GC deltas.
     harness clients --socket PATH --seed N --seconds S
         the daemon_mix closed loop: two connections submit the seeded
         job list to a running rgsminerd, one job at a time each, and
         check every answer.
     harness replay --seed N [--untraced] [--chrome FILE]
         daemon_mix's job list replayed in-process through the same
         layers, traced, for the per-layer split of the daemon's work.

   Inputs are seeded copies of the checked-in corpora: the seed shuffles
   the sequence order and (for integer corpora) renames the events by a
   permutation. Answers are isomorphic across seeds, so the work per job
   does not depend on the seed, but no two seeds see the same bytes. *)

open Rgs_sequence
open Rgs_core
module Store = Rgs_store.Store
module Supervisor = Rgs_server.Supervisor
module Protocol = Rgs_server.Protocol
module Client = Rgs_server.Client
module Job = Rgs_server.Job

(* ---------- JSON output ---------- *)

type json =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | List of json list
  | Obj of (string * json) list

let rec add_json b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    Buffer.add_string b (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Str s ->
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        add_json b x)
      l;
    Buffer.add_char b ']'
  | Obj l ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_char b ',';
        add_json b (Str k);
        Buffer.add_char b ':';
        add_json b x)
      l;
    Buffer.add_char b '}'

let print_json j =
  let b = Buffer.create 4096 in
  add_json b j;
  print_endline (Buffer.contents b)

let now = Unix.gettimeofday
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ---------- spans: per-layer self time, counted from outside ---------- *)

(* A span times one call into a layer's public function. Self time is the
   span's duration minus the time its child spans cover, so the self
   times of a job's spans partition the job's wall time; whatever no
   span covers stays with the root ("job") and is what the 5% coverage
   check bounds. Each call is also kept as one Chrome trace event, in
   flat arrays so that a span costs two clock reads and a few stores.
   Single-domain use only. *)
module Spans = struct
  type layer = { name : string; id : int; mutable self : float }
  type frame = { layer : layer; start : float; mutable child : float }

  let enabled = ref true
  let layers : layer list ref = ref []
  let stack : frame list ref = ref []
  let origin = now ()

  let layer name =
    match List.find_opt (fun l -> l.name = name) !layers with
    | Some l -> l
    | None ->
      let l = { name; id = List.length !layers; self = 0.0 } in
      layers := l :: !layers;
      l

  let self_s name =
    match List.find_opt (fun l -> l.name = name) !layers with Some l -> l.self | None -> 0.0

  (* the Chrome events: layer id, start and duration of every call *)
  let ev_layer = ref (Array.make 4096 0)
  let ev_start = ref (Float.Array.make 4096 0.0)
  let ev_dur = ref (Float.Array.make 4096 0.0)
  let events = ref 0

  let record l start dur =
    let n = !events in
    if n = Array.length !ev_layer then begin
      let grow_f a =
        let b = Float.Array.make (2 * n) 0.0 in
        Float.Array.blit a 0 b 0 n;
        b
      in
      ev_layer := Array.append !ev_layer (Array.make n 0);
      ev_start := grow_f !ev_start;
      ev_dur := grow_f !ev_dur
    end;
    !ev_layer.(n) <- l.id;
    Float.Array.set !ev_start n start;
    Float.Array.set !ev_dur n dur;
    events := n + 1

  let finish fr =
    let dur = now () -. fr.start in
    (match !stack with _ :: rest -> stack := rest | [] -> ());
    (match !stack with p :: _ -> p.child <- p.child +. dur | [] -> ());
    fr.layer.self <- fr.layer.self +. (dur -. fr.child);
    record fr.layer fr.start dur

  let span l f =
    if not !enabled then f ()
    else begin
      let fr = { layer = l; start = now (); child = 0.0 } in
      stack := fr :: !stack;
      match f () with
      | v ->
        finish fr;
        v
      | exception e ->
        finish fr;
        raise e
    end

  let root_wall () = List.fold_left (fun acc l -> acc +. l.self) 0.0 !layers

  (* Self times of every layer but [root], over the whole traced wall. *)
  let coverage ~root =
    let wall = root_wall () in
    if wall <= 0.0 then 0.0 else (wall -. self_s root) /. wall

  let write_chrome path =
    let names = Array.make (List.length !layers) "" in
    List.iter (fun l -> names.(l.id) <- l.name) !layers;
    Out_channel.with_open_bin path (fun oc ->
        output_string oc "{\"traceEvents\":[\n";
        for i = 0 to !events - 1 do
          Printf.fprintf oc
            "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}\n"
            (if i = 0 then "" else ",")
            names.(!ev_layer.(i))
            ((Float.Array.get !ev_start i -. origin) *. 1e6)
            (Float.Array.get !ev_dur i *. 1e6)
        done;
        output_string oc "],\"displayTimeUnit\":\"ms\"}\n")
end

let span name =
  let l = Spans.layer name in
  fun f -> Spans.span l f

(* GC counters around a call, as [Gc.quick_stat] deltas. *)
type gc_delta = {
  minor : int;
  major : int;
  allocated_w : float;
  promoted_w : float;
  top_heap_w : int;
}

let with_gc f =
  let a = Gc.quick_stat () in
  let v = f () in
  let b = Gc.quick_stat () in
  let alloc (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  ( v,
    {
      minor = b.minor_collections - a.minor_collections;
      major = b.major_collections - a.major_collections;
      allocated_w = alloc b -. alloc a;
      promoted_w = b.promoted_words -. a.promoted_words;
      top_heap_w = b.top_heap_words;
    } )

let gc_json g =
  [
    ("gc.minor_collections", Int g.minor);
    ("gc.major_collections", Int g.major);
    ("gc.allocated_mw", Float (g.allocated_w /. 1e6));
    ("gc.promoted_mw", Float (g.promoted_w /. 1e6));
    ("gc.top_heap_mb", Float (float_of_int (g.top_heap_w * (Sys.word_size / 8)) /. 1e6));
  ]

(* Peak resident set of this process plus its live children (the shard
   workers), summed: read before the children are shut down. *)
let vm_hwm_kb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0
  | s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | n :: _ -> ( match int_of_string_opt n with Some k -> k | None -> acc)
          | [] -> acc)
        | _ -> acc)
      0 (String.split_on_char '\n' s)

let tree_hwm_kb () =
  let children =
    match Sys.readdir "/proc/self/task" with
    | exception Sys_error _ -> []
    | tids ->
      Array.to_list tids
      |> List.concat_map (fun tid ->
             match read_file (Printf.sprintf "/proc/self/task/%s/children" tid) with
             | exception Sys_error _ -> []
             | s -> List.filter (fun p -> p <> "") (String.split_on_char ' ' (String.trim s)))
  in
  List.fold_left (fun acc pid -> acc + vm_hwm_kb pid) (vm_hwm_kb "self") children

(* ---------- answers ---------- *)

(* Digest of the answer as a set of (pattern, support) rows: the order
   rows arrive in (DFS, support-descending, daemon chunks) is not part of
   the answer. *)
let digest_rows (rows : (int list * int) list) =
  let rows = List.sort compare rows in
  let b = Buffer.create 4096 in
  List.iter
    (fun (p, s) ->
      List.iter (fun e -> Printf.bprintf b "%d." e) p;
      Printf.bprintf b ":%d\n" s)
    rows;
  (Digest.to_hex (Digest.string (Buffer.contents b)), List.length rows)

let digest_mined results =
  digest_rows (List.map (fun m -> (Pattern.to_list m.Mined.pattern, m.Mined.support)) results)

(* refs.tsv: "<key>\t<digest>\t<rows>" per reference answer *)
let refs_file = "refs.tsv"

let write_refs refs =
  Out_channel.with_open_bin refs_file (fun oc ->
      List.iter (fun (k, (d, n)) -> Printf.fprintf oc "%s\t%s\t%d\n" k d n) refs)

let load_refs () =
  read_file refs_file |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match String.split_on_char '\t' l with
         | [ k; d; n ] -> Some (k, (d, int_of_string n))
         | _ -> None)

let reference key =
  match List.assoc_opt key (load_refs ()) with
  | Some r -> r
  | None -> failwith ("no reference answer for " ^ key)

(* ---------- seeded inputs ---------- *)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A seeded isomorphic copy: sequences shuffled and, with [relabel],
   event ids renamed by a permutation (returned, to map canonical ids). *)
let seeded_copy ~seed ~salt ~relabel db =
  let st = Random.State.make [| seed; salt |] in
  let seqs = Array.copy (Seqdb.sequences db) in
  shuffle st seqs;
  let n = 1 + List.fold_left max 0 (Seqdb.alphabet db) in
  let perm = Array.init n Fun.id in
  if relabel then shuffle st perm;
  let seqs =
    if relabel then
      Array.map (fun s -> Sequence.of_array (Array.map (fun e -> perm.(e)) (Sequence.to_array s))) seqs
    else seqs
  in
  (Seqdb.of_array seqs, perm)

let quest_params data = Rgs_datagen.Quest_gen.load_config (Filename.concat data "quest_paper.config")

(* The workers_quest corpus: the paper config with fewer sequences, so
   one supervised job takes a few seconds instead of half a minute. *)
let workers_d = 60

let tokens_copy ~data ~seed ~salt name out =
  let db, codec = Seq_io.load_tokens (Filename.concat data name) in
  let db, _ = seeded_copy ~seed ~salt ~relabel:false db in
  Seq_io.save_tokens codec db out

let quest_copy ~data ~seed ~salt ?d () =
  let p = quest_params data in
  let p = match d with Some d -> { p with Rgs_datagen.Quest_gen.d } | None -> p in
  seeded_copy ~seed ~salt ~relabel:true (Rgs_datagen.Quest_gen.generate p)

(* ---------- batch workloads ---------- *)

type source = Tokens of string | Spmf of string | Rgsdb of string

type batch = {
  source : source;
  mode : Miner.mode;
  min_sup : int;
  max_length : int;
  workers : int option;
}

let batch_of = function
  | "closed_jboss" ->
    { source = Tokens "jboss.txt"; mode = Miner.Closed; min_sup = 18; max_length = 7; workers = None }
  | "all_quest" ->
    { source = Spmf "quest.spmf"; mode = Miner.All; min_sup = 2000; max_length = 2; workers = None }
  | "workers_quest" ->
    { source = Rgsdb "quest_w.rgsdb"; mode = Miner.All; min_sup = 400; max_length = 2; workers = Some 2 }
  | w -> failwith ("not a batch workload: " ^ w)

let load_source = function
  | Tokens path -> span "seq_io.parse" (fun () -> fst (Seq_io.load_tokens path))
  | Spmf path -> span "seq_io.parse" (fun () -> Seq_io.load_spmf path)
  | Rgsdb path -> Store.db (span "store.open" (fun () -> Store.open_store path))

let worker_exe () =
  match Sys.getenv_opt "RGS_WORKER_EXE" with
  | Some p -> p
  | None -> failwith "RGS_WORKER_EXE must name the rgsworker executable"

let start_supervisor ?(env = []) b db =
  match (b.workers, b.source) with
  | Some n, Rgsdb store ->
    let cfg = Supervisor.config ~worker_exe:(worker_exe ()) ~worker_env:env ~shards:n () in
    Some (span "supervisor.spawn" (fun () -> Supervisor.create ~store cfg db))
  | Some _, _ -> failwith "supervised workloads mine a packed store"
  | None, _ -> None

let supervisor_json = function
  | None -> [ ("spawns", Int 0); ("restarts", Int 0); ("degraded", Bool false) ]
  | Some sup ->
    let s = Supervisor.stats sup in
    [
      ("spawns", Int s.Supervisor.spawns);
      ("restarts", Int s.Supervisor.restarts);
      ("degraded", Bool s.Supervisor.degraded);
    ]

(* The untraced job: exactly rgsminer's path from input file to answer. *)
let job name =
  Spans.enabled := false;
  let b = batch_of name in
  let t0 = now () in
  let db = load_source b.source in
  let idx = Inverted_index.build db in
  let sup = start_supervisor b db in
  let t_setup = now () in
  let cfg =
    Miner.config ~mode:b.mode ~max_length:b.max_length ?shards:b.workers
      ?shard_dispatch:(Option.map Supervisor.dispatch sup) ~min_sup:b.min_sup ()
  in
  let report = Miner.mine_indexed cfg idx in
  let t_end = now () in
  let rss_kb = tree_hwm_kb () in
  Option.iter Supervisor.shutdown sup;
  let digest, rows = digest_mined report.Miner.results in
  let ref_digest, _ = reference name in
  print_json
    (Obj
       ([
          ("setup_s", Float (t_setup -. t0));
          ("wall_s", Float (t_end -. t0));
          ("rows", Int rows);
          ("digest", Str digest);
          ("answer_ok", Bool (digest = ref_digest && report.Miner.outcome = Budget.Completed));
          ("rss_kb", Int rss_kb);
        ]
       @ supervisor_json sup))

(* Counters the library keeps in [Metrics], read as deltas. *)
let metric_delta before after name = Metrics.find (Metrics.diff ~before ~after) name

type mine_counts = {
  mutable grows : int;
  mutable frequent : int;
  mutable checks : int;
  mutable prunable : int;
  mutable dispatches : int;
  mutable bytes : int;
}

let counts = { grows = 0; frequent = 0; checks = 0; prunable = 0; dispatches = 0; bytes = 0 }

(* A strategy whose growth and closure check run inside spans: "insgrow"
   around [grow] (INSgrow, Algorithm 2) and "closure.check" around the
   closure spec's [check] (CCheck/LBCheck). *)
let wrap_strategy (s : Engine.strategy) : Engine.strategy =
  let insgrow = span "insgrow" and check = span "closure.check" in
  let closure =
    Option.map
      (fun mk idx ~events ~trace ->
        let spec : Engine.closure_spec = mk idx ~events ~trace in
        {
          spec with
          check =
            (fun ~pattern ~support_set ~prefix_rev_chain ->
              let v =
                check (fun () ->
                    spec.check ~pattern ~support_set ~prefix_rev_chain)
              in
              counts.checks <- counts.checks + 1;
              if v.Closure.prunable then counts.prunable <- counts.prunable + 1;
              v);
        })
      s.closure
  in
  { s with grow = (fun idx set e -> insgrow (fun () -> s.grow idx set e)); closure }

(* Outermost grow: counts every DFS-level growth and whether it reached
   the threshold, whatever computes it (in-process or shard workers). *)
let count_grows ~min_sup ~name (s : Engine.strategy) : Engine.strategy =
  let grow = span name in
  {
    s with
    grow =
      (fun idx set e ->
        let r = grow (fun () -> s.grow idx set e) in
        counts.grows <- counts.grows + 1;
        if Support_set.size r >= min_sup then counts.frequent <- counts.frequent + 1;
        r);
  }

(* The supervisor's dispatch closure in a span; the bytes it ships (each
   slice out, each grown part back) are measured in a separate
   "perfbench.probe" span so the encoding they cost is not charged to
   the supervisor. *)
let wrap_dispatch (d : Shard_merge.dispatch) : Shard_merge.dispatch =
  let probe = span "perfbench.probe" and dispatch = span "supervisor.dispatch" in
  fun ~ranges base idx s e ->
  let out =
    probe (fun () ->
        Array.fold_left
          (fun acc (lo, hi) -> acc + String.length (Support_set.encode (Support_set.slice s ~lo ~hi)))
          0 ranges)
  in
  let parts = dispatch (fun () -> d ~ranges base idx s e) in
  let back =
    probe (fun () ->
        Array.fold_left (fun acc p -> acc + String.length (Support_set.encode p)) 0 parts)
  in
  counts.dispatches <- counts.dispatches + 1;
  counts.bytes <- counts.bytes + out + back;
  parts

let strategy_of mode =
  match mode with
  | Miner.All -> Gsgrow.strategy
  | Miner.Closed -> Clogsgrow.strategy ~use_lb_check:true ~use_c_check:true

(* One engine run under a query plan, as [Miner.mine_indexed] does it
   (top-k visits roots by descending single-event support). *)
let traced_mine ?layout ~mode ~query ~max_length ~min_sup idx =
  let events = Inverted_index.frequent_events idx ~min_sup in
  let collector = Query.collector ~max_length ~events ~min_sup query in
  let roots =
    match query with
    | Query.Top_k _ ->
      Some
        (List.stable_sort
           (fun a b ->
             Int.compare (Inverted_index.occurrence_count idx b) (Inverted_index.occurrence_count idx a))
           events)
    | Query.All | Query.Targeted _ -> None
  in
  let base = wrap_strategy (strategy_of mode) in
  let strategy =
    match layout with
    | None -> count_grows ~min_sup ~name:"grow" base
    | Some sm -> count_grows ~min_sup ~name:"shard_merge.grow" (Shard_merge.strategy sm base)
  in
  let stats =
    span "engine.run" (fun () ->
        Engine.run ~max_length ~events ?roots ~plan:collector.Query.plan strategy idx ~min_sup
          ~emit:collector.Query.offer)
  in
  (collector.Query.results (), stats)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* The layer metrics every traced run reports, from span totals, the
   engine's stats and [Metrics] deltas. *)
let layer_json ~(stats : Engine.stats) ~delta =
  [
    ("seq_io.parse_s", Float (Spans.self_s "seq_io.parse"));
    ("store.open_s", Float (Spans.self_s "store.open"));
    ("store.verify_s", Float (Spans.self_s "store.verify"));
    ("inverted_index.build_s", Float (Spans.self_s "inverted_index.build"));
    ("insgrow.busy_s", Float (Spans.self_s "insgrow"));
    ("insgrow.calls", Int counts.grows);
    ("insgrow.frequent_ratio", Float (ratio counts.frequent counts.grows));
    ("inverted_index.next_calls", Int (delta "next_calls"));
    ("inverted_index.cursor_advances", Int (delta "cursor_advances"));
    ("inverted_index.cursor_gallops", Int (delta "cursor_gallops"));
    ("closure.busy_s", Float (Spans.self_s "closure.check"));
    ("closure.checks", Int counts.checks);
    ("closure.prunable_ratio", Float (ratio counts.prunable counts.checks));
    ("closure.bound_rejects", Int (delta "closure_bound_rejects"));
    ("closure.grows", Int (delta "closure_base_grows"));
    ("engine.self_s", Float (Spans.self_s "engine.run" +. Spans.self_s "grow"));
    ("engine.dfs_nodes", Int stats.Engine.dfs_nodes);
    ("engine.emit_ratio", Float (ratio stats.Engine.emitted stats.Engine.dfs_nodes));
    ("query.floor_prunes", Int stats.Engine.floor_prunes);
    ("query.targeted_cuts", Int stats.Engine.query_cuts);
    ("supervisor.spawn_s", Float (Spans.self_s "supervisor.spawn"));
    ("supervisor.dispatch_s", Float (Spans.self_s "supervisor.dispatch"));
    ("supervisor.dispatches", Int counts.dispatches);
    ("supervisor.mb_shipped", Float (float_of_int counts.bytes /. 1e6));
    ("shard_merge.ms", Float (float_of_int (delta "shard_merge_ns") /. 1e6));
    ("shard_merge.self_s", Float (Spans.self_s "shard_merge.grow"));
    ("perfbench.probe_s", Float (Spans.self_s "perfbench.probe"));
  ]

let empty_stats =
  {
    Engine.emitted = 0;
    dfs_nodes = 0;
    insgrow_calls = 0;
    lb_pruned = 0;
    non_closed_dropped = 0;
    query_cuts = 0;
    floor_prunes = 0;
    truncated = false;
    outcome = Budget.Completed;
  }

let sum_stats (a : Engine.stats) (b : Engine.stats) =
  {
    a with
    Engine.emitted = a.emitted + b.emitted;
    dfs_nodes = a.dfs_nodes + b.dfs_nodes;
    query_cuts = a.query_cuts + b.query_cuts;
    floor_prunes = a.floor_prunes + b.floor_prunes;
    outcome = (if b.outcome = Budget.Completed then a.outcome else b.outcome);
  }

(* The traced job. [in_process] mines a supervised workload without its
   workers: the in-process INSgrow time of the same growths, which is the
   base of supervisor.ipc_tax. *)
let trace name ~in_process ~chrome =
  let b = batch_of name in
  let b = if in_process then { b with workers = None } else b in
  (* shard workers print their GC totals to stderr at exit *)
  let env = [ ("OCAMLRUNPARAM", "v=0x400") ] in
  let before = Metrics.snapshot () in
  let (results, stats, sup, rss_kb), gc =
    with_gc (fun () ->
        span "job" (fun () ->
            let db = load_source b.source in
            let idx = span "inverted_index.build" (fun () -> Inverted_index.build db) in
            let sup = start_supervisor ~env b db in
            let layout =
              Option.map
                (fun sup ->
                  Shard_merge.make ~dispatch:(wrap_dispatch (Supervisor.dispatch sup)) db
                    ~shards:(Supervisor.num_shards sup))
                sup
            in
            let results, stats =
              traced_mine ?layout ~mode:b.mode ~query:Query.All ~max_length:b.max_length
                ~min_sup:b.min_sup idx
            in
            (results, stats, sup, tree_hwm_kb ())))
  in
  let after = Metrics.snapshot () in
  let coverage = Spans.coverage ~root:"job" in
  Option.iter Supervisor.shutdown sup;
  Option.iter Spans.write_chrome chrome;
  let digest, rows = digest_mined results in
  let ref_digest, _ = reference name in
  print_json
    (Obj
       ([
          ("wall_s", Float (Spans.root_wall ()));
          ("layer_coverage", Float coverage);
          ("rows", Int rows);
          ("answer_ok", Bool (digest = ref_digest && stats.Engine.outcome = Budget.Completed));
          ("rss_kb", Int rss_kb);
        ]
       @ supervisor_json sup
       @ layer_json ~stats ~delta:(metric_delta before after)
       @ gc_json gc))

(* ---------- daemon_mix ---------- *)

type target = By_name of string list | By_id of int list

type template = {
  t_name : string;
  t_file : string;
  t_mode : Protocol.mode;
  t_min_sup : int;
  t_max_length : int;
  t_query : [ `All | `Top of int | `Target of target ];
  t_copies : int;  (** occurrences in one pass of the job list *)
}

(* The fixed job mix: eleven jobs of tens to a few hundred milliseconds
   each. Together they reach per-job parsing (jboss, quest_small: File
   sources of tokens text), the shared cached mapping (quest.rgsdb),
   top-k floor pruning, targeted cuts, closure checking and one
   checkpoint append per root. The copies place the latency median
   inside the store jobs' cluster and the 90th percentile inside
   small_closed's, not on a gap between two templates, where a one-job
   shift in the mix would move them. Canonical ids in [By_id] are events
   of the unpermuted paper corpus. Top-k jobs use a k whose answer is
   unique (no support tie at the k-th place, checked by [prep]): at a
   tie the daemon's [Miner.mine_resumable] and [Miner.mine_indexed] keep
   different, equally valid patterns, as miner.mli documents, and the
   row digest could not compare them. *)
let templates =
  [
    { t_name = "jboss_closed_top11"; t_file = "jboss.txt"; t_mode = Protocol.Closed;
      t_min_sup = 18; t_max_length = 3; t_query = `Top 11; t_copies = 2 };
    { t_name = "jboss_all_top11"; t_file = "jboss.txt"; t_mode = Protocol.All; t_min_sup = 18;
      t_max_length = 4; t_query = `Top 11; t_copies = 2 };
    { t_name = "jboss_target"; t_file = "jboss.txt"; t_mode = Protocol.All; t_min_sup = 18;
      t_max_length = 3; t_query = `Target (By_name [ "TxManager.commit" ]); t_copies = 2 };
    { t_name = "small_closed"; t_file = "quest_small.txt"; t_mode = Protocol.Closed;
      t_min_sup = 5; t_max_length = 3; t_query = `All; t_copies = 2 };
    { t_name = "store_target"; t_file = "quest.rgsdb"; t_mode = Protocol.All; t_min_sup = 4000;
      t_max_length = 2; t_query = `Target (By_id [ 5 ]); t_copies = 3 };
  ]

(* jobs.tsv: one resolved job spec per template, with event ids of this
   seed's copies —
   "<name>\t<file>\t<mode>\t<min_sup>\t<max_length>\t<query>\t<copies>" *)
let jobs_file = "jobs.tsv"

let spec_of ~job_id (_name, file, mode, min_sup, max_length, query) =
  {
    Protocol.job_id;
    (* text sources are tokens; the daemon maps .rgsdb paths whatever the format *)
    db = Protocol.File { format = Protocol.Tokens; path = file };
    min_sup;
    mode;
    max_length = Some max_length;
    max_gap = None;
    deadline_s = None;
    max_nodes = None;
    max_words = None;
    query;
    compress_delta = None;
  }

let query_to_string = function
  | Protocol.Q_all -> "all"
  | Protocol.Q_top_k k -> Printf.sprintf "top:%d" k
  | Protocol.Q_target l -> "target:" ^ String.concat "." (List.map string_of_int l)

let query_of_string s =
  match String.split_on_char ':' s with
  | [ "all" ] -> Protocol.Q_all
  | [ "top"; k ] -> Protocol.Q_top_k (int_of_string k)
  | [ "target"; l ] -> Protocol.Q_target (List.map int_of_string (String.split_on_char '.' l))
  | _ -> failwith ("bad query " ^ s)

let load_jobs () =
  read_file jobs_file |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match String.split_on_char '\t' l with
         | [ n; f; m; s; l; q; c ] ->
           Some
             ( ( n,
                 f,
                 (if m = "closed" then Protocol.Closed else Protocol.All),
                 int_of_string s,
                 int_of_string l,
                 query_of_string q ),
               int_of_string c )
         | _ -> None)

(* The seeded job list of one connection: every template [t_copies]
   times, shuffled; connections cycle through their lists. *)
let job_list ~seed ~conn jobs =
  let a =
    Array.of_list (List.concat_map (fun (j, copies) -> List.init copies (fun _ -> j)) jobs)
  in
  shuffle (Random.State.make [| seed; 7919; conn |]) a;
  a

(* ---------- prep ---------- *)

let prep name ~data ~seed =
  let refs =
    match name with
    | "closed_jboss" | "all_quest" | "workers_quest" ->
      (match name with
      | "closed_jboss" -> tokens_copy ~data ~seed ~salt:1 "jboss_traces.txt" "jboss.txt"
      | "all_quest" ->
        let db, _ = quest_copy ~data ~seed ~salt:2 () in
        Seq_io.save_spmf db "quest.spmf"
      | _ ->
        let db, _ = quest_copy ~data ~seed ~salt:3 ~d:workers_d () in
        Store.write ~path:"quest_w.rgsdb" db);
      (* the reference: sequential, in-process, no shards *)
      Spans.enabled := false;
      let b = batch_of name in
      let idx = Inverted_index.build (load_source b.source) in
      let cfg = Miner.config ~mode:b.mode ~max_length:b.max_length ~min_sup:b.min_sup () in
      [ (name, digest_mined (Miner.mine_indexed cfg idx).Miner.results) ]
    | "daemon_mix" ->
      tokens_copy ~data ~seed ~salt:1 "jboss_traces.txt" "jboss.txt";
      tokens_copy ~data ~seed ~salt:4 "quest_small.txt" "quest_small.txt";
      let db, perm = quest_copy ~data ~seed ~salt:2 () in
      Store.write ~path:"quest.rgsdb" db;
      let resolve file = function
        | By_id ids -> List.map (fun e -> perm.(e)) ids
        | By_name names ->
          let _, codec = Seq_io.load_tokens file in
          List.map
            (fun n ->
              match Codec.find codec n with Some e -> e | None -> failwith ("no event " ^ n))
            names
      in
      let rows =
        List.map
          (fun t ->
            let query =
              match t.t_query with
              | `All -> Protocol.Q_all
              | `Top k -> Protocol.Q_top_k k
              | `Target tg -> Protocol.Q_target (resolve t.t_file tg)
            in
            (t, (t.t_name, t.t_file, t.t_mode, t.t_min_sup, t.t_max_length, query)))
          templates
      in
      Out_channel.with_open_bin jobs_file (fun oc ->
          List.iter
            (fun (t, (n, f, m, s, l, q)) ->
              Printf.fprintf oc "%s\t%s\t%s\t%d\t%d\t%s\t%d\n" n f
                (match m with Protocol.Closed -> "closed" | Protocol.All -> "all")
                s l (query_to_string q) t.t_copies)
            rows);
      (* references through the same spec-to-config mapping the daemon
         uses, but mined in-process and sequentially *)
      List.map
        (fun (_, ((n, _, _, _, _, _) as row)) ->
          let spec = spec_of ~job_id:"reference" row in
          match Job.load_db spec with
          | Error msg -> failwith msg
          | Ok db ->
            let idx = Inverted_index.build db in
            let report = Miner.mine_indexed (Job.config_of spec) idx in
            (match spec.Protocol.query with
            | Protocol.Q_top_k k ->
              let spec' = { spec with Protocol.query = Protocol.Q_top_k (k + 1) } in
              let wider = (Miner.mine_indexed (Job.config_of spec') idx).Miner.results in
              let sup i = (List.nth wider i).Mined.support in
              if List.length wider > k && sup (k - 1) = sup k then
                failwith (Printf.sprintf "%s: top-%d answer is not unique (tie at support %d)" n k (sup k))
            | _ -> ());
            (n, digest_mined report.Miner.results))
        rows
    | w -> failwith ("unknown workload " ^ w)
  in
  write_refs refs;
  print_json (Obj (List.map (fun (k, (_, n)) -> (k, Int n)) refs))

(* ---------- daemon_mix clients ---------- *)

type outcome = {
  tpl : string;
  latency : float;
  server_s : float;
  rows : int;
  frames : int;
  ok : bool;
  err : string;
}

(* Submit one job and read its frames until [Job_done]. *)
let run_one client ~job_id ((name, _, _, _, _, _) as row) ~expect =
  let t0 = now () in
  let fail err = { tpl = name; latency = now () -. t0; server_s = 0.0; rows = 0; frames = 0; ok = false; err } in
  match Client.submit client (spec_of ~job_id row) with
  | Protocol.Accepted _ ->
    let rec collect rows frames =
      match Client.next_response client with
      | Some (Protocol.Results { job_id = j; patterns; _ }) when j = job_id ->
        collect (List.rev_append patterns rows) (frames + 1)
      | Some (Protocol.Job_done s) when s.Protocol.job_id = job_id ->
        let latency = now () -. t0 in
        let digest, n = digest_rows rows in
        let ok = digest = fst expect && s.Protocol.outcome = "completed" && s.Protocol.stopped_by = None in
        { tpl = name; latency; server_s = s.Protocol.elapsed_s; rows = n; frames; ok;
          err = (if ok then "" else Printf.sprintf "answer mismatch (%s, %d rows)" s.Protocol.outcome n) }
      | Some _ -> fail "unexpected frame"
      | None -> fail "connection closed"
    in
    collect [] 0
  | Protocol.Overloaded _ -> fail "overloaded"
  | Protocol.Rejected { reason; _ } -> fail ("rejected: " ^ reason)
  | Protocol.Duplicate _ -> fail "duplicate"
  | Protocol.Error_frame msg -> fail ("error frame: " ^ msg)
  | _ -> fail "unexpected admission response"

let clients ~socket ~seed ~seconds ~conns =
  let jobs = load_jobs () in
  let refs = load_refs () in
  let control = Client.connect ~timeout_s:60.0 socket in
  let stats_before = Client.stats control in
  let t_start = now () in
  let deadline = t_start +. seconds in
  let per_conn = Array.make conns [] in
  let last_done = Array.make conns t_start in
  let drive conn () =
    let list = job_list ~seed ~conn jobs in
    match Client.connect ~timeout_s:60.0 socket with
    | exception e ->
      per_conn.(conn) <-
        [ { tpl = "connect"; latency = 0.0; server_s = 0.0; rows = 0; frames = 0; ok = false;
            err = Printexc.to_string e } ]
    | client ->
      let i = ref 0 and stop = ref false in
      while (not !stop) && now () < deadline do
        let ((name, _, _, _, _, _) as row) = list.(!i mod Array.length list) in
        let job_id = Printf.sprintf "s%d-c%d-j%d" seed conn !i in
        let o =
          try run_one client ~job_id row ~expect:(List.assoc name refs)
          with e ->
            { tpl = name; latency = 0.0; server_s = 0.0; rows = 0; frames = 0; ok = false;
              err = Printexc.to_string e }
        in
        per_conn.(conn) <- o :: per_conn.(conn);
        last_done.(conn) <- now ();
        incr i;
        (* a failed job ends this connection's loop; it is counted *)
        if not o.ok then stop := true
      done;
      Client.close client
  in
  let threads = List.init conns (fun c -> Thread.create (drive c) ()) in
  List.iter Thread.join threads;
  let makespan = Array.fold_left max t_start last_done -. t_start in
  let stats_after = Client.stats control in
  Client.close control;
  let outcomes = List.concat_map List.rev (Array.to_list per_conn) in
  let stat_json l = Obj (List.map (fun (k, v) -> (k, Int v)) l) in
  print_json
    (Obj
       [
         ("makespan_s", Float makespan);
         ("rss_kb", Int (tree_hwm_kb ()));
         ( "jobs",
           List
             (List.map
                (fun o ->
                  Obj
                    [
                      ("tpl", Str o.tpl);
                      ("latency_s", Float o.latency);
                      ("server_s", Float o.server_s);
                      ("rows", Int o.rows);
                      ("frames", Int o.frames);
                      ("ok", Bool o.ok);
                      ("err", Str o.err);
                    ])
                outcomes) );
         ("stats_before", stat_json stats_before);
         ("stats_after", stat_json stats_after);
       ])

(* ---------- daemon_mix replay ---------- *)

(* One pass over the job list, in-process, through the layers a daemon
   job crosses: the store is opened and verified once (the daemon's
   --store preload), text sources are parsed per job, every job builds
   its index and runs the engine under its query plan. *)
let replay ~seed ~traced ~chrome =
  Spans.enabled := traced;
  let jobs = load_jobs () in
  let refs = load_refs () in
  let list = job_list ~seed ~conn:0 jobs in
  let before = Metrics.snapshot () in
  let per_tpl = Hashtbl.create 8 in
  let (ok, stats), gc =
    with_gc (fun () ->
        let t0 = now () in
        let r =
          span "job" (fun () ->
              let stores = Hashtbl.create 2 in
              Array.fold_left
                (fun (ok, acc) ((name, file, mode, min_sup, max_length, _) as row) ->
                  let t_job = now () in
                  let db =
                    if Filename.check_suffix file ".rgsdb" then (
                      match Hashtbl.find_opt stores file with
                      | Some db -> db
                      | None ->
                        let st = span "store.open" (fun () -> Store.open_store file) in
                        span "store.verify" (fun () -> Store.verify st);
                        Hashtbl.add stores file (Store.db st);
                        Store.db st)
                    else
                      span "seq_io.parse" (fun () -> fst (Seq_io.parse_tokens (read_file file)))
                  in
                  let idx = span "inverted_index.build" (fun () -> Inverted_index.build db) in
                  let spec = spec_of ~job_id:"replay" row in
                  let mode = match mode with Protocol.All -> Miner.All | Protocol.Closed -> Miner.Closed in
                  let results, s =
                    traced_mine ~mode ~query:(Job.query_of spec) ~max_length ~min_sup idx
                  in
                  let prev = Option.value ~default:0.0 (Hashtbl.find_opt per_tpl name) in
                  Hashtbl.replace per_tpl name (prev +. (now () -. t_job));
                  let good = fst (digest_mined results) = fst (List.assoc name refs) in
                  (ok && good && s.Engine.outcome = Budget.Completed, sum_stats acc s))
                (true, empty_stats) list)
        in
        if not traced then (Spans.layer "job").Spans.self <- now () -. t0;
        r)
  in
  let after = Metrics.snapshot () in
  Option.iter Spans.write_chrome chrome;
  print_json
    (Obj
       ([
          ("wall_s", Float (Spans.root_wall ()));
          ("layer_coverage", Float (Spans.coverage ~root:"job"));
          ("jobs", Int (Array.length list));
          ("answer_ok", Bool ok);
          ("per_template_s", Obj (Hashtbl.fold (fun k v acc -> (k, Float v) :: acc) per_tpl []));
        ]
       @ layer_json ~stats ~delta:(metric_delta before after)
       @ gc_json gc))

(* ---------- command line ---------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let req name args =
    match opt name args with Some v -> v | None -> failwith ("missing " ^ name)
  in
  let flag name args = List.mem name args in
  match args with
  | "prep" :: w :: rest ->
    prep w ~data:(req "--data" rest) ~seed:(int_of_string (req "--seed" rest))
  | "job" :: w :: _ -> job w
  | "trace" :: w :: rest ->
    trace w ~in_process:(flag "--in-process" rest) ~chrome:(opt "--chrome" rest)
  | "clients" :: rest ->
    clients ~socket:(req "--socket" rest)
      ~seed:(int_of_string (req "--seed" rest))
      ~seconds:(float_of_string (req "--seconds" rest))
      ~conns:2
  | "replay" :: rest ->
    replay ~seed:(int_of_string (req "--seed" rest)) ~traced:(not (flag "--untraced" rest))
      ~chrome:(opt "--chrome" rest)
  | _ ->
    prerr_endline "usage: harness (prep|job|trace) WORKLOAD ... | clients ... | replay ...";
    exit 2
