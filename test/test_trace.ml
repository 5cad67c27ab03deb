(* Tests for the observability layer: the Trace ring buffer and its Chrome
   trace_event export, and the Metrics registry with snapshot/diff.

   The golden test parses the exported JSON back with a minimal parser and
   checks the schema Chrome/Perfetto require (ph, ts, dur, pid/tid) plus
   span nesting: every node-level instant falls inside a root span. The
   counter-consistency tests pin the invariant that the trace and the
   Metrics registry are two views of the same run: per-kind event counts
   equal the metric deltas. *)

open Rgs_sequence
open Rgs_core

(* --- minimal JSON parser (objects/arrays/strings/numbers) --- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> raise (Parse (Printf.sprintf "expected '%c' at offset %d" c !pos))
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        match peek () with
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some c -> Buffer.add_char buf c
          | None -> raise (Parse "eof in string escape"));
          advance ();
          loop ()
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
        | None -> raise (Parse "eof in string")
      in
      loop ();
      Buffer.contents buf
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ((k, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((k, v) :: acc)
            | _ -> raise (Parse "expected ',' or '}' in object")
          in
          Obj (members [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elems acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elems (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> raise (Parse "expected ',' or ']' in array")
          in
          Arr (elems [])
        end
      | Some 't' ->
        pos := !pos + 4;
        Bool true
      | Some 'f' ->
        pos := !pos + 5;
        Bool false
      | Some 'n' ->
        pos := !pos + 4;
        Null
      | Some _ ->
        let start = !pos in
        let is_num = function
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false
        in
        while (match peek () with Some c -> is_num c | None -> false) do
          advance ()
        done;
        if !pos = start then raise (Parse "unexpected character");
        Num (float_of_string (String.sub s start (!pos - start)))
      | None -> raise (Parse "unexpected eof")
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then raise (Parse "trailing garbage");
    v

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

  let get k j =
    match member k j with
    | Some v -> v
    | None -> raise (Parse (Printf.sprintf "missing member %S" k))

  let to_arr = function Arr l -> l | _ -> raise (Parse "not an array")
  let to_str = function Str s -> s | _ -> raise (Parse "not a string")
  let to_num = function Num f -> f | _ -> raise (Parse "not a number")
end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_temp_file f =
  let path = Filename.temp_file "rgs-test" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* the paper's Table III database *)
let table3 = lazy (Seqdb.of_strings [ "ABCACBDDB"; "ACDBACADD" ])

let kind_count trace k =
  match List.assoc_opt k (Trace.counts trace) with Some n -> n | None -> 0

(* --- golden Chrome export: schema and span nesting --- *)

let test_chrome_golden () =
  let idx = Inverted_index.build (Lazy.force table3) in
  let trace = Trace.create ~level:Trace.Nodes () in
  let results, _ = Engine.mine Gens.closed ~trace idx ~min_sup:2 in
  Alcotest.(check bool) "mined something" true (results <> []);
  with_temp_file (fun path ->
      Trace.write_chrome path trace;
      let doc = Json.parse (read_file path) in
      Alcotest.(check string)
        "displayTimeUnit" "ms"
        (Json.to_str (Json.get "displayTimeUnit" doc));
      let events = Json.to_arr (Json.get "traceEvents" doc) in
      Alcotest.(check bool) "has events" true (events <> []);
      (* every event satisfies the trace_event schema *)
      List.iter
        (fun e ->
          ignore (Json.to_str (Json.get "name" e));
          ignore (Json.to_num (Json.get "pid" e));
          ignore (Json.to_num (Json.get "tid" e));
          match Json.to_str (Json.get "ph" e) with
          | "X" ->
            ignore (Json.to_num (Json.get "ts" e));
            ignore (Json.to_num (Json.get "dur" e))
          | "i" ->
            ignore (Json.to_num (Json.get "ts" e));
            Alcotest.(check string) "instant scope" "t"
              (Json.to_str (Json.get "s" e))
          | "M" -> ignore (Json.get "args" e)
          | ph -> Alcotest.failf "unexpected ph %S" ph)
        events;
      let named name =
        List.filter (fun e -> Json.to_str (Json.get "name" e) = name) events
      in
      (* one root span per frequent size-1 pattern (A, B, C, D) *)
      let roots = named "root" in
      Alcotest.(check int) "root spans" 4 (List.length roots);
      List.iter
        (fun e ->
          Alcotest.(check string) "root is a span" "X"
            (Json.to_str (Json.get "ph" e)))
        roots;
      (* span nesting: every node-level instant lies inside a root span on
         the same thread (ts are microseconds; compare with 1ns slack) *)
      let root_bounds =
        List.map
          (fun e ->
            ( Json.to_num (Json.get "tid" e),
              Json.to_num (Json.get "ts" e),
              Json.to_num (Json.get "ts" e) +. Json.to_num (Json.get "dur" e) ))
          roots
      in
      let eps = 0.001 in
      List.iter
        (fun name ->
          List.iter
            (fun e ->
              let tid = Json.to_num (Json.get "tid" e) in
              let ts = Json.to_num (Json.get "ts" e) in
              let nested =
                List.exists
                  (fun (rtid, lo, hi) ->
                    rtid = tid && ts >= lo -. eps && ts <= hi +. eps)
                  root_bounds
              in
              if not nested then
                Alcotest.failf "%s instant at ts=%f outside every root span"
                  name ts)
            (named name))
        [ "node"; "extension"; "closure_check"; "lb_prune" ];
      (* node instants made it to the export *)
      Alcotest.(check int) "node instants exported"
        (kind_count trace Trace.Node)
        (List.length (named "node"));
      (* events are time-ordered as documented *)
      let rec sorted = function
        | a :: (b :: _ as rest) -> a.Trace.ts_ns <= b.Trace.ts_ns && sorted rest
        | _ -> true
      in
      Alcotest.(check bool) "events time-ordered" true (sorted (Trace.events trace)))

(* --- counter consistency: trace counts == Metrics deltas --- *)

let random_dbs =
  lazy
    [
      Lazy.force table3;
      Rgs_datagen.Quest_gen.generate
        (Rgs_datagen.Quest_gen.params ~d:40 ~c:12 ~n:30 ~s:4 ~seed:7 ());
      Rgs_datagen.Trace_gen.generate
        (Rgs_datagen.Trace_gen.params ~num_sequences:30 ~num_events:15 ~seed:8 ());
    ]

let test_counter_consistency_closed () =
  List.iter
    (fun db ->
      let idx = Inverted_index.build db in
      let trace = Trace.create ~level:Trace.Nodes ~capacity:(1 lsl 18) () in
      let before = Metrics.snapshot () in
      let results, stats = Engine.mine Gens.closed ~max_length:4 ~trace idx ~min_sup:3 in
      let delta = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
      Alcotest.(check int) "no ring drops" 0 (Trace.dropped trace);
      Alcotest.(check int) "node instants = dfs_nodes delta"
        (Metrics.find delta "dfs_nodes")
        (kind_count trace Trace.Node);
      Alcotest.(check int) "node instants = stats.dfs_nodes"
        stats.Engine.dfs_nodes
        (kind_count trace Trace.Node);
      Alcotest.(check int) "lb_prune instants = lb_prunes delta"
        (Metrics.find delta "lb_prunes")
        (kind_count trace Trace.Lb_prune);
      Alcotest.(check int) "patterns_emitted delta = |results|"
        (List.length results)
        (Metrics.find delta "patterns_emitted"))
    (Lazy.force random_dbs)

let test_counter_consistency_all () =
  List.iter
    (fun db ->
      let idx = Inverted_index.build db in
      let trace = Trace.create ~level:Trace.Nodes ~capacity:(1 lsl 18) () in
      let before = Metrics.snapshot () in
      let results, _ = Engine.mine Gsgrow.strategy ~max_length:3 ~trace idx ~min_sup:3 in
      let delta = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
      Alcotest.(check int) "no ring drops" 0 (Trace.dropped trace);
      (* every GSgrow DFS node emits its pattern *)
      Alcotest.(check int) "node instants = dfs_nodes delta = |results|"
        (Metrics.find delta "dfs_nodes")
        (kind_count trace Trace.Node);
      Alcotest.(check int) "patterns_emitted delta = |results|"
        (List.length results)
        (Metrics.find delta "patterns_emitted"))
    (Lazy.force random_dbs)

(* --- ring wrap-around keeps the newest events and counts drops --- *)

let test_ring_wrap () =
  let trace = Trace.create ~level:Trace.Nodes ~capacity:8 () in
  for i = 1 to 20 do
    Trace.instant trace Trace.Node ~a0:i ~a1:0
  done;
  Alcotest.(check int) "retained" 8 (List.length (Trace.events trace));
  Alcotest.(check int) "dropped" 12 (Trace.dropped trace);
  let a0s =
    List.sort compare (List.map (fun e -> e.Trace.a0) (Trace.events trace))
  in
  Alcotest.(check (list int)) "newest kept" [ 13; 14; 15; 16; 17; 18; 19; 20 ] a0s

(* --- disabled tracing is inert --- *)

let test_disabled () =
  Alcotest.(check bool) "null roots off" false (Trace.roots_on Trace.null);
  Alcotest.(check bool) "null nodes off" false (Trace.nodes_on Trace.null);
  Alcotest.(check int) "null now = 0" 0 (Trace.now Trace.null);
  Trace.instant Trace.null Trace.Node ~a0:1 ~a1:2;
  Trace.span Trace.null Trace.Root ~a0:1 ~a1:2 ~start:0;
  Alcotest.(check int) "null records nothing" 0
    (List.length (Trace.events Trace.null));
  Alcotest.(check bool) "create Off is null" true
    (Trace.create ~level:Trace.Off () == Trace.null);
  let tr = Trace.create ~level:Trace.Roots () in
  Trace.instant tr Trace.Node ~a0:1 ~a1:1;
  Trace.instant tr Trace.Closure_check ~a0:0 ~a1:1;
  Trace.instant tr Trace.Budget_stop ~a0:1 ~a1:0;
  Alcotest.(check int) "Roots level gates node kinds" 1
    (List.length (Trace.events tr))

(* --- budget stops reach both the trace and the metric --- *)

let test_budget_stop_traced () =
  let idx = Inverted_index.build (Lazy.force table3) in
  let trace = Trace.create ~level:Trace.Roots () in
  let before = Metrics.snapshot () in
  let budget = Budget.create ~max_nodes:1 () in
  let _, stats = Engine.mine Gens.closed ~budget ~trace idx ~min_sup:2 in
  let delta = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
  Alcotest.(check bool) "run truncated" true stats.Engine.truncated;
  Alcotest.(check int) "budget_stop instant" 1
    (kind_count trace Trace.Budget_stop);
  Alcotest.(check int) "budget_stops metric" 1 (Metrics.find delta "budget_stops")

(* --- parallel runs: per-domain buffers, worker spans, live-words gauge --- *)

let test_parallel_worker_spans () =
  let db = List.nth (Lazy.force random_dbs) 1 in
  let idx = Inverted_index.build db in
  let trace = Trace.create ~level:Trace.Roots () in
  let before = Metrics.snapshot () in
  let { Miner.results; _ } =
    Gens.pool ~mode:Miner.Closed ~domains:3 ~max_length:3 ~trace idx ~min_sup:5
  in
  let delta = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
  Alcotest.(check int) "worker spans = domains" 3 (kind_count trace Trace.Worker);
  Alcotest.(check int) "pool_workers metric = domains" 3
    (Metrics.find delta "pool_workers");
  let num_roots =
    List.length (Inverted_index.frequent_events idx ~min_sup:5)
  in
  Alcotest.(check int) "root spans = frequent roots" num_roots
    (kind_count trace Trace.Root);
  Alcotest.(check int) "patterns_emitted delta = |results|"
    (List.length results)
    (Metrics.find delta "patterns_emitted");
  (* claimed roots recorded in worker spans sum to the root count *)
  let claimed =
    List.fold_left
      (fun acc e -> if e.Trace.kind = Trace.Worker then acc + e.Trace.a1 else acc)
      0 (Trace.events trace)
  in
  Alcotest.(check int) "claimed roots sum" num_roots claimed

let test_peak_live_words_parallel () =
  let db = List.nth (Lazy.force random_dbs) 1 in
  let idx = Inverted_index.build db in
  Metrics.reset ();
  ignore (Gens.pool ~mode:Miner.Closed ~domains:2 ~max_length:3 idx ~min_sup:5);
  (* regression: the gauge used to be sampled only on the main domain by
     benches; now every pool worker samples its own domain at exit *)
  Alcotest.(check bool) "pool workers sample peak_live_words" true
    (Metrics.value Metrics.peak_live_words > 0)

let test_checkpoint_write_span () =
  with_temp_file (fun path ->
      let trace = Trace.create ~level:Trace.Roots () in
      let before = Metrics.snapshot () in
      let cfg = Miner.config ~min_sup:2 () in
      let report =
        Miner.mine ~checkpoint:path ~trace ~config:cfg (Lazy.force table3)
      in
      let delta = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
      Alcotest.(check bool) "completed" true
        (report.Miner.outcome = Budget.Completed);
      (* v2 log: one Checkpoint_write span per completed root; the
         checkpoint_writes metric additionally counts the header write and
         the final Run_outcome record *)
      let spans = kind_count trace Trace.Checkpoint_write in
      Alcotest.(check bool) "one span per completed root" true (spans >= 1);
      Alcotest.(check int) "checkpoint_writes metric" (spans + 2)
        (Metrics.find delta "checkpoint_writes"))

(* --- Metrics registry --- *)

let test_metrics_registry () =
  let c = Metrics.register "test_trace_scratch" Metrics.Counter in
  (match Metrics.register "test_trace_scratch" Metrics.Counter with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate register should raise");
  let g = Metrics.register "test_trace_scratch_gauge" Metrics.Gauge in
  let before = Metrics.snapshot () in
  Metrics.add c 5;
  Metrics.observe_max g 7;
  let after = Metrics.snapshot () in
  let delta = Metrics.diff ~before ~after in
  Alcotest.(check int) "counter diff subtracts" 5
    (Metrics.find delta "test_trace_scratch");
  Alcotest.(check int) "gauge diff keeps after" 7
    (Metrics.find delta "test_trace_scratch_gauge");
  Metrics.add c 3;
  let delta2 = Metrics.diff ~before:after ~after:(Metrics.snapshot ()) in
  Alcotest.(check int) "second window" 3
    (Metrics.find delta2 "test_trace_scratch");
  Alcotest.(check int) "absent metric reads 0" 0
    (Metrics.find delta2 "no_such_metric")

let test_metrics_export_formats () =
  let snap = Metrics.snapshot () in
  let prom = Format.asprintf "%a" Metrics.pp_prometheus snap in
  Alcotest.(check bool) "prometheus TYPE line" true
    (let needle = "# TYPE rgs_dfs_nodes counter" in
     let rec contains i =
       i + String.length needle <= String.length prom
       && (String.sub prom i (String.length needle) = needle || contains (i + 1))
     in
     contains 0);
  let json = Format.asprintf "%a" Metrics.pp_json snap in
  let doc = Json.parse json in
  let entry = Json.get "dfs_nodes" doc in
  Alcotest.(check string) "kind field" "counter"
    (Json.to_str (Json.get "kind" entry));
  ignore (Json.to_num (Json.get "value" entry));
  (* write_stats dispatches on the suffix *)
  with_temp_file (fun path ->
      Metrics.write_stats ~path snap;
      ignore (Json.parse (read_file path)))

(* --- rgsminer --trace-ring: a bounded ring drops the oldest events and
       surfaces the loss as the trace_dropped_events counter --- *)

let test_trace_ring_e2e () =
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "rgsminer.exe"))
  in
  if not (Sys.file_exists exe) then Alcotest.fail "rgsminer.exe not built";
  let data =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "data" "quest_small.txt"))
  in
  with_temp_file (fun trace_path ->
      with_temp_file (fun stats_path ->
          let cmd =
            Printf.sprintf
              "%s --min-sup 3 --max-length 3 --trace %s --trace-level nodes \
               --trace-ring 64 --stats %s %s >/dev/null 2>/dev/null"
              (Filename.quote exe) (Filename.quote trace_path)
              (Filename.quote stats_path) (Filename.quote data)
          in
          Alcotest.(check int) "exit code" 0 (Sys.command cmd);
          (* quest_small at min_sup 3 has thousands of DFS nodes: a 64-slot
             ring must overflow and count every dropped event *)
          let stats = Json.parse (read_file stats_path) in
          let dropped =
            int_of_float (Json.to_num (Json.get "value" (Json.get "trace_dropped_events" stats)))
          in
          Alcotest.(check bool) "drops counted" true (dropped > 0);
          (* the export holds only what the ring retained *)
          let doc = Json.parse (read_file trace_path) in
          let events = Json.to_arr (Json.get "traceEvents" doc) in
          Alcotest.(check bool) "export bounded" true
            (List.length events > 0 && List.length events <= 64 + 8)))

let suite =
  [
    Alcotest.test_case "chrome export golden" `Quick test_chrome_golden;
    Alcotest.test_case "counters = trace (closed)" `Quick
      test_counter_consistency_closed;
    Alcotest.test_case "counters = trace (all)" `Quick test_counter_consistency_all;
    Alcotest.test_case "ring wrap-around" `Quick test_ring_wrap;
    Alcotest.test_case "disabled tracing inert" `Quick test_disabled;
    Alcotest.test_case "budget stop traced" `Quick test_budget_stop_traced;
    Alcotest.test_case "parallel worker spans" `Quick test_parallel_worker_spans;
    Alcotest.test_case "parallel peak_live_words" `Quick
      test_peak_live_words_parallel;
    Alcotest.test_case "checkpoint write span" `Quick test_checkpoint_write_span;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "metrics export formats" `Quick test_metrics_export_formats;
    Alcotest.test_case "--trace-ring e2e" `Quick test_trace_ring_e2e;
  ]
