type level = Off | Roots | Nodes

type kind =
  | Root
  | Worker
  | Checkpoint_write
  | Budget_stop
  | Root_retry
  | Quarantine
  | Checkpoint_retry
  | Node
  | Extension
  | Closure_check
  | Lb_prune
  | Query_cut
  | Store_map
  | Store_crc
  | Shard_merge
  | Proc_worker

let num_kinds = 16

let kind_code = function
  | Root -> 0
  | Worker -> 1
  | Checkpoint_write -> 2
  | Budget_stop -> 3
  | Root_retry -> 4
  | Quarantine -> 5
  | Checkpoint_retry -> 6
  | Node -> 7
  | Extension -> 8
  | Closure_check -> 9
  | Lb_prune -> 10
  | Query_cut -> 11
  | Store_map -> 12
  | Store_crc -> 13
  | Shard_merge -> 14
  | Proc_worker -> 15

let kind_of_code = function
  | 0 -> Root
  | 1 -> Worker
  | 2 -> Checkpoint_write
  | 3 -> Budget_stop
  | 4 -> Root_retry
  | 5 -> Quarantine
  | 6 -> Checkpoint_retry
  | 7 -> Node
  | 8 -> Extension
  | 9 -> Closure_check
  | 10 -> Lb_prune
  | 11 -> Query_cut
  | 12 -> Store_map
  | 13 -> Store_crc
  | 14 -> Shard_merge
  | 15 -> Proc_worker
  | c -> invalid_arg (Printf.sprintf "Trace: bad kind code %d" c)

let kind_name = function
  | Root -> "root"
  | Worker -> "worker"
  | Checkpoint_write -> "checkpoint_write"
  | Budget_stop -> "budget_stop"
  | Root_retry -> "root_retry"
  | Quarantine -> "quarantine"
  | Checkpoint_retry -> "checkpoint_retry"
  | Node -> "node"
  | Extension -> "extension"
  | Closure_check -> "closure_check"
  | Lb_prune -> "lb_prune"
  | Query_cut -> "query_cut"
  | Store_map -> "store_map"
  | Store_crc -> "store_crc"
  | Shard_merge -> "shard_merge"
  | Proc_worker -> "proc_worker"

(* Immutable [roots_on]/[nodes_on] flags keep the disabled-path check to one
   load and one predictable branch; the ring arrays are structure-of-arrays
   so recording writes five ints and bumps a cursor, allocation-free. *)
type t = {
  lvl : level;
  roots_on : bool;
  nodes_on : bool;
  base_ns : int;  (* creation time; exported timestamps are relative to it *)
  tid : int;
  kinds : Bytes.t;
  ts : int array;
  dur : int array;
  arg0 : int array;
  arg1 : int array;
  mutable n : int;  (* total events ever recorded in this buffer *)
  mutable last_ns : int;  (* monotonic clamp *)
  children : (int * t) list Atomic.t;  (* domain id -> child buffer *)
  next_tid : int Atomic.t;
}

let null =
  {
    lvl = Off;
    roots_on = false;
    nodes_on = false;
    base_ns = 0;
    tid = 0;
    kinds = Bytes.empty;
    ts = [||];
    dur = [||];
    arg0 = [||];
    arg1 = [||];
    n = 0;
    last_ns = 0;
    children = Atomic.make [];
    next_tid = Atomic.make 1;
  }

let raw_now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let make_buffer ~lvl ~capacity ~base_ns ~tid ~next_tid =
  let cap = pow2_at_least (max 2 capacity) 2 in
  {
    lvl;
    roots_on = lvl <> Off;
    nodes_on = lvl = Nodes;
    base_ns;
    tid;
    kinds = Bytes.make cap '\000';
    ts = Array.make cap 0;
    dur = Array.make cap 0;
    arg0 = Array.make cap 0;
    arg1 = Array.make cap 0;
    n = 0;
    last_ns = 0;
    children = Atomic.make [];
    next_tid;
  }

let create ?(capacity = 65536) ~level () =
  match level with
  | Off -> null
  | lvl ->
    make_buffer ~lvl ~capacity ~base_ns:(raw_now_ns ()) ~tid:0
      ~next_tid:(Atomic.make 1)

let level t = t.lvl
let roots_on t = t.roots_on
let nodes_on t = t.nodes_on

let rec for_domain t =
  if not t.roots_on then t
  else begin
    let id = (Domain.self () :> int) in
    let rec find = function
      | [] -> None
      | (i, c) :: tl -> if i = id then Some c else find tl
    in
    let cur = Atomic.get t.children in
    match find cur with
    | Some c -> c
    | None ->
      let child =
        make_buffer ~lvl:t.lvl ~capacity:(Array.length t.ts) ~base_ns:t.base_ns
          ~tid:(Atomic.fetch_and_add t.next_tid 1)
          ~next_tid:t.next_tid
      in
      if Atomic.compare_and_set t.children cur ((id, child) :: cur) then child
      else for_domain t (* another domain registered concurrently; retry *)
  end

let enabled t = function
  | Root | Worker | Checkpoint_write | Budget_stop | Root_retry | Quarantine
  | Checkpoint_retry | Store_map | Store_crc | Proc_worker ->
    t.roots_on
  | Node | Extension | Closure_check | Lb_prune | Query_cut | Shard_merge ->
    t.nodes_on

let now t =
  if not t.roots_on then 0
  else begin
    let raw = raw_now_ns () in
    let clamped = if raw < t.last_ns then t.last_ns else raw in
    t.last_ns <- clamped;
    clamped
  end

let record t k ~ts ~dur ~a0 ~a1 =
  (* once the ring is full every record overwrites the oldest event; count
     the loss where operators look for it, not only in [dropped] *)
  if t.n >= Array.length t.ts then Metrics.hit Metrics.trace_dropped_events;
  let i = t.n land (Array.length t.ts - 1) in
  Bytes.unsafe_set t.kinds i (Char.unsafe_chr (kind_code k));
  t.ts.(i) <- ts;
  t.dur.(i) <- dur;
  t.arg0.(i) <- a0;
  t.arg1.(i) <- a1;
  t.n <- t.n + 1

let instant t k ~a0 ~a1 = if enabled t k then record t k ~ts:(now t) ~dur:0 ~a0 ~a1

let span t k ~a0 ~a1 ~start =
  if enabled t k then begin
    let stop = now t in
    record t k ~ts:start ~dur:(stop - start) ~a0 ~a1
  end

(* --- readers --- *)

type event = {
  kind : kind;
  tid : int;
  ts_ns : int;
  dur_ns : int;
  a0 : int;
  a1 : int;
}

let buffers t = t :: List.map snd (Atomic.get t.children)

let buffer_events b acc =
  let cap = Array.length b.ts in
  if cap = 0 then acc
  else begin
    let kept = min b.n cap in
    let acc = ref acc in
    for j = kept - 1 downto 0 do
      let i = (b.n - kept + j) land (cap - 1) in
      acc :=
        {
          kind = kind_of_code (Char.code (Bytes.get b.kinds i));
          tid = b.tid;
          ts_ns = b.ts.(i) - b.base_ns;
          dur_ns = b.dur.(i);
          a0 = b.arg0.(i);
          a1 = b.arg1.(i);
        }
        :: !acc
    done;
    !acc
  end

let events t =
  let evs = List.fold_left (fun acc b -> buffer_events b acc) [] (buffers t) in
  (* chronological; longer spans first on ties so parents precede children *)
  List.sort
    (fun a b ->
      match compare a.ts_ns b.ts_ns with 0 -> compare b.dur_ns a.dur_ns | c -> c)
    evs

let dropped t =
  List.fold_left
    (fun acc b -> acc + max 0 (b.n - Array.length b.ts))
    0 (buffers t)

let counts t =
  let tally = Array.make num_kinds 0 in
  List.iter
    (fun b ->
      let cap = Array.length b.ts in
      let kept = min b.n cap in
      for j = 0 to kept - 1 do
        let i = (b.n - kept + j) land (cap - 1) in
        let c = Char.code (Bytes.get b.kinds i) in
        tally.(c) <- tally.(c) + 1
      done)
    (buffers t);
  let out = ref [] in
  for c = num_kinds - 1 downto 0 do
    if tally.(c) > 0 then out := (kind_of_code c, tally.(c)) :: !out
  done;
  !out

(* --- Chrome trace_event export --- *)

let arg_fields = function
  | Root -> [| "root"; "patterns" |]
  | Worker -> [| "slot"; "roots" |]
  | Checkpoint_write -> [| "completed"; "remaining" |]
  | Budget_stop -> [| "outcome" |]
  | Root_retry -> [| "slot" |]
  | Quarantine -> [| "slot" |]
  | Checkpoint_retry -> [| "attempt"; "gave_up" |]
  | Node -> [| "depth"; "support" |]
  | Extension -> [| "depth"; "frequent_extensions" |]
  | Closure_check -> [| "verdict"; "depth" |]
  | Lb_prune -> [| "depth"; "support" |]
  | Query_cut -> [| "depth"; "reason" |]
  | Store_map -> [| "mapped_words"; "open_us" |]
  | Store_crc -> [| "section"; "ok" |]
  | Shard_merge -> [| "shards"; "merge_us" |]
  | Proc_worker -> [| "shard"; "grows" |]

let pp_args ppf ev =
  let fields = arg_fields ev.kind in
  Array.iteri
    (fun i name ->
      if i > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%S: %d" name (if i = 0 then ev.a0 else ev.a1))
    fields

let us ns = float_of_int ns /. 1e3

let pp_chrome ppf t =
  let evs = events t in
  Format.fprintf ppf "{@\n  \"displayTimeUnit\": \"ms\",@\n  \"traceEvents\": [";
  let first = ref true in
  let emit pp =
    if not !first then Format.fprintf ppf ",";
    first := false;
    Format.fprintf ppf "@\n    ";
    pp ()
  in
  emit (fun () ->
      Format.fprintf ppf
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
         \"args\": {\"name\": \"rgs\"}}");
  List.iter
    (fun (b : t) ->
      emit (fun () ->
          Format.fprintf ppf
            "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": %d, \
             \"args\": {\"name\": %S}}"
            b.tid
            (if b.tid = 0 then "main" else Printf.sprintf "worker-%d" b.tid)))
    (buffers t);
  List.iter
    (fun ev ->
      emit (fun () ->
          if ev.dur_ns > 0 || ev.kind = Root || ev.kind = Worker
             || ev.kind = Checkpoint_write
          then
            Format.fprintf ppf
              "{\"name\": %S, \"cat\": \"rgs\", \"ph\": \"X\", \"pid\": 0, \
               \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {%a}}"
              (kind_name ev.kind) ev.tid (us ev.ts_ns) (us ev.dur_ns) pp_args ev
          else
            Format.fprintf ppf
              "{\"name\": %S, \"cat\": \"rgs\", \"ph\": \"i\", \"s\": \"t\", \
               \"pid\": 0, \"tid\": %d, \"ts\": %.3f, \"args\": {%a}}"
              (kind_name ev.kind) ev.tid (us ev.ts_ns) pp_args ev))
    evs;
  Format.fprintf ppf "@\n  ],@\n  \"otherData\": {\"dropped_events\": %d}@\n}@\n"
    (dropped t)

let write_chrome path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let ppf = Format.formatter_of_out_channel oc in
      pp_chrome ppf t;
      Format.pp_print_flush ppf ())
