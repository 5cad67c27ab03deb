open Rgs_sequence
open Rgs_core

type limits = {
  max_deadline_s : float option;
  max_nodes : int option;
  max_words : int option;
}

let no_limits = { max_deadline_s = None; max_nodes = None; max_words = None }

type cancel_reason = Disconnect | Stalled | Drain

let cancel_reason_name = function
  | Disconnect -> "disconnect"
  | Stalled -> "watchdog"
  | Drain -> "drain"

type t = {
  spec : Protocol.job_spec;
  client : int;
  mutable budget : Budget.t option;
  mutable cancel_reason : cancel_reason option;
  mutable last_nodes : int;
  mutable last_progress_at : float;
}

let create ~client spec =
  {
    spec;
    client;
    budget = None;
    cancel_reason = None;
    last_nodes = 0;
    last_progress_at = Unix.gettimeofday ();
  }

let validate (spec : Protocol.job_spec) =
  if not (Protocol.valid_job_id spec.job_id) then
    Error "invalid job id (want [A-Za-z0-9._-]{1,64})"
  else if spec.min_sup < 1 then Error "min_sup must be >= 1"
  else if match spec.max_gap with Some g -> g < 0 | None -> false then
    Error "max_gap must be >= 0"
  else if
    match spec.deadline_s with Some d -> d < 0.0 | None -> false
  then Error "deadline_s must be >= 0"
  else if match spec.max_nodes with Some n -> n < 0 | None -> false then
    Error "max_nodes must be >= 0"
  else if match spec.max_words with Some w -> w < 1 | None -> false then
    Error "max_words must be >= 1"
  else if
    match spec.query with Protocol.Q_target [] -> true | _ -> false
  then Error "target pattern must be non-empty"
  else if
    match spec.query with
    | Protocol.Q_target evs -> List.exists (fun e -> e < 0) evs
    | _ -> false
  then Error "target events must be >= 0"
  else if match spec.query with Protocol.Q_top_k k -> k < 1 | _ -> false then
    Error "top_k must be >= 1"
  else if
    match spec.compress_delta with
    | Some d -> not (d >= 0.0 && d <= 1.0)
    | None -> false
  then Error "compress_delta must be within [0, 1]"
  else Ok ()

(* each axis: min(requested, ceiling); an unrequested axis inherits the
   ceiling, so "no limit asked" still cannot exceed the server's. *)
let clamp_axis ceiling requested ~min:min_v =
  match (requested, ceiling) with
  | None, c -> c
  | (Some _ as r), None -> r
  | Some r, Some c -> Some (min_v r c)

let clamp limits (spec : Protocol.job_spec) =
  {
    spec with
    deadline_s = clamp_axis limits.max_deadline_s spec.deadline_s ~min:Float.min;
    max_nodes = clamp_axis limits.max_nodes spec.max_nodes ~min:Int.min;
    max_words = clamp_axis limits.max_words spec.max_words ~min:Int.min;
  }

let budget_of (spec : Protocol.job_spec) =
  Budget.create ?deadline_s:spec.deadline_s ?max_nodes:spec.max_nodes
    ?max_words:spec.max_words ()

let query_of (spec : Protocol.job_spec) =
  match spec.query with
  | Protocol.Q_all -> Query.All
  | Protocol.Q_target evs -> Query.Targeted (Pattern.of_list evs)
  | Protocol.Q_top_k k -> Query.Top_k k

let config_of ?shards ?shard_dispatch (spec : Protocol.job_spec) =
  Miner.config
    ~mode:(match spec.mode with Protocol.All -> Miner.All | Protocol.Closed -> Miner.Closed)
    ~query:(query_of spec) ?max_length:spec.max_length ?max_gap:spec.max_gap
    ?shards ?shard_dispatch
    ~min_sup:spec.min_sup ()

(* Mapped [.rgsdb] stores are cached per path: every job referencing the
   same store (and the daemon's --store preload) shares one read-only
   mapping, so concurrent jobs on one corpus cost one set of pages. The
   cache never evicts — stores a daemon serves are few and mappings are
   cheap (page cache, not heap). *)
let store_cache : (string, Seqdb.t) Hashtbl.t = Hashtbl.create 4
let store_mutex = Mutex.create ()

let is_store_path path = Filename.check_suffix path ".rgsdb"

let open_store ~verify path =
  Mutex.protect store_mutex (fun () ->
      match Hashtbl.find_opt store_cache path with
      | Some db -> db
      | None ->
        let store = Rgs_store.Store.open_store ~verify path in
        let db = Rgs_store.Store.db store in
        Hashtbl.add store_cache path db;
        db)

let preload_store path =
  match open_store ~verify:true path with
  | db -> Ok db
  | exception Rgs_store.Store.Invalid_store e ->
    Error (Printf.sprintf "%s: %s" path (Rgs_store.Store.error_message e))
  | exception Unix.Unix_error (err, _, _) ->
    Error (Printf.sprintf "%s: %s" path (Unix.error_message err))
  | exception Sys_error msg -> Error msg

let load_db (spec : Protocol.job_spec) =
  match spec.db with
  | Protocol.Inline { format; text } -> (
    match Seq_io.parse format text with
    | db, _ -> Ok db
    | exception Seq_io.Parse_error { line; msg } ->
      Error (Printf.sprintf "inline db: line %d: %s" line msg))
  | Protocol.File { format = _; path } when is_store_path path -> (
    match open_store ~verify:false path with
    | db -> Ok db
    | exception Rgs_store.Store.Invalid_store e ->
      Error (Printf.sprintf "%s: %s" path (Rgs_store.Store.error_message e))
    | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message err))
    | exception Sys_error msg -> Error msg)
  | Protocol.File { format; path } -> (
    match Seq_io.parse format (Seq_io.read_file path) with
    | db, _ -> Ok db
    | exception Sys_error msg -> Error msg
    | exception Seq_io.Parse_error { line; msg } ->
      Error (Printf.sprintf "%s:%d: %s" path line msg))

let checkpoint_path ~state_dir job_id =
  Filename.concat state_dir ("job-" ^ job_id ^ ".ckpt")
