type outcome =
  | Completed
  | Truncated
  | Deadline_exceeded
  | Memory_limit
  | Cancelled
  | Interrupted
  | Worker_failed

exception Stop of outcome

(* Process-global cooperative shutdown, set from a signal handler. Every
   budget consults it in [check], so a SIGTERM reaches each mining domain
   at its next DFS node without the handler having to know which budgets
   exist. *)
let shutdown_flag = Atomic.make false
let signals_flag = Atomic.make false

let request_shutdown () = Atomic.set shutdown_flag true
let shutdown_requested () = Atomic.get shutdown_flag
let reset_shutdown () = Atomic.set shutdown_flag false

let install_signal_handlers () =
  Atomic.set signals_flag true;
  let handle = Sys.Signal_handle (fun _ -> request_shutdown ()) in
  Sys.set_signal Sys.sigterm handle;
  Sys.set_signal Sys.sigint handle

let signals_installed () = Atomic.get signals_flag

type t = {
  deadline : float option;  (* absolute, Unix.gettimeofday scale *)
  max_nodes : int option;
  max_words : int option;
  node_count : int Atomic.t;
  cancel_flag : bool Atomic.t;
}

let create ?deadline_s ?max_nodes ?max_words () =
  {
    deadline = Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s;
    max_nodes;
    max_words;
    node_count = Atomic.make 0;
    cancel_flag = Atomic.make false;
  }

let cancel t = Atomic.set t.cancel_flag true
let cancelled t = Atomic.get t.cancel_flag
let nodes t = Atomic.get t.node_count

let check t =
  let n = 1 + Atomic.fetch_and_add t.node_count 1 in
  if Atomic.get shutdown_flag then raise (Stop Interrupted);
  if Atomic.get t.cancel_flag then raise (Stop Cancelled);
  (match t.max_nodes with
  | Some limit when n > limit -> raise (Stop Truncated)
  | _ -> ());
  (match t.deadline with
  | Some d when Unix.gettimeofday () > d -> raise (Stop Deadline_exceeded)
  | _ -> ());
  match t.max_words with
  | Some limit when (Gc.quick_stat ()).Gc.heap_words > limit ->
    raise (Stop Memory_limit)
  | _ -> ()

let severity = function
  | Completed -> 0
  | Truncated -> 1
  | Deadline_exceeded -> 2
  | Memory_limit -> 3
  | Cancelled -> 4
  | Interrupted -> 5
  | Worker_failed -> 6

let combine a b = if severity a >= severity b then a else b
let is_stop o = o <> Completed

let to_string = function
  | Completed -> "completed"
  | Truncated -> "truncated"
  | Deadline_exceeded -> "deadline exceeded"
  | Memory_limit -> "memory limit"
  | Cancelled -> "cancelled"
  | Interrupted -> "interrupted"
  | Worker_failed -> "worker failed"

let pp ppf o = Format.pp_print_string ppf (to_string o)

module Fault = struct
  type site =
    | Insgrow
    | Worker of int
    | Checkpoint_io
    | Socket_write
    | Shard_merge

  let site_name = function
    | Insgrow -> "insgrow"
    | Worker _ -> "worker"
    | Checkpoint_io -> "checkpoint_io"
    | Socket_write -> "socket_write"
    | Shard_merge -> "shard_merge"

  let hook : (site -> unit) option Atomic.t = Atomic.make None

  let set f = Atomic.set hook (Some f)
  let clear () = Atomic.set hook None

  let fire site =
    match Atomic.get hook with None -> () | Some f -> f site

  let with_hook h f =
    set h;
    Fun.protect ~finally:clear f
end
