open Rgs_sequence

type t = {
  conn : Wire.conn;
  queued : Protocol.response Queue.t;
      (* frames read while waiting for a specific reply *)
  mutable closed : bool;
}

let connect ?(timeout_s = 30.0) path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_UNIX path);
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s;
    Protocol.send_hello fd;
    if not (Protocol.read_hello fd) then
      raise (Protocol.Protocol_error "daemon refused the hello")
  with
  | () -> { conn = Wire.conn fd; queued = Queue.create (); closed = false }
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let send t req = Protocol.send_request t.conn req
let read_response t = Protocol.recv_response t.conn

let next_response t =
  match Queue.take_opt t.queued with
  | Some r -> Some r
  | None -> read_response t

(* Round-trip for a control request: job frames may arrive interleaved;
   queue them and return the first control reply. *)
let rec control_reply t =
  match read_response t with
  | None -> raise (Protocol.Protocol_error "daemon closed the connection")
  | Some ((Results _ | Job_done _) as streamed) ->
    Queue.push streamed t.queued;
    control_reply t
  | Some r -> r

let submit t spec =
  send t (Protocol.Submit spec);
  control_reply t

let stats t =
  send t Protocol.Stats;
  match control_reply t with
  | Protocol.Stats_frame l -> l
  | r ->
    raise
      (Protocol.Protocol_error
         ("unexpected reply to Stats: "
         ^ (match r with
           | Protocol.Pong -> "Pong"
           | Protocol.Error_frame m -> "Error_frame " ^ m
           | _ -> "admission frame")))

let ping t =
  send t Protocol.Ping;
  match control_reply t with Protocol.Pong -> true | _ -> false

let collect_job t ~job_id =
  let chunks = ref [] in
  let finished = ref None in
  (* first drain already-queued frames once, keeping the others queued *)
  let rec drain_queued n =
    if n > 0 then begin
      (match Queue.pop t.queued with
      | Protocol.Results r when r.job_id = job_id ->
        chunks := r.patterns :: !chunks
      | Protocol.Job_done s when s.Protocol.job_id = job_id ->
        finished := Some s
      | other -> Queue.push other t.queued);
      drain_queued (n - 1)
    end
  in
  drain_queued (Queue.length t.queued);
  let rec go () =
    match !finished with
    | Some s -> (List.concat (List.rev !chunks), s)
    | None -> (
      match read_response t with
      | None ->
        raise
          (Protocol.Protocol_error
             (Printf.sprintf "connection closed before job %s finished" job_id))
      | Some (Protocol.Results r) when r.job_id = job_id ->
        chunks := r.patterns :: !chunks;
        go ()
      | Some (Protocol.Job_done s) when s.Protocol.job_id = job_id ->
        (List.concat (List.rev !chunks), s)
      | Some other ->
        Queue.push other t.queued;
        go ())
  in
  go ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close (Wire.conn_fd t.conn) with Unix.Unix_error _ -> ()
  end
