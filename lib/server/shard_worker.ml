open Rgs_sequence
open Rgs_core

(* Messages between the supervisor and one shard worker process. Framing
   is [Wire]'s length + CRC-32 header; the payload is a tagged
   varint codec (FORMAT.md Appendix B), decoded totally, so a torn or
   corrupted frame is caught at the CRC and a CRC-valid but malformed
   one at the decoder. The worker's stdin/stdout carry nothing else. *)

let wire_version = 2
let slots = 4

type slice = Inline of Support_set.t | Held

type to_worker =
  | Grow of {
      req : int;
      event : Event.t;
      gap : (int * int) option;  (* (min_gap, max_gap) *)
      slot : int;
      slice : slice;
    }
  | Shutdown

type from_worker =
  | Ready of { lo : int; hi : int; digest : string }
  | Heartbeat
  | Grown of { req : int; part : Support_set.t }
  | Failed of { req : int; reason : string }

(* --- payload codec --- *)

let tag_grow = 1
let tag_shutdown = 2
let tag_ready = 1
let tag_heartbeat = 2
let tag_grown = 3
let tag_failed = 4

(* A payload is built in place at [start], after the frame header, in a
   buffer reused across frames; [bound] is an upper bound on the payload. *)
let start = Wire.header_bytes

let reserve b bound =
  if Bytes.length !b < start + bound then
    b := Bytes.create (max (start + bound) (2 * Bytes.length !b))

(* the [write_*_payload] functions return the payload's end offset in [!b] *)
let write_to_worker_payload b (m : to_worker) =
  match m with
  | Shutdown ->
    reserve b 1;
    Wire.put_uint !b start tag_shutdown
  | Grow { req; event; gap; slot; slice } ->
    if slot < 0 || slot >= slots then invalid_arg "Shard_worker: slot out of range";
    let set_bound =
      match slice with Inline s -> Support_set.encode_bound s | Held -> 0
    in
    reserve b ((7 * Wire.varint_max) + set_bound);
    let b = !b in
    let o = Wire.put_uint b start tag_grow in
    let o = Wire.put_uint b o req in
    let o = Wire.put_uint b o event in
    let o =
      match gap with
      | None -> Wire.put_uint b o 0
      | Some (min_gap, max_gap) ->
        let o = Wire.put_uint b o 1 in
        Wire.put_uint b (Wire.put_uint b o min_gap) max_gap
    in
    let o = Wire.put_uint b o slot in
    (match slice with
    | Held -> Wire.put_uint b o 0
    | Inline s -> Support_set.encode_into s b (Wire.put_uint b o 1))

let write_from_worker_payload b (m : from_worker) =
  match m with
  | Ready { lo; hi; digest } ->
    reserve b ((5 * Wire.varint_max) + String.length digest);
    let b = !b in
    let o = Wire.put_uint b start tag_ready in
    let o = Wire.put_uint b o wire_version in
    let o = Wire.put_uint b o lo in
    Wire.put_string b (Wire.put_uint b o hi) digest
  | Heartbeat ->
    reserve b 1;
    Wire.put_uint !b start tag_heartbeat
  | Grown { req; part } ->
    reserve b ((2 * Wire.varint_max) + Support_set.encode_bound part);
    let b = !b in
    Support_set.encode_into part b (Wire.put_uint b (Wire.put_uint b start tag_grown) req)
  | Failed { req; reason } ->
    reserve b ((3 * Wire.varint_max) + String.length reason);
    let b = !b in
    Wire.put_string b (Wire.put_uint b (Wire.put_uint b start tag_failed) req) reason

(* Decoders read [s.[off, off + len)] through [Wire.decode]; every
   failure is [Invalid_argument]. A support set runs to the end of the
   payload. *)
let get_set c s =
  let off, len = Wire.take_rest c in
  Support_set.decode_sub s ~off ~len

let decode_to_worker_sub s =
  Wire.decode
    (fun c ->
      match Wire.get_uint c with
      | t when t = tag_shutdown -> Shutdown
      | t when t = tag_grow ->
        let req = Wire.get_uint c in
        let event = Wire.get_uint c in
        let gap =
          if Wire.get_flag c then
            let min_gap = Wire.get_uint c in
            Some (min_gap, Wire.get_uint c)
          else None
        in
        let slot = Wire.get_uint c in
        if slot >= slots then invalid_arg "slot out of range";
        let slice = if Wire.get_flag c then Inline (get_set c s) else Held in
        Grow { req; event; gap; slot; slice }
      | _ -> invalid_arg "unknown request tag")
    s

let decode_from_worker_sub s =
  Wire.decode
    (fun c ->
      match Wire.get_uint c with
      | t when t = tag_heartbeat -> Heartbeat
      | t when t = tag_ready ->
        let version = Wire.get_uint c in
        if version <> wire_version then
          invalid_arg
            (Printf.sprintf "worker wire version %d, expected %d" version wire_version);
        let lo = Wire.get_uint c in
        let hi = Wire.get_uint c in
        Ready { lo; hi; digest = Wire.get_string c }
      | t when t = tag_grown ->
        let req = Wire.get_uint c in
        Grown { req; part = get_set c s }
      | t when t = tag_failed ->
        let req = Wire.get_uint c in
        Failed { req; reason = Wire.get_string c }
      | _ -> invalid_arg "unknown reply tag")
    s

let to_result f s =
  match f s ~off:0 ~len:(String.length s) with
  | m -> Ok m
  | exception Invalid_argument msg -> Error msg

let payload_string write m =
  let b = ref (Bytes.create 64) in
  let stop = write b m in
  Bytes.sub_string !b start (stop - start)

let encode_to_worker m = payload_string write_to_worker_payload m
let encode_from_worker m = payload_string write_from_worker_payload m
let decode_to_worker s = to_result decode_to_worker_sub s
let decode_from_worker s = to_result decode_from_worker_sub s

(* --- connections: framing over reused buffers --- *)

type conn = {
  fd : Unix.file_descr;
  rbuf : Bytes.t ref;  (* every frame read lands here *)
  wbuf : Bytes.t ref;  (* every frame written is built here *)
}

let conn fd = { fd; rbuf = ref (Bytes.create 4096); wbuf = ref (Bytes.create 4096) }
let fd c = c.fd

(* one frame, one write: header and payload share the buffer *)
let write_frame c write m =
  let stop = write c.wbuf m in
  Wire.write_frame c.fd !(c.wbuf) ~len:(stop - start);
  stop

let read_frame c decode =
  match Wire.read_frame c.fd c.rbuf with
  | None -> None
  | Some len -> (
    (* the decoders copy what they keep, so the buffer can be reused *)
    match decode (Bytes.unsafe_to_string !(c.rbuf)) ~off:0 ~len with
    | m -> Some (m, Wire.header_bytes + len)
    | exception Invalid_argument msg ->
      raise (Protocol.Protocol_error ("undecodable worker frame: " ^ msg)))

(* The supervisor's side counts the bytes its pipes carry. *)
let write_to_worker c m =
  Metrics.add Metrics.worker_bytes_sent (write_frame c write_to_worker_payload m)

let read_from_worker c =
  match read_frame c decode_from_worker_sub with
  | None -> None
  | Some (m, n) ->
    Metrics.add Metrics.worker_bytes_received n;
    Some m

let write_from_worker c m = ignore (write_frame c write_from_worker_payload m)
let read_to_worker c = Option.map fst (read_frame c decode_to_worker_sub)

(* --- corrupt-frame injection ([Chaos.Proc_corrupt]) --- *)

(* a well-formed header whose CRC is deliberately wrong — the shape of a
   torn write that flipped payload bits *)
let write_corrupt_frame fd =
  let payload = "corrupt-frame-fault" in
  let len = String.length payload in
  let b = Bytes.create (Wire.header_bytes + len) in
  Bytes.blit_string payload 0 b Wire.header_bytes len;
  Wire.seal b ~len;
  Bytes.set_int32_be b 4 (Int32.logxor (Bytes.get_int32_be b 4) 0x5A5A5A5Al);
  Wire.write_all fd b 0 (Wire.header_bytes + len)

(* --- the serve loop --- *)

let log_src = Logs.Src.create "rgs.worker" ~doc:"Shard worker process"

module Log = (val Logs.src_log log_src : Logs.LOG)

let armed_fault () =
  let restart_gen =
    match Sys.getenv_opt Chaos.worker_restart_env with
    | Some s -> ( try int_of_string s with Failure _ -> 0)
    | None -> 0
  in
  match Sys.getenv_opt Chaos.worker_fault_env with
  | None -> None
  | Some s -> (
    match Chaos.worker_fault_of_string s with
    | Some (site, after, persist) when persist || restart_gen = 0 ->
      Some (site, after, persist)
    | Some _ -> None (* transient fault already spent in a prior incarnation *)
    | None -> None (* garbage in the env var must not kill the worker *))

let serve ?(heartbeat_ms = 50) ?(input = Unix.stdin) ?(output = Unix.stdout)
    ~store ~lo ~hi () =
  let inc = conn input and outc = conn output in
  (* a dying supervisor must surface as EPIPE on our writes, not SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let db, _codec = Rgs_store.Store.open_db store in
  let wlock = Mutex.create () in
  let send m =
    Mutex.lock wlock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock wlock)
      (fun () -> write_from_worker outc m)
  in
  let fault = armed_fault () in
  (* [Ready] goes out before the index build (which can take a while on a
     paper-scale corpus) so the supervisor's handshake never races the
     build; heartbeats start immediately after for the same reason. *)
  send (Ready { lo; hi; digest = Seqdb.content_digest db });
  let alive = Atomic.make true in
  let hung = Atomic.make false in
  let heartbeat =
    Domain.spawn (fun () ->
        let period = float_of_int heartbeat_ms /. 1000.0 in
        let rec beat () =
          if Atomic.get alive && not (Atomic.get hung) then begin
            (try Unix.sleepf period
             with Unix.Unix_error (Unix.EINTR, _, _) -> ());
            if Atomic.get alive && not (Atomic.get hung) then begin
              match send Heartbeat with
              | () -> beat ()
              | exception (Unix.Unix_error _ | Sys_error _) ->
                (* supervisor gone; the main loop will see EOF too *)
                Atomic.set alive false
            end
          end
        in
        beat ())
  in
  let finish () =
    Atomic.set alive false;
    Domain.join heartbeat
  in
  Fun.protect ~finally:finish (fun () ->
      let idx = Inverted_index.build db in
      Log.info (fun m ->
          m "serving shard [%d, %d] of %s (pid %d)" lo hi store (Unix.getpid ()));
      (* the parent slices the supervisor placed, by slot; a restart
         starts empty, and so does the supervisor's mirror of them *)
      let held = Array.make slots None in
      let grows = ref 0 in
      let slow = ref false in
      let reply req event gap slot slice =
        if !slow then Unix.sleepf 0.05;
        (match slice with Inline s -> held.(slot) <- Some s | Held -> ());
        let m =
          match held.(slot) with
          | None -> Failed { req; reason = Printf.sprintf "slot %d is empty" slot }
          | Some s -> (
            match
              match gap with
              | None -> Support_set.grow idx s event
              | Some (min_gap, max_gap) ->
                Gap_constrained.grow ~min_gap idx ~max_gap s event
            with
            | grown -> Grown { req; part = grown }
            | exception e -> Failed { req; reason = Printexc.to_string e })
        in
        send m
      in
      let rec loop () =
        match read_to_worker inc with
        | None | Some Shutdown -> ()
        | Some (Grow { req; event; gap; slot; slice }) ->
          incr grows;
          let firing =
            match fault with
            | Some (site, after, persist)
              when !grows = after || (persist && !grows > after) ->
              Some site
            | _ -> None
          in
          (match firing with
          | Some Chaos.Proc_kill ->
            (* simulate a segfault-class crash: no cleanup, no reply *)
            Unix.kill (Unix.getpid ()) Sys.sigkill
          | Some Chaos.Proc_hang ->
            (* stop heartbeating and never reply: only the supervisor's
               liveness deadline can detect this state *)
            Atomic.set hung true;
            while true do
              Unix.sleep 3600
            done
          | Some Chaos.Proc_corrupt ->
            Mutex.lock wlock;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock wlock)
              (fun () -> write_corrupt_frame output);
            loop ()
          | Some Chaos.Proc_slow ->
            slow := true;
            reply req event gap slot slice;
            loop ()
          | None ->
            reply req event gap slot slice;
            loop ())
      in
      match loop () with
      | () -> ()
      | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ()
      | exception Protocol.Protocol_error _ ->
        (* a torn or undecodable request frame means the supervisor died
           mid-write or speaks another codec; either way there is nobody
           left to serve *)
        ())
