open Rgs_sequence
open Rgs_core

(* Messages between the supervisor and one shard worker process. Framing
   is [Protocol]'s length + CRC-32 header; the payload is a tagged
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

exception Bad of string

let varint_max = 9

(* A payload is built in place, after an 8-byte header gap, in a buffer
   reused across frames; [bound] is an upper bound on the payload. *)
let reserve b bound =
  if Bytes.length !b < 8 + bound then
    b := Bytes.create (max (8 + bound) (2 * Bytes.length !b))

let put b off v =
  if v < 0 then invalid_arg "Shard_worker: negative field";
  Support_set.put_varint b off v

let put_string b off s =
  let off = put b off (String.length s) in
  Bytes.blit_string s 0 b off (String.length s);
  off + String.length s

(* the [write_*_payload] functions return the payload's end offset in [!b] *)
let write_to_worker_payload b (m : to_worker) =
  match m with
  | Shutdown ->
    reserve b 1;
    put !b 8 tag_shutdown
  | Grow { req; event; gap; slot; slice } ->
    if slot < 0 || slot >= slots then invalid_arg "Shard_worker: slot out of range";
    let set_bound =
      match slice with Inline s -> Support_set.encode_bound s | Held -> 0
    in
    reserve b ((7 * varint_max) + set_bound);
    let b = !b in
    let o = put b 8 tag_grow in
    let o = put b o req in
    let o = put b o event in
    let o =
      match gap with
      | None -> put b o 0
      | Some (min_gap, max_gap) -> put b (put b (put b o 1) min_gap) max_gap
    in
    let o = put b o slot in
    (match slice with
    | Held -> put b o 0
    | Inline s -> Support_set.encode_into s b (put b o 1))

let write_from_worker_payload b (m : from_worker) =
  match m with
  | Ready { lo; hi; digest } ->
    reserve b ((5 * varint_max) + String.length digest);
    let b = !b in
    let o = put b 8 tag_ready in
    let o = put b o wire_version in
    put_string b (put b (put b o lo) hi) digest
  | Heartbeat ->
    reserve b 1;
    put !b 8 tag_heartbeat
  | Grown { req; part } ->
    reserve b ((2 * varint_max) + Support_set.encode_bound part);
    let b = !b in
    Support_set.encode_into part b (put b (put b 8 tag_grown) req)
  | Failed { req; reason } ->
    reserve b ((3 * varint_max) + String.length reason);
    let b = !b in
    put_string b (put b (put b 8 tag_failed) req) reason

(* Decoders read [s.[off, stop)] through a cursor. Every failure is
   [Bad msg]: a string length is bounded by the bytes left before it is
   used, flags are exactly 0 or 1, and the payload must be consumed
   exactly. *)
type cursor = { s : string; pos : int ref; stop : int }

let get c =
  try Support_set.get_varint c.s c.pos ~stop:c.stop
  with Invalid_argument msg -> raise (Bad msg)

let get_flag c =
  match get c with 0 -> false | 1 -> true | _ -> raise (Bad "flag is not 0 or 1")

let get_string c =
  let n = get c in
  if n > c.stop - !(c.pos) then raise (Bad "string length exceeds payload");
  let v = String.sub c.s !(c.pos) n in
  c.pos := !(c.pos) + n;
  v

(* a support set runs to the end of the payload *)
let get_set c =
  let at = !(c.pos) in
  c.pos := c.stop;
  try Support_set.decode_sub c.s ~off:at ~len:(c.stop - at)
  with Invalid_argument msg -> raise (Bad msg)

let finish c m = if !(c.pos) <> c.stop then raise (Bad "trailing bytes") else m

let decode_to_worker_sub s ~off ~len =
  let c = { s; pos = ref off; stop = off + len } in
  let tag = get c in
  if tag = tag_shutdown then finish c Shutdown
  else if tag = tag_grow then begin
    let req = get c in
    let event = get c in
    let gap =
      if get_flag c then
        let min_gap = get c in
        Some (min_gap, get c)
      else None
    in
    let slot = get c in
    if slot >= slots then raise (Bad "slot out of range");
    let slice = if get_flag c then Inline (get_set c) else Held in
    finish c (Grow { req; event; gap; slot; slice })
  end
  else raise (Bad "unknown request tag")

let decode_from_worker_sub s ~off ~len =
  let c = { s; pos = ref off; stop = off + len } in
  let tag = get c in
  if tag = tag_heartbeat then finish c Heartbeat
  else if tag = tag_ready then begin
    let version = get c in
    if version <> wire_version then
      raise
        (Bad (Printf.sprintf "worker wire version %d, expected %d" version wire_version));
    let lo = get c in
    let hi = get c in
    finish c (Ready { lo; hi; digest = get_string c })
  end
  else if tag = tag_grown then
    let req = get c in
    finish c (Grown { req; part = get_set c })
  else if tag = tag_failed then
    let req = get c in
    finish c (Failed { req; reason = get_string c })
  else raise (Bad "unknown reply tag")

let to_result f s =
  match f s ~off:0 ~len:(String.length s) with
  | m -> Ok m
  | exception Bad msg -> Error msg

let payload_string write m =
  let b = ref (Bytes.create 64) in
  let stop = write b m in
  Bytes.sub_string !b 8 (stop - 8)

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

let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int v)
let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF

(* one frame, one write: header and payload share the buffer *)
let write_frame c write m =
  let stop = write c.wbuf m in
  let b = !(c.wbuf) in
  let len = stop - 8 in
  if len > Protocol.max_frame_bytes then
    raise (Protocol.Protocol_error (Printf.sprintf "frame too large (%d bytes)" len));
  set_u32 b 0 len;
  set_u32 b 4 (Checkpoint.crc32_sub (Bytes.unsafe_to_string b) 8 len);
  Protocol.write_all c.fd b 0 stop;
  stop

let read_frame c decode =
  let hdr = !(c.rbuf) in
  if not (Protocol.read_into c.fd hdr 8) then None
  else begin
    let len = get_u32 hdr 0 and crc = get_u32 hdr 4 in
    if len > Protocol.max_frame_bytes then
      raise (Protocol.Protocol_error (Printf.sprintf "frame too large (%d bytes)" len));
    if Bytes.length !(c.rbuf) < len then
      c.rbuf := Bytes.create (max len (2 * Bytes.length !(c.rbuf)));
    let b = !(c.rbuf) in
    if not (Protocol.read_into c.fd b len) then
      raise (Protocol.Protocol_error "connection closed mid-frame");
    (* the decoders copy what they keep, so the buffer can be reused *)
    let s = Bytes.unsafe_to_string b in
    if Checkpoint.crc32_sub s 0 len <> crc then
      raise (Protocol.Protocol_error "frame CRC mismatch");
    match decode s ~off:0 ~len with
    | m -> Some (m, 8 + len)
    | exception Bad msg ->
      raise (Protocol.Protocol_error ("undecodable worker frame: " ^ msg))
  end

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
  let buf = Bytes.create (8 + len) in
  set_u32 buf 0 len;
  set_u32 buf 4 ((Checkpoint.crc32 payload lxor 0x5A5A5A5A) land 0xFFFFFFFF);
  Bytes.blit_string payload 0 buf 8 len;
  Protocol.write_all fd buf 0 (8 + len)

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
