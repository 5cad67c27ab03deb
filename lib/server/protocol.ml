open Rgs_core

let magic = "RGSD"
let version = 2
let max_frame_bytes = 64 * 1024 * 1024

exception Protocol_error of string

type format = Tokens | Chars | Spmf

type db_source =
  | Inline of { format : format; text : string }
  | File of { format : format; path : string }

type mode = All | Closed

type query_spec = Q_all | Q_target of int list | Q_top_k of int

type job_spec = {
  job_id : string;
  db : db_source;
  min_sup : int;
  mode : mode;
  max_length : int option;
  max_gap : int option;
  deadline_s : float option;
  max_nodes : int option;
  max_words : int option;
  query : query_spec;
  compress_delta : float option;
}

type request = Submit of job_spec | Stats | Ping

type job_summary = {
  job_id : string;
  outcome : string;
  stopped_by : string option;
  quarantined : int;
  total : int;
  elapsed_s : float;
  seq : int;
}

type response =
  | Accepted of { job_id : string; position : int }
  | Overloaded of { job_id : string; pending : int; capacity : int }
  | Duplicate of { job_id : string }
  | Rejected of { job_id : string; reason : string }
  | Results of { job_id : string; patterns : (int list * int) list; seq : int }
  | Job_done of job_summary
  | Stats_frame of (string * int) list
  | Pong
  | Error_frame of string

let valid_job_id id =
  let n = String.length id in
  n >= 1 && n <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       id

(* --- byte-level I/O, EINTR-safe --- *)

let rec write_all fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len

(* [false] only on EOF before the first byte; a read timeout (SO_RCVTIMEO
   makes the read fail with EAGAIN) becomes Protocol_error so callers
   under timeout discipline cannot hang. *)
let read_into fd b len =
  let rec go off =
    if off >= len then true
    else
      match Unix.read fd b off (len - off) with
      | 0 ->
        if off = 0 then false
        else raise (Protocol_error "connection closed mid-frame")
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        raise (Protocol_error "read timeout")
  in
  go 0

let read_exact fd len =
  let b = Bytes.create len in
  if read_into fd b len then Some b else None

let put_u32 b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let get_u32 b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let write_frame ?(fire_fault = false) fd payload =
  if fire_fault then Budget.Fault.fire Budget.Fault.Socket_write;
  let len = String.length payload in
  if len > max_frame_bytes then
    raise (Protocol_error (Printf.sprintf "frame too large (%d bytes)" len));
  let buf = Bytes.create (8 + len) in
  put_u32 buf 0 len;
  put_u32 buf 4 (Checkpoint.crc32 payload);
  Bytes.blit_string payload 0 buf 8 len;
  write_all fd buf 0 (8 + len)

let read_frame fd =
  match read_exact fd 8 with
  | None -> None
  | Some hdr ->
    let len = get_u32 hdr 0 in
    let crc = get_u32 hdr 4 in
    if len > max_frame_bytes then
      raise (Protocol_error (Printf.sprintf "frame too large (%d bytes)" len));
    let payload =
      match read_exact fd len with
      | Some b -> Bytes.unsafe_to_string b
      | None -> raise (Protocol_error "connection closed mid-frame")
    in
    if Checkpoint.crc32 payload <> crc then
      raise (Protocol_error "frame CRC mismatch");
    Some payload

let hello = magic ^ String.make 1 (Char.chr version)

let send_hello fd = write_all fd (Bytes.of_string hello) 0 (String.length hello)

let read_hello fd =
  match read_exact fd (String.length hello) with
  | Some b -> Bytes.to_string b = hello
  | None -> false
  | exception Protocol_error _ -> false

(* --- payload codecs --- *)

let request_to_string (r : request) = Marshal.to_string r []
let response_to_string (r : response) = Marshal.to_string r []

let request_of_string s : request =
  try Marshal.from_string s 0
  with _ -> raise (Protocol_error "undecodable request payload")

let response_of_string s : response =
  try Marshal.from_string s 0
  with _ -> raise (Protocol_error "undecodable response payload")
