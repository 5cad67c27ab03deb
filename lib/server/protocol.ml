open Rgs_sequence
open Rgs_core

let magic = "RGSD"
let version = 2

exception Protocol_error = Wire.Frame_error

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

(* --- frames: [Wire]'s header --- *)

let write_frame ?(fire_fault = false) fd payload =
  if fire_fault then Budget.Fault.fire Budget.Fault.Socket_write;
  let len = String.length payload in
  let buf = Bytes.create (Wire.header_bytes + len) in
  Bytes.blit_string payload 0 buf Wire.header_bytes len;
  Wire.write_frame fd buf ~len

(* a receive timeout is reported as [Protocol_error] so a client under
   timeout discipline cannot hang; a fresh buffer grown to exactly the
   payload becomes the string without a copy *)
let read_frame fd =
  let buf = ref Bytes.empty in
  match Wire.read_frame fd buf with
  | None -> None
  | Some len when len = Bytes.length !buf -> Some (Bytes.unsafe_to_string !buf)
  | Some len -> Some (Bytes.sub_string !buf 0 len)
  | exception Wire.Timeout -> raise (Protocol_error "read timeout")

let hello = magic ^ String.make 1 (Char.chr version)

let send_hello fd = Wire.write_all fd (Bytes.of_string hello) 0 (String.length hello)

let read_hello fd =
  let b = Bytes.create (String.length hello) in
  match Wire.read_into fd b (Bytes.length b) with
  | got -> got && Bytes.to_string b = hello
  | exception (Wire.Frame_error _ | Wire.Timeout) -> false

(* --- payload codecs --- *)

let request_to_string (r : request) = Marshal.to_string r []
let response_to_string (r : response) = Marshal.to_string r []

let request_of_string s : request =
  try Marshal.from_string s 0
  with _ -> raise (Protocol_error "undecodable request payload")

let response_of_string s : response =
  try Marshal.from_string s 0
  with _ -> raise (Protocol_error "undecodable response payload")
