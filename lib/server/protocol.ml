open Rgs_sequence

let magic = "RGSD"
let version = 3

exception Protocol_error = Wire.Frame_error

type format = Seq_io.format = Tokens | Chars | Spmf

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

let hello = magic ^ String.make 1 (Char.chr version)

let send_hello fd = Wire.write_all fd (Bytes.of_string hello) 0 (String.length hello)

let read_hello fd =
  let b = Bytes.create (String.length hello) in
  match Wire.read_into fd b (Bytes.length b) with
  | got -> got && Bytes.to_string b = hello
  | exception (Wire.Frame_error _ | Wire.Timeout) -> false

(* --- payload codec (FORMAT.md Appendix C) ---

   Integer fields are zigzag varints ([Wire.put_int]); tags, codes,
   flags, counts and lengths are unsigned ([Wire.put_uint]). [*_bound]
   is an upper bound on a payload's size, counting [Wire.varint_max]
   bytes for every integer, tag, flag and float (a float takes 8) plus
   each string's bytes; [put_*] writes the payload from [o] and returns
   the offset past it. The decoder is [Wire]'s bounded cursor, so every
   failure is [Invalid_argument] until the entry points name it
   [Protocol_error]. *)
let v = Wire.varint_max
let str s = v + String.length s

let put_opt put b o = function
  | None -> Wire.put_uint b o 0
  | Some x -> put b (Wire.put_uint b o 1) x

let put_list put b o l = List.fold_left (put b) (Wire.put_uint b o (List.length l)) l
let format_code = function Tokens -> 0 | Chars -> 1 | Spmf -> 2

let spec_bound (s : job_spec) =
  let (Inline { text = db; _ } | File { path = db; _ }) = s.db in
  let events = match s.query with Q_target l -> List.length l | Q_all | Q_top_k _ -> 0 in
  (v * (19 + events)) + str s.job_id + str db

let put_spec (s : job_spec) b o =
  let o = Wire.put_string b o s.job_id in
  let o =
    match s.db with
    | Inline { format; text } ->
      Wire.put_string b (Wire.put_uint b (Wire.put_uint b o 1) (format_code format)) text
    | File { format; path } ->
      Wire.put_string b (Wire.put_uint b (Wire.put_uint b o 2) (format_code format)) path
  in
  let o = Wire.put_int b o s.min_sup in
  let o = Wire.put_uint b o (match s.mode with All -> 0 | Closed -> 1) in
  let o = put_opt Wire.put_int b o s.max_length in
  let o = put_opt Wire.put_int b o s.max_gap in
  let o = put_opt Wire.put_float b o s.deadline_s in
  let o = put_opt Wire.put_int b o s.max_nodes in
  let o = put_opt Wire.put_int b o s.max_words in
  let o =
    match s.query with
    | Q_all -> Wire.put_uint b o 1
    | Q_target evs -> put_list Wire.put_int b (Wire.put_uint b o 2) evs
    | Q_top_k k -> Wire.put_int b (Wire.put_uint b o 3) k
  in
  put_opt Wire.put_float b o s.compress_delta

let request_bound = function Submit s -> v + spec_bound s | Stats | Ping -> v

let put_request (r : request) b o =
  match r with
  | Submit s -> put_spec s b (Wire.put_uint b o 1)
  | Stats -> Wire.put_uint b o 2
  | Ping -> Wire.put_uint b o 3

let response_bound = function
  | Accepted { job_id; _ } | Duplicate { job_id } -> (2 * v) + str job_id
  | Overloaded { job_id; _ } -> (3 * v) + str job_id
  | Rejected { job_id; reason } -> v + str job_id + str reason
  | Results { job_id; patterns; _ } ->
    List.fold_left
      (fun n (p, _) -> n + (v * (2 + List.length p)))
      ((3 * v) + str job_id)
      patterns
  | Job_done d ->
    (6 * v) + str d.job_id + str d.outcome
    + Option.fold ~none:0 ~some:str d.stopped_by
  | Stats_frame l -> List.fold_left (fun n (k, _) -> n + v + str k) (2 * v) l
  | Pong -> v
  | Error_frame m -> v + str m

let put_row b o (p, sup) = Wire.put_int b (put_list Wire.put_int b o p) sup
let put_stat b o (k, n) = Wire.put_int b (Wire.put_string b o k) n

let put_response (r : response) b o =
  let tag = Wire.put_uint b o in
  match r with
  | Accepted { job_id; position } -> Wire.put_int b (Wire.put_string b (tag 1) job_id) position
  | Overloaded { job_id; pending; capacity } ->
    let o = Wire.put_string b (tag 2) job_id in
    Wire.put_int b (Wire.put_int b o pending) capacity
  | Duplicate { job_id } -> Wire.put_string b (tag 3) job_id
  | Rejected { job_id; reason } -> Wire.put_string b (Wire.put_string b (tag 4) job_id) reason
  | Results { job_id; patterns; seq } ->
    let o = Wire.put_string b (tag 5) job_id in
    Wire.put_int b (put_list put_row b o patterns) seq
  | Job_done d ->
    let o = Wire.put_string b (tag 6) d.job_id in
    let o = Wire.put_string b o d.outcome in
    let o = put_opt Wire.put_string b o d.stopped_by in
    let o = Wire.put_int b o d.quarantined in
    let o = Wire.put_int b o d.total in
    let o = Wire.put_float b o d.elapsed_s in
    Wire.put_int b o d.seq
  | Stats_frame l -> put_list put_stat b (tag 7) l
  | Pong -> tag 8
  | Error_frame m -> Wire.put_string b (tag 9) m

(* Decoders bind every field with [let], in wire order: a record's
   fields are evaluated in no fixed order. *)
let get_opt get c = if Wire.get_flag c then Some (get c) else None
let get_list get c = List.init (Wire.get_count c) (fun _ -> get c)

let get_format c =
  match Wire.get_uint c with
  | 0 -> Tokens
  | 1 -> Chars
  | 2 -> Spmf
  | _ -> invalid_arg "unknown format code"

let get_spec c =
  let job_id = Wire.get_string c in
  let db =
    match Wire.get_uint c with
    | 1 ->
      let format = get_format c in
      Inline { format; text = Wire.get_string c }
    | 2 ->
      let format = get_format c in
      File { format; path = Wire.get_string c }
    | _ -> invalid_arg "unknown db source tag"
  in
  let min_sup = Wire.get_int c in
  let mode =
    match Wire.get_uint c with 0 -> All | 1 -> Closed | _ -> invalid_arg "unknown mode code"
  in
  let max_length = get_opt Wire.get_int c in
  let max_gap = get_opt Wire.get_int c in
  let deadline_s = get_opt Wire.get_float c in
  let max_nodes = get_opt Wire.get_int c in
  let max_words = get_opt Wire.get_int c in
  let query =
    match Wire.get_uint c with
    | 1 -> Q_all
    | 2 -> Q_target (get_list Wire.get_int c)
    | 3 -> Q_top_k (Wire.get_int c)
    | _ -> invalid_arg "unknown query tag"
  in
  let compress_delta = get_opt Wire.get_float c in
  {
    job_id;
    db;
    min_sup;
    mode;
    max_length;
    max_gap;
    deadline_s;
    max_nodes;
    max_words;
    query;
    compress_delta;
  }

let get_request c =
  match Wire.get_uint c with
  | 1 -> Submit (get_spec c)
  | 2 -> Stats
  | 3 -> Ping
  | _ -> invalid_arg "unknown request tag"

let get_row c =
  let p = get_list Wire.get_int c in
  (p, Wire.get_int c)

let get_stat c =
  let k = Wire.get_string c in
  (k, Wire.get_int c)

let get_response c =
  match Wire.get_uint c with
  | 1 ->
    let job_id = Wire.get_string c in
    Accepted { job_id; position = Wire.get_int c }
  | 2 ->
    let job_id = Wire.get_string c in
    let pending = Wire.get_int c in
    Overloaded { job_id; pending; capacity = Wire.get_int c }
  | 3 -> Duplicate { job_id = Wire.get_string c }
  | 4 ->
    let job_id = Wire.get_string c in
    Rejected { job_id; reason = Wire.get_string c }
  | 5 ->
    let job_id = Wire.get_string c in
    let patterns = get_list get_row c in
    Results { job_id; patterns; seq = Wire.get_int c }
  | 6 ->
    let job_id = Wire.get_string c in
    let outcome = Wire.get_string c in
    let stopped_by = get_opt Wire.get_string c in
    let quarantined = Wire.get_int c in
    let total = Wire.get_int c in
    let elapsed_s = Wire.get_float c in
    Job_done { job_id; outcome; stopped_by; quarantined; total; elapsed_s; seq = Wire.get_int c }
  | 7 -> Stats_frame (get_list get_stat c)
  | 8 -> Pong
  | 9 -> Error_frame (Wire.get_string c)
  | _ -> invalid_arg "unknown response tag"

let of_string what get s =
  match Wire.decode get s ~off:0 ~len:(String.length s) with
  | m -> m
  | exception Invalid_argument msg ->
    raise (Protocol_error (Printf.sprintf "undecodable %s payload: %s" what msg))

let request_to_string r = Wire.encode ~bound:(request_bound r) (put_request r)
let response_to_string r = Wire.encode ~bound:(response_bound r) (put_response r)
let request_of_string s = of_string "request" get_request s
let response_of_string s = of_string "response" get_response s

(* --- frames on a [Wire] connection --- *)

let send_request c r = ignore (Wire.send c ~bound:(request_bound r) (put_request r))
let send_response c r = ignore (Wire.send c ~bound:(response_bound r) (put_response r))

(* a receive timeout is reported as [Protocol_error] so a client under
   timeout discipline cannot hang *)
let recv_response c =
  match Wire.recv c (Wire.decode get_response) with
  | None -> None
  | Some (r, _) -> Some r
  | exception Wire.Timeout -> raise (Protocol_error "read timeout")
