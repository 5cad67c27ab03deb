(* Shared qcheck generators and printers for the property-test suites. *)

open Rgs_sequence
open Rgs_core

let sequence ~alphabet ~max_len =
  QCheck2.Gen.(
    list_size (int_bound max_len) (int_bound (alphabet - 1)) >|= Sequence.of_list)

let db ~num_seqs ~alphabet ~max_len =
  QCheck2.Gen.(
    list_size (int_range 1 num_seqs) (sequence ~alphabet ~max_len)
    >|= Seqdb.of_sequences)

let pattern ~alphabet ~max_len =
  QCheck2.Gen.(
    list_size (int_range 1 max_len) (int_bound (alphabet - 1)) >|= Pattern.of_list)

(* Adversarial root skew for the shard tier and the chaos sweep: one
   dominant event (0) makes up most of every sequence, so virtually the
   whole DFS lives under a single root — per-root scheduling degenerates
   to one busy domain while the others finish early, the worst case for
   the pool's claim, retry and merge bookkeeping. *)
let skewed_db ~num_seqs ~alphabet ~len =
  QCheck2.Gen.(
    let skewed_event =
      int_bound 99 >>= fun r ->
      if r < 80 || alphabet <= 1 then return 0
      else int_range 1 (alphabet - 1)
    in
    list_size (int_range 1 num_seqs)
      (list_size (return len) skewed_event >|= Sequence.of_list)
    >|= Seqdb.of_sequences)

let print_db d = Format.asprintf "%a" Seqdb.pp d

(* Pack [db] and re-open it mapped. The temp file is unlinked immediately:
   on Linux the mapping outlives the directory entry, which also checks
   that nothing in the index re-opens the path. *)
let mapped_db db =
  let path = Filename.temp_file "rgs_mapped" ".rgsdb" in
  Rgs_store.Store.write ~path db;
  let sdb, _ = Rgs_store.Store.open_db path in
  Sys.remove path;
  sdb

let print_db_pattern (d, p) =
  Printf.sprintf "db:\n%s\npattern: %s" (print_db d) (Pattern.to_string p)

let make ~name ~count gen print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen prop)

(* The two ways the suites run a mine: [Engine.mine] under a strategy
   (CloGSgrow's with both checks on is [closed]), and the Miner root pool
   ([pool], the body behind every [domains] run). *)
let closed = Clogsgrow.strategy ~use_lb_check:true ~use_c_check:true

let pool ?(mode = Miner.All) ?max_length ?max_gap ?shards ?trace ~domains idx
    ~min_sup =
  Miner.mine_indexed ?trace
    (Miner.config ~mode ?max_length ?max_gap ?shards ~domains ~min_sup ())
    idx

(* Byte-level mutations of a codec payload, shared by the decoder
   mutation properties (checkpoint records, support sets, worker
   frames). [Frame_lie] leaves the payload alone: it is for suites that
   also write the frame header. *)
type mutation =
  | Flip of int * int  (* byte index, bit *)
  | Truncate of int  (* keep this many bytes *)
  | Count_lie of int * int  (* overwrite a byte with a varint of this value *)
  | Overlong of int  (* re-encode a varint's final byte in two bytes *)
  | Splice of int * int  (* insert a byte *)
  | Frame_lie of int  (* the frame header's length field differs by this *)

let print_mutation (i, m) =
  Printf.sprintf "payload %d, %s" i
    (match m with
    | Flip (at, bit) -> Printf.sprintf "flip byte %d bit %d" at bit
    | Truncate k -> Printf.sprintf "truncate to %d" k
    | Count_lie (at, v) -> Printf.sprintf "varint %d at byte %d" v at
    | Overlong at -> Printf.sprintf "overlong varint at byte %d" at
    | Splice (at, c) -> Printf.sprintf "insert %d at byte %d" c at
    | Frame_lie d -> Printf.sprintf "frame length off by %d" d)

let gen_mutation =
  let open QCheck2.Gen in
  let pos = int_bound 1_000_000 in
  pair (int_bound 1_000)
    (oneof
       [
         map2 (fun at bit -> Flip (at, bit)) pos (int_bound 7);
         map (fun k -> Truncate k) pos;
         map2
           (fun at v -> Count_lie (at, v))
           pos
           (oneof [ int_range 2 300; map (fun e -> 1 lsl e) (int_range 8 62) ]);
         map (fun at -> Overlong at) pos;
         map2 (fun at c -> Splice (at, c)) pos (int_bound 255);
         map (fun d -> if d = 0 then Frame_lie 1 else Frame_lie d) (int_range (-8) 8);
       ])

let apply_mutation payload = function
  | Flip (at, bit) ->
    let b = Bytes.of_string payload in
    let at = at mod Bytes.length b in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor (1 lsl bit)));
    Bytes.to_string b
  | Truncate k -> String.sub payload 0 (k mod String.length payload)
  | Count_lie (at, v) ->
    let at = at mod String.length payload in
    let buf = Buffer.create 10 in
    let rec put v =
      if v lsr 7 = 0 then Buffer.add_char buf (Char.chr v)
      else begin
        Buffer.add_char buf (Char.chr (v land 0x7F lor 0x80));
        put (v lsr 7)
      end
    in
    put v;
    String.sub payload 0 at ^ Buffer.contents buf
    ^ String.sub payload (at + 1) (String.length payload - at - 1)
  | Overlong at ->
    (* the first byte at or after [at] that ends a varint (high bit
       clear) gains a continuation bit and a zero byte: same value,
       one byte longer *)
    let n = String.length payload in
    let rec final k =
      if k >= n then None
      else if Char.code payload.[k] land 0x80 = 0 then Some k
      else final (k + 1)
    in
    (match final (at mod n) with
    | None -> payload
    | Some k ->
      String.sub payload 0 k
      ^ String.make 1 (Char.chr (Char.code payload.[k] lor 0x80))
      ^ "\000"
      ^ String.sub payload (k + 1) (n - k - 1))
  | Splice (at, c) ->
    let at = at mod (String.length payload + 1) in
    String.sub payload 0 at ^ String.make 1 (Char.chr c)
    ^ String.sub payload at (String.length payload - at)
  | Frame_lie _ -> payload
