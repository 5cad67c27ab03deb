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
