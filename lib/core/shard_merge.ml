open Rgs_sequence

type dispatch =
  ranges:(int * int) array ->
  (Inverted_index.t -> Support_set.t -> Event.t -> Support_set.t) ->
  Inverted_index.t ->
  Support_set.t ->
  Event.t ->
  Support_set.t array

type t = { ranges : (int * int) array; dispatch : dispatch }

let make ~dispatch db ~shards = { ranges = Seqdb.shard db shards; dispatch }
let ranges t = t.ranges
let num_shards t = Array.length t.ranges

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* INSgrow (Algorithm 2) extends each per-sequence group independently:
   the grown group of S_i depends only on S_i's instances and S_i's index
   column. So growing a slice equals slicing the grown whole, and the
   per-shard results partition the full result's groups — [combine] just
   reassembles them in ascending-sequence order. The differential check
   in [strategy ~verify:true] and the [@shards] suite pin this down. *)
let grow t ?(trace = Trace.null) base idx s e =
  let n = Array.length t.ranges in
  let parts = t.dispatch ~ranges:t.ranges base idx s e in
  if Array.length parts <> n then
    invalid_arg "Shard_merge.grow: dispatch returned wrong shard count";
  (* a cancellation raised here lands between the per-shard grows and
     the merge — the site the chaos harness attacks *)
  Budget.Fault.fire Budget.Fault.Shard_merge;
  let t0 = now_ns () in
  let merged = Array.fold_left Support_set.combine Support_set.empty parts in
  let dt = now_ns () - t0 in
  Metrics.add Metrics.shard_merge_ns dt;
  Trace.instant trace Trace.Shard_merge ~a0:n ~a1:(dt / 1000);
  merged

let strategy ?(verify = false) ?trace t (base : Engine.strategy) =
  let grow_sharded idx s e =
    let merged = grow t ?trace base.Engine.grow idx s e in
    if verify then begin
      let whole = base.Engine.grow idx s e in
      if not (Support_set.equal merged whole) then
        failwith
          (base.Engine.name
         ^ ": sharded grow diverged from unsharded grow (Shard_merge)")
    end;
    merged
  in
  { base with Engine.grow = grow_sharded }
