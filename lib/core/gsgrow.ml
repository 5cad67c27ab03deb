exception Budget_exhausted = Engine.Budget_exhausted

(* GSgrow is the engine with plain instance growth and no closure
   machinery: every frequent node emits its pattern. *)
let strategy =
  { Engine.name = "Gsgrow"; grow = Support_set.grow; closure = None }

let run ?max_length ?events ?roots ?should_stop ?budget ?trace ?shards idx
    ~min_sup ~emit =
  let strategy =
    match shards with
    | None -> strategy
    | Some sm -> Shard_merge.strategy ?trace sm strategy
  in
  Engine.run ?max_length ?events ?roots ?should_stop ?budget ?trace strategy
    idx ~min_sup ~emit

let mine ?max_length ?max_patterns ?events ?roots ?should_stop ?budget ?trace
    ?shards idx ~min_sup =
  let results = ref [] in
  let count = ref 0 in
  let emit r =
    results := r :: !results;
    incr count;
    match max_patterns with
    | Some budget when !count >= budget -> raise Budget_exhausted
    | _ -> ()
  in
  let stats =
    run ?max_length ?events ?roots ?should_stop ?budget ?trace ?shards idx
      ~min_sup ~emit
  in
  (List.rev !results, stats)

let iter ?max_length ?events ?roots ?should_stop ?budget ?trace ?shards idx
    ~min_sup ~f =
  run ?max_length ?events ?roots ?should_stop ?budget ?trace ?shards idx
    ~min_sup ~emit:f
