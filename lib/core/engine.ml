open Rgs_sequence

type closure_spec = {
  check :
    pattern:Pattern.t ->
    support_set:Support_set.t ->
    prefix_rev_chain:Support_set.t list ->
    Closure.verdict;
  detect_equal_append : bool;
}

type strategy = {
  name : string;
  grow : Inverted_index.t -> Support_set.t -> Event.t -> Support_set.t;
  closure :
    (Inverted_index.t -> events:Event.t list -> trace:Trace.t -> closure_spec)
    option;
}

type stats = {
  emitted : int;
  dfs_nodes : int;
  insgrow_calls : int;
  lb_pruned : int;
  non_closed_dropped : int;
  query_cuts : int;
  floor_prunes : int;
  truncated : bool;
  outcome : Budget.outcome;
}

exception Budget_exhausted

(* --- the DFS ---

   The search is split into a per-run [ctx] (strategy, query plan, limits,
   counters) and a per-node [frame] (pattern, support set, query state,
   prefix chain). [run] builds one [ctx] and walks each root's subtree
   with [run_frame]. *)

type ctx = {
  strategy : strategy;
  idx : Inverted_index.t;
  min_sup : int;
  max_length : int option;
  events : Event.t list;
  plan : Query.plan;
  closure : closure_spec option;
  budget : Budget.t option;
  trace : Trace.t;
  emitted : int ref;
  dfs_nodes : int ref;
  insgrow_calls : int ref;
  lb_pruned : int ref;
  non_closed_dropped : int ref;
  query_cuts : int ref;
  floor_prunes : int ref;
}

type frame = {
  f_pattern : Pattern.t;
  f_support : Support_set.t;
  f_qstate : int;
  f_rev_chain : Support_set.t list;
}

let within_length c p =
  match c.max_length with None -> true | Some l -> Pattern.length p < l

(* Child admission, for roots and extensions alike: the support size against
   the plan's floor. Children in the band [min_sup <= size < floor ()]
   are sound frequent extensions removed only by the dynamic floor; they
   are counted apart from the static Apriori rejections so top-k savings
   stay visible. *)
let admit c ~depth' size =
  if size >= c.plan.Query.floor () then `Recurse
  else begin
    if size >= c.min_sup then begin
      incr c.floor_prunes;
      Trace.instant c.trace Trace.Query_cut ~a0:depth' ~a1:1
    end;
    `Skip
  end

(* node entry: budget check, node count, [Node] instant *)
let enter c f =
  (match c.budget with Some b -> Budget.check b | None -> ());
  incr c.dfs_nodes;
  let sup = Support_set.size f.f_support in
  Trace.instant c.trace Trace.Node ~a0:(Pattern.length f.f_pattern) ~a1:sup;
  sup

let emit_node c ~emit f sup =
  if c.plan.Query.emit_ok ~state:f.f_qstate then begin
    incr c.emitted;
    emit { Mined.pattern = f.f_pattern; support = sup }
  end

let grow_child c i e =
  incr c.insgrow_calls;
  Budget.Fault.fire Budget.Fault.Insgrow;
  c.strategy.grow c.idx i e

let rec run_frame c ~emit f =
  let sup_p = enter c f in
  let p = f.f_pattern and i = f.f_support and qstate = f.f_qstate in
  match c.closure with
  | None ->
    emit_node c ~emit f sup_p;
    if within_length c p then begin
      let depth' = Pattern.length p + 1 in
      let recursed = ref 0 in
      List.iter
        (fun e ->
          let qstate' = c.plan.Query.child_state qstate e in
          if c.plan.Query.cut ~state:qstate' ~depth:depth' then begin
            incr c.query_cuts;
            Trace.instant c.trace Trace.Query_cut ~a0:depth' ~a1:0
          end
          else begin
            let i_plus = grow_child c i e in
            match admit c ~depth' (Support_set.size i_plus) with
            | `Recurse ->
              incr recursed;
              run_frame c ~emit
                {
                  f_pattern = Pattern.grow p e;
                  f_support = i_plus;
                  f_qstate = qstate';
                  f_rev_chain = i_plus :: f.f_rev_chain;
                }
            | `Skip -> ()
          end)
        c.events;
      Trace.instant c.trace Trace.Extension ~a0:(Pattern.length p) ~a1:!recursed
    end
  | Some cl ->
    (* Prunability does not depend on the appended extensions (an append
       always shifts the landmark border right), so the closure check
       runs first: a pruned subtree never pays for its appends. *)
    let verdict =
      cl.check ~pattern:p ~support_set:i ~prefix_rev_chain:f.f_rev_chain
    in
    if verdict.Closure.prunable then begin
      incr c.lb_pruned;
      Trace.instant c.trace Trace.Lb_prune ~a0:(Pattern.length p) ~a1:sup_p
    end
    else begin
      (* All appends are materialised even under a query: closedness of
         [p] depends on whether {e some} candidate append has equal
         support, so the query may only cut recursion, not growth. *)
      let appends = List.map (fun e -> (e, grow_child c i e)) c.events in
      let has_equal_append =
        cl.detect_equal_append
        && List.exists (fun (_, i') -> Support_set.size i' = sup_p) appends
      in
      if verdict.Closure.closed && not has_equal_append then
        emit_node c ~emit f sup_p
      else incr c.non_closed_dropped;
      if within_length c p then begin
        let depth' = Pattern.length p + 1 in
        let recursed = ref 0 in
        List.iter
          (fun (e, i_plus) ->
            let qstate' = c.plan.Query.child_state qstate e in
            if c.plan.Query.cut ~state:qstate' ~depth:depth' then begin
              incr c.query_cuts;
              Trace.instant c.trace Trace.Query_cut ~a0:depth' ~a1:0
            end
            else
              match admit c ~depth' (Support_set.size i_plus) with
              | `Recurse ->
                incr recursed;
                run_frame c ~emit
                  {
                    f_pattern = Pattern.grow p e;
                    f_support = i_plus;
                    f_qstate = qstate';
                    f_rev_chain = i_plus :: f.f_rev_chain;
                  }
              | `Skip -> ())
          appends;
        Trace.instant c.trace Trace.Extension ~a0:(Pattern.length p)
          ~a1:!recursed
      end
    end

let finish c ~outcome =
  Metrics.add Metrics.dfs_nodes !(c.dfs_nodes);
  Metrics.add Metrics.patterns_emitted !(c.emitted);
  Metrics.add Metrics.lb_prunes !(c.lb_pruned);
  Metrics.add Metrics.query_targeted_cuts !(c.query_cuts);
  Metrics.add Metrics.query_floor_prunes !(c.floor_prunes);
  {
    emitted = !(c.emitted);
    dfs_nodes = !(c.dfs_nodes);
    insgrow_calls = !(c.insgrow_calls);
    lb_pruned = !(c.lb_pruned);
    non_closed_dropped = !(c.non_closed_dropped);
    query_cuts = !(c.query_cuts);
    floor_prunes = !(c.floor_prunes);
    truncated = Budget.is_stop outcome;
    outcome;
  }

let run ?max_length ?events ?roots ?budget ?(trace = Trace.null) ?plan strategy
    idx ~min_sup ~emit =
  if min_sup < 1 then invalid_arg (strategy.name ^ ": min_sup must be >= 1");
  let events =
    match events with
    | Some es -> es
    | None -> Inverted_index.frequent_events idx ~min_sup
  in
  let plan = match plan with Some p -> p | None -> Query.trivial ~min_sup in
  let c =
    {
      strategy;
      idx;
      min_sup;
      max_length;
      events;
      plan;
      closure = Option.map (fun mk -> mk idx ~events ~trace) strategy.closure;
      budget;
      trace;
      emitted = ref 0;
      dfs_nodes = ref 0;
      insgrow_calls = ref 0;
      lb_pruned = ref 0;
      non_closed_dropped = ref 0;
      query_cuts = ref 0;
      floor_prunes = ref 0;
    }
  in
  let roots = match roots with Some rs -> rs | None -> events in
  (* a root gets the same query cut and floor admission as any child *)
  let mine_root e =
    let qstate = plan.Query.root_state e in
    if plan.Query.cut ~state:qstate ~depth:1 then begin
      incr c.query_cuts;
      Trace.instant trace Trace.Query_cut ~a0:1 ~a1:0
    end
    else begin
      let i = Support_set.of_event idx e in
      match admit c ~depth':1 (Support_set.size i) with
      | `Skip -> ()
      | `Recurse ->
        let t0 = Trace.now trace in
        let before = !(c.emitted) in
        let finish_span () =
          Trace.span trace Trace.Root ~a0:e ~a1:(!(c.emitted) - before)
            ~start:t0
        in
        (match
           run_frame c ~emit
             {
               f_pattern = Pattern.of_list [ e ];
               f_support = i;
               f_qstate = qstate;
               f_rev_chain = [ i ];
             }
         with
        | () -> finish_span ()
        | exception ex ->
          finish_span ();
          raise ex)
    end
  in
  let stopped outcome =
    Metrics.hit Metrics.budget_stops;
    Trace.instant trace Trace.Budget_stop ~a0:(Budget.severity outcome) ~a1:0;
    outcome
  in
  let outcome =
    match List.iter mine_root roots with
    | () -> Budget.Completed
    | exception Budget_exhausted -> stopped Budget.Truncated
    | exception Budget.Stop reason -> stopped reason
  in
  finish c ~outcome

let mine ?max_length ?events ?roots ?budget ?trace ?plan strategy idx ~min_sup =
  let results = ref [] in
  let stats =
    run ?max_length ?events ?roots ?budget ?trace ?plan strategy idx ~min_sup
      ~emit:(fun r -> results := r :: !results)
  in
  (List.rev !results, stats)
