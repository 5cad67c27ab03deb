open Rgs_sequence

type entry = {
  variant : string;
  elapsed_s : float;
  patterns : int;
  timed_out : bool;
}

let run ?(timeout_s = 60.) db ~min_sup =
  let idx = Inverted_index.build db in
  let entry variant (r : Exp_common.run) =
    {
      variant;
      elapsed_s = r.Exp_common.elapsed_s;
      patterns = r.Exp_common.patterns;
      timed_out = r.Exp_common.timed_out;
    }
  in
  (* Post-hoc alternative: mine everything with GSgrow, then filter
     non-closed patterns; only correct when GSgrow finished. *)
  let post_filter_entry =
    let start = Unix.gettimeofday () in
    let budget = Rgs_core.Budget.create ~deadline_s:timeout_s () in
    let results, stats =
      Rgs_core.Engine.mine ~budget Rgs_core.Gsgrow.strategy idx ~min_sup
    in
    let timed_out = Rgs_core.Budget.is_stop stats.Rgs_core.Engine.outcome in
    let closed =
      if timed_out then [] else Rgs_post.Filters.closed_filter results
    in
    {
      variant = "GSgrow + post-hoc closed filter";
      elapsed_s = Unix.gettimeofday () -. start;
      patterns = List.length closed;
      timed_out;
    }
  in
  (* Levelwise baseline: same output as GSgrow but recomputing supports
     with supComp instead of growing instances — ablates instance growth
     itself. *)
  let levelwise_entry =
    let start = Unix.gettimeofday () in
    let calls = ref 0 in
    let should_stop () =
      incr calls;
      !calls land 0x3F = 0 && Unix.gettimeofday () -. start > timeout_s
    in
    let results, stats = Rgs_baselines.Levelwise.mine ~should_stop idx ~min_sup in
    {
      variant = "Levelwise Apriori (supComp per candidate)";
      elapsed_s = Unix.gettimeofday () -. start;
      patterns = List.length results;
      timed_out = stats.Rgs_baselines.Levelwise.truncated;
    }
  in
  [
    entry "CloGSgrow (CCheck + LBCheck)"
      (Exp_common.run_clogsgrow ~timeout_s idx ~min_sup);
    entry "CloGSgrow, no LBCheck (CCheck only)"
      (Exp_common.run_clogsgrow ~timeout_s ~use_lb_check:false idx ~min_sup);
    entry "GSgrow (no checks, all patterns)"
      (Exp_common.run_gsgrow ~timeout_s idx ~min_sup);
    post_filter_entry;
    levelwise_entry;
  ]

let report entries =
  let t = Rgs_post.Report.create ~columns:[ "variant"; "time_s"; "patterns" ] in
  List.iter
    (fun e ->
      Rgs_post.Report.add_row t
        [
          e.variant;
          Rgs_post.Report.cell_float e.elapsed_s ^ (if e.timed_out then "+" else "");
          string_of_int e.patterns ^ (if e.timed_out then "+" else "");
        ])
    entries;
  t
