open Rgs_sequence
open Rgs_core
open Rgs_datagen

type run = {
  elapsed_s : float;
  patterns : int;
  timed_out : bool;
}

(* Ambient trace for the experiment drivers: the sweeps thread dozens of
   timed runs through here, so the CLI sets one trace for the whole
   invocation instead of threading ?trace through every sweep signature. *)
let ambient_trace = ref Trace.null
let set_trace t = ambient_trace := t
let trace () = !ambient_trace

(* One budgeted engine run that counts answers without materialising
   them; the budget's deadline is the experiment's cut-off. *)
let timed_run ?timeout_s ?max_length strategy idx ~min_sup =
  let start = Unix.gettimeofday () in
  let budget = Budget.create ?deadline_s:timeout_s () in
  let stats =
    Engine.run ?max_length ~budget ~trace:(trace ()) strategy idx ~min_sup
      ~emit:ignore
  in
  {
    elapsed_s = Unix.gettimeofday () -. start;
    patterns = stats.Engine.emitted;
    timed_out = Budget.is_stop stats.Engine.outcome;
  }

let run_gsgrow ?timeout_s ?max_length idx ~min_sup =
  timed_run ?timeout_s ?max_length Gsgrow.strategy idx ~min_sup

let run_clogsgrow ?timeout_s ?max_length ?(use_lb_check = true)
    ?(use_c_check = true) idx ~min_sup =
  timed_run ?timeout_s ?max_length
    (Clogsgrow.strategy ~use_lb_check ~use_c_check)
    idx ~min_sup

let time f =
  let start = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. start)

let pp_run ppf r =
  Format.fprintf ppf "%.3fs / %d patterns%s" r.elapsed_s r.patterns
    (if r.timed_out then " (timeout)" else "")

let quest_d5c20n10s20 ?(scale = 1.0) ?(seed = 42) () =
  Quest_gen.generate
    (Quest_gen.params ~d:(max 1 (int_of_float (5000. *. scale))) ~c:20 ~n:10000
       ~s:20 ~seed ())

let gazelle_like ?(scale = 1.0) ?(seed = 42) () =
  Clickstream_gen.generate (Clickstream_gen.gazelle_like ~scale ~seed ())

let tcas_like ?(scale = 1.0) ?(seed = 42) () =
  Trace_gen.generate (Trace_gen.tcas_like ~scale ~seed ())

let jboss_like ?(seed = 42) () = Jboss_gen.generate (Jboss_gen.params ~seed ())
