(** Minimal ASCII charts for the experiments harness.

    The paper's figures are log-scale plots; the harness prints tables plus
    these bar renderings so trends (cut-offs, orders of magnitude) are
    visible at a glance in plain text output. *)

type series = {
  label : string;
  points : (string * float option) list;
      (** [(x tick, value)]; [None] renders as a blank (skipped run) *)
}

val render : ?width:int -> ?log_scale:bool -> title:string -> series list -> string
(** Renders the series side by side, one row per x tick:
    {v
    runtime (log scale)
    min_sup  All                  Closed
    200      ######----           ##
    100                           ###
    v}
    Bars are scaled to [width] (default 24) columns against the maximum
    value across all series; with [log_scale] (default true) the bar
    length is proportional to [log10 (1 + value)]. Ticks must agree across
    series (missing ticks are blank).
    @raise Invalid_argument when series have inconsistent tick lists. *)
