(** Plain-text result tables for the experiments, the CLI and examples. *)

type t
(** A table under construction. *)

val create : columns:string list -> t

val add_row : t -> string list -> unit
(** @raise Invalid_argument when the row width differs from the header. *)

val add_int_row : t -> string -> int list -> unit
(** Label in the first column, integers after. *)

val to_string : t -> string
(** Renders with aligned columns:
    {v
    | min_sup | runtime_s | patterns |
    |---------|-----------|----------|
    |      10 |     0.123 |     4521 |
    v} *)

val print : t -> unit
(** [to_string] to stdout. *)

val cell_float : float -> string
(** Fixed 3-decimal rendering used for runtimes. *)

val cell_int : int -> string
