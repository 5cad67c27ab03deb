(** Reading and writing sequence databases.

    Three text formats are supported:

    - {b tokens}: one sequence per line, whitespace-separated event names.
      Empty lines and lines starting with ['#'] are skipped. Names are
      interned through a {!Codec.t}. Any token is a valid name, so this
      format has no malformed inputs.
    - {b chars}: one sequence per line as a string of letters ['A'..'Z']
      (paper-example style).
    - {b spmf}: the SPMF sequence format — integer events separated by [-1],
      each sequence terminated by [-2] (itemsets of size one).

    Malformed [chars]/[spmf] input raises {!Parse_error} carrying the
    1-based line number — or, with [~strict:false], the offending lines are
    skipped and counted: the [*_report] variants return the count, and
    every skip also bumps the {!Metrics.parse_errors_skipped} counter so
    non-strict loads stay observable ([--stats], daemon stats frames). *)

exception Parse_error of { line : int; msg : string }
(** A malformed input line. [line] is 1-based in the original text,
    counting blank and comment lines. *)

val parse_tokens : ?codec:Codec.t -> string -> Seqdb.t * Codec.t
(** Parses the [tokens] format from a string. Reuses [codec] when given.
    Never raises {!Parse_error}: every whitespace-separated token is a
    legal event name. *)

val parse_chars : ?strict:bool -> string -> Seqdb.t
(** Parses the [chars] format from a string.
    @raise Parse_error on characters outside ['A'..'Z'] when [strict]
    (default [true]); skips the malformed lines otherwise. *)

val parse_chars_report : ?strict:bool -> string -> Seqdb.t * int
(** As {!parse_chars}, also returning the number of skipped lines (always
    [0] when [strict]). *)

val parse_spmf : ?strict:bool -> string -> Seqdb.t
(** Parses the SPMF format from a string. Event ids are used directly.
    @raise Parse_error on a non-integer token, a negative event id other
    than [-1]/[-2], or trailing events without a [-2] terminator, when
    [strict] (default [true]). With [~strict:false] the offending line is
    skipped wholesale — including any half-built sequence it was extending
    — and counted. *)

val parse_spmf_report : ?strict:bool -> string -> Seqdb.t * int
(** As {!parse_spmf}, also returning the number of skipped lines. *)

type format = Tokens | Chars | Spmf  (** the three text formats above *)

val parse : format -> string -> Seqdb.t * Codec.t option
(** Parse text in [format], strictly; the codec for [Tokens].
    @raise Parse_error on a malformed [Chars] or [Spmf] line. *)

val print_tokens : Codec.t -> Seqdb.t -> string
(** Inverse of {!parse_tokens}. *)

val print_spmf : Seqdb.t -> string
(** Inverse of {!parse_spmf}. *)

val read_file : string -> string
(** A whole file's bytes. @raise Sys_error *)

val load_tokens : ?codec:Codec.t -> string -> Seqdb.t * Codec.t
(** [load_tokens path] reads a [tokens]-format file. *)

val load_spmf : ?strict:bool -> string -> Seqdb.t
(** Reads an SPMF-format file. *)

val save_tokens : Codec.t -> Seqdb.t -> string -> unit
(** Writes a [tokens]-format file. *)

val save_spmf : Seqdb.t -> string -> unit
(** Writes an SPMF-format file. *)
