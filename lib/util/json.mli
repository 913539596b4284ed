(** A JSON value and its printer: the one writer behind every JSON report
    (the [BENCH_*.json] gate files, the telemetry report, the daemon's
    stats reply, the adaptive-evader report).

    Objects print as [{"key": value, ...}], with one space after each
    colon and comma.  Strings and keys are escaped: a double quote,
    backslash or newline as its two-character escape, every other byte
    below 0x20 as a six-character [\u00XX] escape.  A float prints with the
    fixed number of decimals it carries, so a report keeps the digits it
    was designed with; a non-finite float prints as [null]. *)

type t =
  | Bool of bool
  | Int of int
  | Fixed of int * float  (** [Fixed (d, x)] prints [x] with [d] decimals *)
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string  (** already-serialised JSON, inserted verbatim *)

(** The value on one line. *)
val to_string : t -> string

(** The value over several lines: the outermost container and the
    containers directly inside it put one member per line, indented two
    spaces per level; anything deeper prints on one line as in
    {!to_string}. *)
val pretty : t -> string

(** Write {!pretty} and a final newline to a file. *)
val write : string -> t -> unit
