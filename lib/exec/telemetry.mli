(** Lightweight observability for the execution runtime: named counters,
    timed spans, and a monotonic clock, aggregated in-process and dumpable
    as a JSON report ([--telemetry] in the CLI and figure harness); plus
    fixed-size {!Histogram}s for latency quantiles.

    Counters and spans are domain-safe; the expected call sites are coarse
    (per game round, per training run, per pool batch), so a single lock
    around the aggregate tables is not a bottleneck. *)

(** Aggregate of all closed spans sharing a name. *)
type span_stat = {
  span_count : int;  (** how many spans closed under this name *)
  span_seconds : float;  (** total wall time spent inside them *)
}

(** A consistent copy of the aggregate state. *)
type report = {
  r_counters : (string * int) list;
  r_spans : (string * span_stat) list;
}

(** Monotonic(-ised) wall clock, in seconds.  The bundled [Unix] library
    exposes no [clock_gettime], so this guards [Unix.gettimeofday] against
    going backwards (NTP steps): consecutive readings never decrease. *)
val clock : unit -> float

(** Bump a counter (created on first use). *)
val incr : ?by:int -> string -> unit

(** Current value of a counter; 0 when never bumped. *)
val counter : string -> int

(** [with_span name f] times [f ()] on {!clock} and folds the duration
    into the aggregate for [name] — also when [f] raises. *)
val with_span : string -> (unit -> 'a) -> 'a

val snapshot : unit -> report

(** Drop all counters and spans (tests, or between harness targets). *)
val reset : unit -> unit

(** The report as a JSON object: [{"counters": {...}, "spans": {name:
    {"count": n, "seconds": s}}}]. *)
val to_json : unit -> string

(** Write {!to_json} to a file. *)
val write_json : string -> unit

(** A fixed-size histogram of non-negative integers (latencies in
    microseconds, say) for quantiles over unbounded streams.  Values below
    16 are exact; above, each power of two splits into 16 log-spaced
    buckets, so a reported quantile is within 1/32 (3.125%) of the value
    at that rank.  Negative values count as 0.  Not domain-safe: its
    owner serialises access. *)
module Histogram : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit

  val reset : t -> unit

  (** [quantile h q] is the value at rank [round ((count - 1) * q)] of the
      sorted values, within the stated error; 0 when [h] is empty. *)
  val quantile : t -> float -> int
end
