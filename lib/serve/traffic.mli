(** Synthetic traffic generator for benchmarking the daemon: [clients]
    concurrent connections replaying programs drawn from the synthetic
    corpus, measuring sustained throughput and latency quantiles, and
    checking reply determinism (the same program must classify identically
    on every repetition, whatever batch it lands in). *)

type cfg = {
  socket : string;
  clients : int;  (** concurrent connections (= max in-flight requests) *)
  requests : int;  (** total classify requests *)
  seed : int;
  n_classes : int;
  per_class : int;  (** distinct programs per class in the replay pool *)
  log : string -> unit;
}

type result = {
  t_classified : int;
  t_busy : int;  (** backpressure replies observed (each retried) *)
  t_errors : int;
  t_seconds : float;
  t_throughput : float;  (** classified programs per second *)
  t_p50_us : int;
      (** request latency, client-side, within
          {!Yali_exec.Telemetry.Histogram}'s error *)
  t_p99_us : int;
  t_batch_hist : (int * int) list;  (** batch size -> replies served at it *)
  t_deterministic : bool;  (** same program -> same class, always *)
}

(** @raise Unix.Unix_error when the daemon is unreachable *)
val run : cfg -> result

(** The result as the [traffic] section of [BENCH_serve.json]. *)
val result_json : result -> Yali_util.Json.t
