(** The classification daemon: a single-threaded [select] loop over a Unix
    socket that accumulates in-flight classify requests into micro-batches
    and scores each row of a batch once with the model's
    {!Yali_ml.Model.margins} (DESIGN.md §11).

    Batching never changes an answer: a class reply is the first maximum
    of the row's scores ({!Yali_ml.Model.argmax}, which is
    {!Yali_ml.Model.restore}'s [predict]), a margins reply is the scores
    themselves, and embedding is a pure function of the module — so the
    reply for a program is the same at any [--jobs] setting, any batch
    size, and any request interleaving.

    The pending queue is bounded: once [queue_cap] requests await
    dispatch, further classify requests get an explicit {!Wire.Busy}
    reply instead of unbounded buffering.  [SIGTERM]/[SIGINT] (and the
    {!Wire.Shutdown} request) drain the pending queue, answer every
    accepted request, close the socket and return cleanly. *)

type config = {
  socket : string;  (** path of the Unix socket to create *)
  registry_dir : string;
  model_spec : string;  (** {!Registry.parse_spec} syntax: "rf", "rf@3" *)
  queue_cap : int;  (** pending classify requests before {!Wire.Busy} *)
  max_batch : int;  (** micro-batch size cap per dispatch *)
  log : string -> unit;
}

val default : config

(** Load the model, warm it (score one all-zero probe row), bind the
    socket and serve until shutdown.  Returns after a clean shutdown;
    [Error] on setup failures (unresolvable model spec, unknown embedding,
    unbindable socket). *)
val run : config -> (unit, string) result
