(** Blocking client for the {!Server} daemon: one request in flight per
    connection, framed as in {!Wire}. *)

type t

(** @raise Unix.Unix_error when the socket cannot be reached *)
val connect : string -> t

val close : t -> unit

val fd : t -> Unix.file_descr

(** Send a request and block for its reply.
    @raise Yali_util.Bin.Corrupt on a malformed reply or mid-frame EOF *)
val request : t -> Wire.request -> Wire.response

(** Classify an IR module (sent as a {!Codec} blob — the fast path). *)
val classify : t -> Yali_ir.Irmod.t -> Wire.response

(** Classify mini-C source text (compiled server-side). *)
val classify_source : t -> string -> Wire.response

(** Ask for the per-class score vector of an IR module
    ({!Yali_ml.Model.margins} server-side; f64 bit-exact over the wire). *)
val margins : t -> Yali_ir.Irmod.t -> Wire.response

val ping : t -> bool

(** The daemon's stats reply, one line of JSON: request, batch, busy and
    error counters, the batch-size histogram, queue-wait quantiles (within
    {!Yali_exec.Telemetry.Histogram}'s error) and the embedding cache's
    hit/miss/eviction statistics ({!Yali_exec.Cache.stats}). *)
val stats : t -> (string, string) result

(** Ask the daemon to exit; returns once it acknowledges with [Bye]. *)
val shutdown : t -> unit

(** Whether a daemon answers a ping on [socket] now.  {!Server.run}
    creates the socket file at [bind], before it calls [listen], so a
    socket file that exists is not yet a daemon that is up. *)
val ready : string -> bool

(** Poll {!ready} every 50 ms for up to 10 s.
    @raise Failure when the daemon never answers *)
val await_daemon : string -> unit
