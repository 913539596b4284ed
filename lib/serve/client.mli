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
    error counters, uptime, the batch-size histogram and queue-wait
    quantiles (within {!Yali_exec.Telemetry.Histogram}'s error). *)
val stats : t -> (string, string) result

(** Ask the daemon to exit; returns once it acknowledges with [Bye]. *)
val shutdown : t -> unit

(** Whether a daemon answers a ping on [socket] now.  {!Server.run}
    creates the socket file at [bind], before it calls [listen], so a
    socket file that exists is not yet a daemon that is up. *)
val ready : string -> bool

(** A daemon that never answered a ping, or a request it did not answer. *)
exception No_answer of string

(** How to start one daemon: the argv (program first) that serves the
    registry model [spec] from [registry] on [socket]. *)
type command = socket:string -> registry:string -> spec:string -> string array

(** This executable again, in the hidden mode {!daemon_mode} serves. *)
val self_command : command

(** The hidden daemon mode of an executable that launches itself through
    {!self_command}: when [Sys.argv] is such a command line, serve with
    {!Server.default}'s settings and exit (0 after a clean shutdown, 1 on
    a setup error); otherwise return at once.  Call it before anything
    reads [Sys.argv]. *)
val daemon_mode : unit -> unit

(** [with_daemons ~command ~dir ~registry specs f] starts one daemon per
    model spec, serving on [dir/SPEC.sock], waits until each answers a
    ping (polling {!ready} every 50 ms for up to 10 s), and runs [f] on
    the [(spec, socket)] list.  Every daemon is a fresh process running
    [command] ([Unix.fork] is illegal once the pool has spawned a domain).
    SIGPIPE is ignored while [f] runs, so a write to a daemon that has
    died raises [Unix.Unix_error EPIPE] instead of killing this process.
    Afterwards, also when [f] raises, every daemon gets SIGTERM and is
    reaped; one still running 10 s later gets SIGKILL.  Returns [f]'s
    result and whether every daemon exited 0.
    @raise No_answer when a daemon never answers a ping *)
val with_daemons :
  command:command ->
  dir:string ->
  registry:string ->
  string list ->
  ((string * string) list -> 'a) ->
  'a * bool
