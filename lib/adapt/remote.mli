(** The via-serve margins oracle: classifier queries answered by a running
    {!Yali_serve.Server} daemon, bit-identical to the in-process snapshot
    (codec round trip is structural identity, embeddings are
    deterministic, scores travel f64-exact). *)

type t

(** Connect to a daemon's Unix socket.
    @raise Unix.Unix_error when it cannot be reached *)
val connect : socket:string -> t

val close : t -> unit

(** Per-class scores of a module, server-side.  Thread-safe: the shared
    connection is mutex-serialised, so it can stand in for an in-process
    oracle inside {!Yali_exec.Pool} tasks.
    @raise Yali_serve.Client.No_answer on an error reply, a lost
    connection or persistent busy replies *)
val oracle : t -> Yali_ir.Irmod.t -> float array
