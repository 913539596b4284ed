(** The via-serve margins oracle: route every classifier query of the
    search through a running {!Yali_serve.Server} daemon instead of the
    in-process snapshot.

    The daemon decodes the {!Yali_serve.Codec} blob (structural identity),
    embeds with the same deterministic embedding, and answers
    {!Yali_ml.Model.margins} with f64-exact scores — so a search driven
    through this oracle is bit-identical to the in-process one (the
    [adapt] bench asserts exactly that).  One blocking connection is
    shared under a mutex: pool workers serialise their queries, which
    keeps the client trivially correct; the daemon's micro-batching is
    irrelevant to the scores by its own contract. *)

module Client = Yali_serve.Client
module Wire = Yali_serve.Wire

type t = { client : Client.t; lock : Mutex.t }

let connect ~socket = { client = Client.connect socket; lock = Mutex.create () }

let close t = Client.close t.client

let oracle (t : t) (m : Yali_ir.Irmod.t) : float array =
  let unanswered msg = raise (Client.No_answer ("serve margins: " ^ msg)) in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      let rec go tries =
        match Client.margins t.client m with
        | Wire.Margins_r { scores; _ } -> scores
        | Wire.Busy when tries > 0 ->
            Unix.sleepf 0.002;
            go (tries - 1)
        | Wire.Busy -> unanswered "daemon stayed busy"
        | Wire.Error msg | (exception Yali_util.Bin.Corrupt msg) ->
            unanswered msg
        | exception Unix.Unix_error (err, _, _) ->
            unanswered (Unix.error_message err)
        | _ -> unanswered "unexpected reply"
      in
      go 100)
