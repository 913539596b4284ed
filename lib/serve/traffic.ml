module Rng = Yali_util.Rng
module Telemetry = Yali_exec.Telemetry

type cfg = {
  socket : string;
  clients : int;
  requests : int;
  seed : int;
  n_classes : int;
  per_class : int;
  log : string -> unit;
}

type result = {
  t_classified : int;
  t_busy : int;
  t_errors : int;
  t_seconds : float;
  t_throughput : float;
  t_p50_us : int;
  t_p99_us : int;
  t_batch_hist : (int * int) list;
  t_deterministic : bool;
}

(* the replay pool: corpus programs lowered exactly as Game0 training
   modules are, pre-encoded once into codec blobs *)
let build_pool cfg =
  let rng = Rng.make cfg.seed in
  let split =
    Yali_dataset.Poj.make rng ~n_classes:cfg.n_classes
      ~train_per_class:cfg.per_class ~test_per_class:0
  in
  let modules, _ =
    Yali_games.Arena.build_modules (Rng.split rng) Yali_games.Game.game0 split
  in
  Array.map (fun (m, _) -> Codec.encode_module m) modules

type flight = {
  client : Client.t;
  mutable pool_ix : int;  (** which pool program is in flight *)
  mutable sent_at : float;
}

let run cfg =
  let pool = build_pool cfg in
  if Array.length pool = 0 then invalid_arg "Traffic.run: empty program pool";
  let classified = ref 0 and busy = ref 0 and errors = ref 0 in
  let latencies = Telemetry.Histogram.create () in
  let batch_hist = Hashtbl.create 16 in
  let verdicts = Array.make (Array.length pool) (-1) in
  let deterministic = ref true in
  let next = ref 0 in
  let inflight = Hashtbl.create 16 in
  let send_on (f : flight) ix =
    f.pool_ix <- ix;
    f.sent_at <- Telemetry.clock ();
    Wire.write_frame (Client.fd f.client)
      (Wire.encode_request
         (Wire.Classify { fmt = Wire.Binary; blob = pool.(ix) }))
  in
  let n_conns = min cfg.clients cfg.requests in
  let started = Telemetry.clock () in
  let flights =
    List.init n_conns (fun _ ->
        let f =
          { client = Client.connect cfg.socket; pool_ix = 0; sent_at = 0.0 }
        in
        Hashtbl.replace inflight (Client.fd f.client) f;
        f)
  in
  List.iter
    (fun f ->
      let ix = !next mod Array.length pool in
      incr next;
      send_on f ix)
    flights;
  let done_count () = !classified + !errors in
  let retire f =
    Hashtbl.remove inflight (Client.fd f.client);
    Client.close f.client
  in
  let advance f =
    if !next < cfg.requests then begin
      let ix = !next mod Array.length pool in
      incr next;
      send_on f ix
    end
    else retire f
  in
  while done_count () < cfg.requests && Hashtbl.length inflight > 0 do
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) inflight [] in
    match Unix.select fds [] [] 5.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ ->
        cfg.log "traffic: 5s with no replies; giving up";
        Hashtbl.iter (fun _ f -> Client.close f.client) inflight;
        Hashtbl.reset inflight
    | ready, _, _ ->
        List.iter
          (fun fd ->
            match Hashtbl.find_opt inflight fd with
            | None -> ()
            | Some f -> (
                match Wire.read_frame fd with
                | None ->
                    incr errors;
                    retire f
                | Some payload -> (
                    match Wire.decode_response payload with
                    | Wire.Class { cls; batch; _ } ->
                        let us =
                          int_of_float
                            ((Telemetry.clock () -. f.sent_at) *. 1_000_000.)
                        in
                        Telemetry.Histogram.add latencies us;
                        Hashtbl.replace batch_hist batch
                          (1
                          + Option.value ~default:0
                              (Hashtbl.find_opt batch_hist batch));
                        if verdicts.(f.pool_ix) = -1 then
                          verdicts.(f.pool_ix) <- cls
                        else if verdicts.(f.pool_ix) <> cls then
                          deterministic := false;
                        incr classified;
                        advance f
                    | Wire.Busy ->
                        incr busy;
                        (* backpressure: yield briefly, then replay the
                           same program *)
                        Unix.sleepf 0.001;
                        send_on f f.pool_ix
                    | Wire.Error msg ->
                        cfg.log ("traffic: error reply: " ^ msg);
                        incr errors;
                        advance f
                    | Wire.Pong | Wire.Stats_json _ | Wire.Bye
                    | Wire.Margins_r _ -> ())
                | exception Yali_util.Bin.Corrupt msg ->
                    cfg.log ("traffic: corrupt reply: " ^ msg);
                    incr errors;
                    retire f))
          ready
  done;
  Hashtbl.iter (fun _ f -> Client.close f.client) inflight;
  let seconds = Telemetry.clock () -. started in
  {
    t_classified = !classified;
    t_busy = !busy;
    t_errors = !errors;
    t_seconds = seconds;
    t_throughput =
      (if seconds > 0.0 then float_of_int !classified /. seconds else 0.0);
    t_p50_us = Telemetry.Histogram.quantile latencies 0.5;
    t_p99_us = Telemetry.Histogram.quantile latencies 0.99;
    t_batch_hist =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) batch_hist []
      |> List.sort compare;
    t_deterministic = !deterministic;
  }

let result_json r =
  let module J = Yali_util.Json in
  J.Obj
    [
      ("classified", J.Int r.t_classified);
      ("busy", J.Int r.t_busy);
      ("errors", J.Int r.t_errors);
      ("seconds", J.Fixed (4, r.t_seconds));
      ("programs_per_second", J.Fixed (1, r.t_throughput));
      ( "latency_us",
        J.Obj [ ("p50", J.Int r.t_p50_us); ("p99", J.Int r.t_p99_us) ] );
      ( "batch_hist",
        J.Obj
          (List.map (fun (size, n) -> (string_of_int size, J.Int n)) r.t_batch_hist)
      );
      ("deterministic", J.Bool r.t_deterministic);
    ]
