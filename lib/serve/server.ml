module Embedding = Yali_embeddings.Embedding
module Telemetry = Yali_exec.Telemetry

type config = {
  socket : string;
  registry_dir : string;
  model_spec : string;
  queue_cap : int;
  max_batch : int;
  log : string -> unit;
}

let default =
  {
    socket = "yali.sock";
    registry_dir = "models";
    model_spec = "rf";
    queue_cap = 256;
    max_batch = 64;
    log = ignore;
  }

(* -- telemetry ------------------------------------------------------------- *)

type counters = {
  mutable requests : int;  (** classify requests accepted into the queue *)
  mutable served : int;
  mutable busy : int;
  mutable errors : int;
  mutable batches : int;
  batch_hist : (int, int) Hashtbl.t;  (** batch size -> dispatches *)
  waits_us : Telemetry.Histogram.t;  (** queue waits of served requests *)
  mutable started : float;
}

let counters =
  {
    requests = 0;
    served = 0;
    busy = 0;
    errors = 0;
    batches = 0;
    batch_hist = Hashtbl.create 16;
    waits_us = Telemetry.Histogram.create ();
    started = 0.0;
  }

(* the reply to a [Wire.Stats] request (see [Client.stats]) *)
let stats_json () =
  let module J = Yali_util.Json in
  let hist =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters.batch_hist []
    |> List.sort compare
  in
  let wait q = J.Int (Telemetry.Histogram.quantile counters.waits_us q) in
  J.to_string
    (J.Obj
       [
         ("requests", J.Int counters.requests);
         ("served", J.Int counters.served);
         ("busy", J.Int counters.busy);
         ("errors", J.Int counters.errors);
         ("batches", J.Int counters.batches);
         ( "uptime_seconds",
           J.Fixed (3, Telemetry.clock () -. counters.started) );
         ("queue_wait_us", J.Obj [ ("p50", wait 0.5); ("p99", wait 0.99) ]);
         ( "batch_hist",
           J.Obj (List.map (fun (size, n) -> (string_of_int size, J.Int n)) hist)
         );
       ])

let reset_counters () =
  counters.requests <- 0;
  counters.served <- 0;
  counters.busy <- 0;
  counters.errors <- 0;
  counters.batches <- 0;
  Hashtbl.reset counters.batch_hist;
  Telemetry.Histogram.reset counters.waits_us;
  counters.started <- Telemetry.clock ()

(* -- the loop -------------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  chunks : Wire.Dechunk.t;
  mutable alive : bool;
}

(** What a queued request asked for: the class decision alone, or the full
    per-class score vector (the adaptive evaders' oracle). *)
type want = Want_class | Want_margins

type pending = {
  origin : conn;
  m : Yali_ir.Irmod.t;
  arrival : float;
  want : want;
}

type state = {
  cfg : config;
  embedding : Embedding.t;
  dim : int;
  margins : float array -> float array;
      (** the model's one scorer; a class is its {!Yali_ml.Model.argmax} *)
  rbuf : Bytes.t;  (** every read lands here; {!Wire.Dechunk.feed} copies *)
  mutable conns : conn list;
  mutable queue : pending list;  (** newest first *)
  mutable queued : int;
  mutable running : bool;
}

let send conn resp =
  if conn.alive then
    try Wire.write_frame conn.fd (Wire.encode_response resp)
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      conn.alive <- false

let close_conn st conn =
  if conn.alive then begin
    conn.alive <- false;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ())
  end;
  st.conns <- List.filter (fun c -> c != conn) st.conns

let module_of_blob (fmt : Wire.payload_fmt) blob :
    (Yali_ir.Irmod.t, string) result =
  match fmt with
  | Binary -> Codec.decode_result blob
  | Minic -> (
      try
        Ok
          (Yali_transforms.Pipeline.optimize Yali_transforms.Pipeline.O0
             (Yali_minic.Lower.lower_program
                (Yali_minic.Parser.parse_program blob)))
      with e -> Error (Printexc.to_string e))
  | Textual -> (
      try Ok (Yali_ir.Parser.parse_module blob)
      with e -> Error (Printexc.to_string e))

let rec handle_request st conn = function
  | Wire.Ping -> send conn Wire.Pong
  | Wire.Stats -> send conn (Wire.Stats_json (stats_json ()))
  | Wire.Shutdown ->
      st.cfg.log "shutdown requested";
      send conn Wire.Bye;
      st.running <- false
  | Wire.Classify { fmt; blob } -> enqueue st conn Want_class fmt blob
  | Wire.Margins { fmt; blob } -> enqueue st conn Want_margins fmt blob

and enqueue st conn want fmt blob =
  if st.queued >= st.cfg.queue_cap then begin
    counters.busy <- counters.busy + 1;
    send conn Wire.Busy
  end
  else
    match module_of_blob fmt blob with
    | Error msg ->
        counters.errors <- counters.errors + 1;
        send conn (Wire.Error msg)
    | Ok m ->
        counters.requests <- counters.requests + 1;
        st.queue <-
          { origin = conn; m; arrival = Telemetry.clock (); want } :: st.queue;
        st.queued <- st.queued + 1

let handle_frame st conn payload =
  match Wire.decode_request payload with
  | rq -> handle_request st conn rq
  | exception Yali_util.Bin.Corrupt msg ->
      counters.errors <- counters.errors + 1;
      send conn (Wire.Error ("malformed request: " ^ msg))

(* One micro-batch: everything queued (oldest first), capped at
   [max_batch].  Embedding is a pure function of the module and each row
   is scored once by [margins], whose first maximum is the class
   ({!Yali_ml.Model.restore}'s [predict]), so replies are independent of
   batching. *)
let dispatch st =
  while st.queue <> [] do
    let pendings = List.rev st.queue in
    let batch, rest =
      let rec split i acc = function
        | xs when i = st.cfg.max_batch -> (List.rev acc, xs)
        | [] -> (List.rev acc, [])
        | x :: xs -> split (i + 1) (x :: acc) xs
      in
      split 0 [] pendings
    in
    st.queue <- List.rev rest;
    st.queued <- List.length rest;
    let rows =
      List.map
        (fun p ->
          match Embedding.to_flat st.embedding p.m with
          | v when Array.length v = st.dim -> Ok (p, v)
          | v ->
              Error
                ( p,
                  Printf.sprintf "embedding dimension %d, model expects %d"
                    (Array.length v) st.dim )
          | exception e -> Error (p, Printexc.to_string e))
        batch
    in
    let good =
      List.filter_map (function Ok pv -> Some pv | Error _ -> None) rows
    in
    List.iter
      (function
        | Ok _ -> ()
        | Error ((p : pending), msg) ->
            counters.errors <- counters.errors + 1;
            send p.origin (Wire.Error msg))
      rows;
    if good <> [] then begin
      let n = List.length good in
      let scored = List.map (fun (p, row) -> (p, st.margins row)) good in
      let now = Telemetry.clock () in
      counters.batches <- counters.batches + 1;
      Hashtbl.replace counters.batch_hist n
        (1 + Option.value ~default:0 (Hashtbl.find_opt counters.batch_hist n));
      List.iter
        (fun ((p : pending), scores) ->
          let queue_us =
            int_of_float ((now -. p.arrival) *. 1_000_000.0)
          in
          counters.served <- counters.served + 1;
          Telemetry.Histogram.add counters.waits_us queue_us;
          match p.want with
          | Want_class ->
              send p.origin
                (Wire.Class
                   { cls = Yali_ml.Model.argmax scores; queue_us; batch = n })
          | Want_margins ->
              send p.origin (Wire.Margins_r { scores; queue_us; batch = n }))
        scored
    end
  done

let read_chunk st conn =
  match Unix.read conn.fd st.rbuf 0 (Bytes.length st.rbuf) with
  | 0 -> close_conn st conn
  | n -> (
      match Wire.Dechunk.feed conn.chunks st.rbuf n with
      | frames -> List.iter (handle_frame st conn) frames
      | exception Yali_util.Bin.Corrupt msg ->
          counters.errors <- counters.errors + 1;
          send conn (Wire.Error msg);
          close_conn st conn)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      close_conn st conn

let interrupted = ref false

let install_signals () =
  let note _ = interrupted := true in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle note) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle note) in
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  fun () ->
    Sys.set_signal Sys.sigterm prev_term;
    Sys.set_signal Sys.sigint prev_int;
    Sys.set_signal Sys.sigpipe prev_pipe

let serve_loop st listen_fd =
  while st.running do
    if !interrupted then begin
      st.cfg.log "signal: shutting down";
      st.running <- false
    end
    else begin
      let fds = listen_fd :: List.map (fun c -> c.fd) st.conns in
      match Unix.select fds [] [] 1.0 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
          if List.mem listen_fd ready then begin
            match Unix.accept listen_fd with
            | fd, _ ->
                st.conns <-
                  { fd; chunks = Wire.Dechunk.create (); alive = true }
                  :: st.conns
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          end;
          List.iter
            (fun conn ->
              if conn.alive && List.memq conn.fd ready then
                read_chunk st conn)
            st.conns;
          dispatch st
    end
  done;
  (* graceful: answer everything already accepted before closing *)
  dispatch st

let run cfg =
  interrupted := false;
  reset_counters ();
  match Registry.load ~dir:cfg.registry_dir cfg.model_spec with
  | Error e -> Error e
  | Ok entry -> (
      match Embedding.find entry.meta.embedding with
      | None ->
          Error
            (Printf.sprintf "model trained over unknown embedding %s"
               entry.meta.embedding)
      | Some embedding ->
          (* warm preload: score one probe row before accepting
             connections *)
          let margins = Yali_ml.Model.margins entry.snapshot in
          ignore (margins (Array.make entry.meta.dim 0.0));
          cfg.log
            (Printf.sprintf "serving %s@%d (%s, %d classes, dim %d) on %s"
               entry.meta.kind entry.meta.version entry.meta.embedding
               entry.meta.n_classes entry.meta.dim cfg.socket);
          if Sys.file_exists cfg.socket then Sys.remove cfg.socket;
          let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          let restore_signals = install_signals () in
          Fun.protect
            ~finally:(fun () ->
              restore_signals ();
              (try Unix.close listen_fd with Unix.Unix_error _ -> ());
              if Sys.file_exists cfg.socket then Sys.remove cfg.socket)
            (fun () ->
              match Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket) with
              | exception Unix.Unix_error (err, _, _) ->
                  Error
                    (Printf.sprintf "cannot bind %s: %s" cfg.socket
                       (Unix.error_message err))
              | () ->
                  Unix.listen listen_fd 64;
                  let st =
                    {
                      cfg;
                      embedding;
                      dim = entry.meta.dim;
                      margins;
                      rbuf = Bytes.create 65536;
                      conns = [];
                      queue = [];
                      queued = 0;
                      running = true;
                    }
                  in
                  serve_loop st listen_fd;
                  List.iter (fun c -> close_conn st c) st.conns;
                  cfg.log "bye";
                  Ok ()))
