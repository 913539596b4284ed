module Bin = Yali_util.Bin

type t = { cfd : Unix.file_descr }

let connect path =
  let cfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect cfd (Unix.ADDR_UNIX path)
   with e -> (try Unix.close cfd with Unix.Unix_error _ -> ()); raise e);
  { cfd }

let close t = try Unix.close t.cfd with Unix.Unix_error _ -> ()

let fd t = t.cfd

let request t rq =
  Wire.write_frame t.cfd (Wire.encode_request rq);
  match Wire.read_frame t.cfd with
  | Some payload -> Wire.decode_response payload
  | None -> raise (Bin.Corrupt "daemon closed the connection")

let classify t m =
  request t (Wire.Classify { fmt = Wire.Binary; blob = Codec.encode_module m })

let classify_source t src =
  request t (Wire.Classify { fmt = Wire.Minic; blob = src })

let margins t m =
  request t (Wire.Margins { fmt = Wire.Binary; blob = Codec.encode_module m })

let ping t = match request t Wire.Ping with Wire.Pong -> true | _ -> false

let stats t =
  match request t Wire.Stats with
  | Wire.Stats_json j -> Ok j
  | Wire.Error e -> Error e
  | _ -> Error "unexpected reply to stats"

let shutdown t =
  match request t Wire.Shutdown with
  | _ -> ()
  | exception Bin.Corrupt _ -> ()

let ready socket =
  match connect socket with
  | exception Unix.Unix_error _ -> false
  | c ->
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () -> try ping c with Unix.Unix_error _ | Bin.Corrupt _ -> false)

exception No_answer of string

let await_daemon socket =
  let rec go tries =
    if not (ready socket) then
      if tries = 0 then
        raise (No_answer (socket ^ ": daemon never answered a ping"))
      else begin
        Unix.sleepf 0.05;
        go (tries - 1)
      end
  in
  go 200

type command = socket:string -> registry:string -> spec:string -> string array

let daemon_flag = "--serve-daemon"

let self_command ~socket ~registry ~spec =
  [| Sys.executable_name; daemon_flag; socket; registry; spec |]

let daemon_mode () =
  match Sys.argv with
  | [| _; flag; socket; registry_dir; model_spec |] when flag = daemon_flag -> (
      (* SIGTERM is ignored outside [Server.run], which installs its own
         handler and restores this one on return: a SIGTERM that lands
         after a Shutdown request must not kill a daemon on its way to
         exit 0 *)
      Sys.set_signal Sys.sigterm Sys.Signal_ignore;
      match
        Server.run { Server.default with socket; registry_dir; model_spec }
      with
      | Ok () -> exit 0
      | Error msg ->
          prerr_endline ("daemon: " ^ msg);
          exit 1)
  | _ -> ()

(* SIGTERM every daemon, then reap each one; a daemon still running 10 s
   later is killed and counts as unclean *)
let stop_all pids =
  List.iter
    (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    pids;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec reap pid =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        reap pid
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        false
    | _, status -> status = Unix.WEXITED 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
    | exception Unix.Unix_error _ -> false
  in
  List.for_all Fun.id (List.map reap pids)

let with_daemons ~command ~dir ~registry specs f =
  flush stdout;
  flush stderr;
  let pids = ref [] and prev_pipe = ref None in
  let stop () =
    Option.iter (Sys.set_signal Sys.sigpipe) !prev_pipe;
    stop_all !pids
  in
  match
    let daemons =
      List.map
        (fun spec ->
          let socket = Filename.concat dir (spec ^ ".sock") in
          let argv = command ~socket ~registry ~spec in
          pids :=
            Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
            :: !pids;
          (spec, socket))
        specs
    in
    (* a write to a daemon that has died must raise EPIPE, not kill this
       process; set after the spawns, so the daemons do not inherit it *)
    prev_pipe := Some (Sys.signal Sys.sigpipe Sys.Signal_ignore);
    List.iter (fun (_, socket) -> await_daemon socket) daemons;
    f daemons
  with
  | result -> (result, stop ())
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (stop ());
      Printexc.raise_with_backtrace e bt
