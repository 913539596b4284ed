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

let await_daemon socket =
  let rec go tries =
    if not (ready socket) then
      if tries = 0 then failwith (socket ^ ": daemon never answered a ping")
      else begin
        Unix.sleepf 0.05;
        go (tries - 1)
      end
  in
  go 200
