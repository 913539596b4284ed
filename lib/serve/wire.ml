module Bin = Yali_util.Bin

type payload_fmt = Binary | Minic | Textual

type request =
  | Classify of { fmt : payload_fmt; blob : string }
  | Ping
  | Stats
  | Shutdown
  | Margins of { fmt : payload_fmt; blob : string }

type response =
  | Class of { cls : int; queue_us : int; batch : int }
  | Error of string
  | Busy
  | Pong
  | Stats_json of string
  | Bye
  | Margins_r of { scores : float array; queue_us : int; batch : int }

let encode_request rq =
  let b = Buffer.create 64 in
  (match rq with
  | Classify { fmt; blob } ->
      Bin.w_u8 b 1;
      Bin.w_u8 b (match fmt with Binary -> 0 | Minic -> 1 | Textual -> 2);
      Bin.w_str b blob
  | Ping -> Bin.w_u8 b 2
  | Stats -> Bin.w_u8 b 3
  | Shutdown -> Bin.w_u8 b 4
  | Margins { fmt; blob } ->
      Bin.w_u8 b 5;
      Bin.w_u8 b (match fmt with Binary -> 0 | Minic -> 1 | Textual -> 2);
      Bin.w_str b blob);
  Buffer.contents b

let decode_request payload =
  let r = Bin.reader payload in
  let rq =
    match Bin.r_u8 r with
    | 1 ->
        let fmt =
          match Bin.r_u8 r with
          | 0 -> Binary
          | 1 -> Minic
          | 2 -> Textual
          | n -> Bin.fail r (Printf.sprintf "bad payload format %d" n)
        in
        Classify { fmt; blob = Bin.r_str r }
    | 2 -> Ping
    | 3 -> Stats
    | 4 -> Shutdown
    | 5 ->
        let fmt =
          match Bin.r_u8 r with
          | 0 -> Binary
          | 1 -> Minic
          | 2 -> Textual
          | n -> Bin.fail r (Printf.sprintf "bad payload format %d" n)
        in
        Margins { fmt; blob = Bin.r_str r }
    | n -> Bin.fail r (Printf.sprintf "bad request opcode %d" n)
  in
  Bin.expect_end r;
  rq

let encode_response rs =
  let b = Buffer.create 64 in
  (match rs with
  | Class { cls; queue_us; batch } ->
      Bin.w_u8 b 0;
      Bin.w_int b cls;
      Bin.w_int b queue_us;
      Bin.w_int b batch
  | Error msg ->
      Bin.w_u8 b 1;
      Bin.w_str b msg
  | Busy -> Bin.w_u8 b 2
  | Pong -> Bin.w_u8 b 3
  | Stats_json j ->
      Bin.w_u8 b 4;
      Bin.w_str b j
  | Bye -> Bin.w_u8 b 5
  | Margins_r { scores; queue_us; batch } ->
      Bin.w_u8 b 6;
      Bin.w_floats b scores;
      Bin.w_int b queue_us;
      Bin.w_int b batch);
  Buffer.contents b

let decode_response payload =
  let r = Bin.reader payload in
  let rs =
    match Bin.r_u8 r with
    | 0 ->
        let cls = Bin.r_int r in
        let queue_us = Bin.r_int r in
        Class { cls; queue_us; batch = Bin.r_int r }
    | 1 -> Error (Bin.r_str r)
    | 2 -> Busy
    | 3 -> Pong
    | 4 -> Stats_json (Bin.r_str r)
    | 5 -> Bye
    | 6 ->
        let scores = Bin.r_floats r in
        let queue_us = Bin.r_int r in
        Margins_r { scores; queue_us; batch = Bin.r_int r }
    | n -> Bin.fail r (Printf.sprintf "bad response status %d" n)
  in
  Bin.expect_end r;
  rs

(* -- framing --------------------------------------------------------------- *)

let max_frame = 64 * 1024 * 1024

let corrupt fmt = Printf.ksprintf (fun m -> raise (Bin.Corrupt m)) fmt

let parse_header b off =
  let n = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff in
  if n > max_frame then corrupt "frame of %d bytes exceeds max %d" n max_frame;
  n

let rec write_all fd b off len =
  if len > 0 then
    let n =
      try Unix.write fd b off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd b (off + n) (len - n)

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then corrupt "frame of %d bytes exceeds max %d" len max_frame;
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b 4 len;
  write_all fd b 0 (4 + len)

(* [exact] returns [false] only on EOF before the first byte *)
let read_exact fd b len =
  let rec go off =
    if off >= len then true
    else
      match Unix.read fd b off (len - off) with
      | 0 ->
          if off = 0 then false
          else corrupt "connection closed mid-frame (%d of %d bytes)" off len
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_frame fd =
  let hdr = Bytes.create 4 in
  if not (read_exact fd hdr 4) then None
  else begin
    let len = parse_header hdr 0 in
    let b = Bytes.create len in
    if len > 0 && not (read_exact fd b len) then
      corrupt "connection closed before %d-byte frame" len;
    Some (Bytes.unsafe_to_string b)
  end

module Dechunk = struct
  (* the pending bytes are [buf.[lo .. hi - 1]] *)
  type t = { mutable buf : Bytes.t; mutable lo : int; mutable hi : int }

  let create () = { buf = Bytes.create 4096; lo = 0; hi = 0 }

  (* room for [n] more bytes after [hi]; the pending bytes move to the
     front only here, into a doubled buffer when they do not fit as they
     are, so each byte is copied a constant number of times *)
  let reserve t n =
    if t.hi + n > Bytes.length t.buf then begin
      let live = t.hi - t.lo in
      let cap = ref (Bytes.length t.buf) in
      while live + n > !cap do
        cap := 2 * !cap
      done;
      let buf =
        if !cap > Bytes.length t.buf then Bytes.create !cap else t.buf
      in
      Bytes.blit t.buf t.lo buf 0 live;
      t.buf <- buf;
      t.lo <- 0;
      t.hi <- live
    end

  let feed t chunk n =
    reserve t n;
    Bytes.blit chunk 0 t.buf t.hi n;
    t.hi <- t.hi + n;
    let rec cut frames =
      if t.hi - t.lo < 4 then frames
      else
        let len = parse_header t.buf t.lo in
        if t.hi - t.lo - 4 < len then frames
        else begin
          let frame = Bytes.sub_string t.buf (t.lo + 4) len in
          t.lo <- t.lo + 4 + len;
          cut (frame :: frames)
        end
    in
    List.rev (cut [])
end
