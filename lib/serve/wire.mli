(** The request/response protocol spoken over the daemon's Unix socket
    (DESIGN.md §11).

    Every message travels in a {e frame}: a u32 little-endian byte length
    followed by that many payload bytes.  Payloads are {!Yali_util.Bin}
    encodings — a u8 opcode/status byte, then opcode-specific fields.
    Malformed payloads raise {!Yali_util.Bin.Corrupt}; the server answers
    them with {!Error} rather than dying. *)

(** How a {!Classify} payload carries the program. *)
type payload_fmt =
  | Binary  (** a {!Codec} blob — the fast path, parse nothing *)
  | Minic  (** MiniC source, front-end compiled server-side *)
  | Textual  (** printed IR, re-parsed server-side *)

type request =
  | Classify of { fmt : payload_fmt; blob : string }
  | Ping
  | Stats  (** ask for the telemetry JSON of {!Server} *)
  | Shutdown
  | Margins of { fmt : payload_fmt; blob : string }
      (** like {!Classify} but asks for the full per-class score vector
          ({!Yali_ml.Model.margins}) — the adaptive evaders' oracle *)

type response =
  | Class of {
      cls : int;  (** predicted class *)
      queue_us : int;  (** time from arrival to batch dispatch *)
      batch : int;  (** size of the micro-batch that served it *)
    }
  | Error of string
  | Busy  (** bounded queue full — explicit backpressure, retry later *)
  | Pong
  | Stats_json of string
  | Bye  (** acknowledges {!Shutdown}; the daemon exits after sending *)
  | Margins_r of {
      scores : float array;
          (** per-class scores, f64 bit-exact over the wire *)
      queue_us : int;
      batch : int;
    }

val encode_request : request -> string

(** @raise Yali_util.Bin.Corrupt on malformed input *)
val decode_request : string -> request

val encode_response : response -> string

(** @raise Yali_util.Bin.Corrupt on malformed input *)
val decode_response : string -> response

(** {1 Framing} *)

(** Refused frame length (64 MiB) — oversized headers raise
    {!Yali_util.Bin.Corrupt} instead of allocating. *)
val max_frame : int

(** [write_frame fd payload] writes the length prefix and payload,
    retrying on [EINTR] and short writes. *)
val write_frame : Unix.file_descr -> string -> unit

(** Blocking read of one complete frame; [None] on orderly EOF at a
    frame boundary.  EOF mid-frame raises {!Yali_util.Bin.Corrupt}. *)
val read_frame : Unix.file_descr -> string option

(** Incremental frame extraction for the server's [select] loop: feed
    whatever [read] returned, get back every frame completed so far.
    Pending bytes live in one growable buffer, so reassembling a frame
    takes time linear in its length whatever the read size.  [feed]
    copies what it keeps: the caller may reuse its chunk buffer. *)
module Dechunk : sig
  type t

  val create : unit -> t

  (** @raise Yali_util.Bin.Corrupt when a header exceeds {!max_frame} *)
  val feed : t -> bytes -> int -> string list
end
