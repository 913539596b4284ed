(** Little-endian binary readers and writers: the byte-level substrate of
    the serving layer's wire format ({!Yali_serve.Codec}) and of the model
    snapshots ({!Yali_ml.Model.save}).

    Writers append to a plain [Buffer.t]; readers walk a [string] with an
    explicit cursor and validate every access, so a truncated or corrupted
    input always raises {!Corrupt} — never an out-of-bounds crash or a
    silently wrong value.  Floats travel as their IEEE-754 bit patterns,
    so a round trip is bit-identical (NaN payloads included). *)

(** Raised by every reader on malformed input (truncation, bad tag,
    negative length, trailing bytes).  The message says what was expected
    and at which byte offset. *)
exception Corrupt of string

type r
(** A read cursor over an immutable byte string. *)

val reader : string -> r

(** Current cursor position, in bytes from the start. *)
val pos : r -> int

(** Bytes left between the cursor and the end of the input. *)
val remaining : r -> int

(** @raise Corrupt when input remains past the cursor. *)
val expect_end : r -> unit

val fail : r -> string -> 'a
(** [fail r what] raises {!Corrupt} mentioning [what] and the offset. *)

(** {1 Writers} *)

val w_u8 : Buffer.t -> int -> unit
val w_u16 : Buffer.t -> int -> unit

(** @raise Invalid_argument when the value does not fit in 32 unsigned
    bits (lengths and counts are always non-negative). *)
val w_u32 : Buffer.t -> int -> unit

val w_i64 : Buffer.t -> int64 -> unit

(** The int as a full i64 (OCaml ints fit). *)
val w_int : Buffer.t -> int -> unit

(** IEEE-754 bits, 8 bytes. *)
val w_f64 : Buffer.t -> float -> unit

(** u32 byte length + raw bytes. *)
val w_str : Buffer.t -> string -> unit

(** u32 count + each element via [f]. *)
val w_seq : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

val w_arr : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a array -> unit
val w_floats : Buffer.t -> float array -> unit
val w_ints : Buffer.t -> int array -> unit

(** {1 Readers (each raises {!Corrupt} on truncation)} *)

val r_u8 : r -> int
val r_u16 : r -> int
val r_u32 : r -> int
val r_i64 : r -> int64
val r_int : r -> int
val r_f64 : r -> float
val r_str : r -> string

(** [r_raw r n] reads exactly [n] raw bytes. *)
val r_raw : r -> int -> string

(** [r_count r what] reads a u32 element count and rejects one beyond the
    bytes left (each element takes at least one), so a hostile count never
    sizes an allocation. *)
val r_count : r -> string -> int

val r_seq : r -> (r -> 'a) -> 'a list
val r_arr : r -> (r -> 'a) -> 'a array
val r_floats : r -> float array
val r_ints : r -> int array
