(** Out-of-core feature matrices: a fixed-width row file on disk, read back
    as fixed-size {!Fmat} blocks (DESIGN.md §12).

    The file is a 14-byte header (magic ["YFMB"], u16 version, u32 rows,
    u32 dim) followed by [n*d] IEEE-754 doubles, little-endian bit
    patterns — the same encoding as {!Yali_util.Bin.w_f64}, so a write/read
    round trip is bit-identical.  {!open_reader} validates magic, version
    and exact byte length; any mismatch raises {!Yali_util.Bin.Corrupt}.

    A {!source} abstracts over in-memory and on-disk matrices, so each
    model has one trainer ([Logreg.train] & co.) for both.  Block layout is
    decided here alone: a [Mem] source given no [block_rows] is one block
    at any size, a [Disk] source {!default_block_rows} per block.
    {!iter_blocks} visits rows in order as sequential blocks; every block
    handed to the callback is freshly allocated (a file read or a copy of
    the in-memory slice), so callees may standardise it in place. *)

val magic : string
val version : int

(** Rows per block of a [Disk] source given no [?block_rows].  A corpus
    that fits one block trains exactly as the same rows in memory do (the
    equivalence argument of DESIGN.md §12). *)
val default_block_rows : int

(** Pre-size a feature file (header plus a hole for [n*d] doubles) so
    parallel writers can fill disjoint row ranges. *)
val create_sized : string -> n:int -> d:int -> unit

(** A positioned row writer over a pre-sized file ({!create_sized}): each
    task opens its own descriptor and writes only its own row indices, so
    concurrent writers over disjoint rows are safe and deterministic. *)
module Pwrite : sig
  type t

  val open_ : string -> d:int -> t
  val write_row : t -> int -> float array -> unit
  val close : t -> unit
end

type reader

(** @raise Yali_util.Bin.Corrupt on bad magic, version skew, or a byte
    length that contradicts the header (a truncated or stale file);
    @raise Sys_error as [open_in] *)
val open_reader : string -> reader

val close_reader : reader -> unit

(** A feature-matrix source the streamed trainers consume. *)
type source = Mem of Fmat.t | Disk of reader

val rows : source -> int
val dim : source -> int

(** [iter_blocks ~block_rows src f] calls [f row_offset block] for each
    consecutive block of at most [block_rows] rows, in row order.  Blocks
    are fresh matrices the callee may mutate.
    @raise Invalid_argument when [block_rows < 1] *)
val iter_blocks : ?block_rows:int -> source -> (int -> Fmat.t -> unit) -> unit

(** Row count of each block {!iter_blocks} visits, in order. *)
val block_sizes : ?block_rows:int -> source -> int array

val n_blocks : ?block_rows:int -> source -> int

(** [prepared ~block_rows src prepare] is the block walk of one training
    run, which a trainer calls once per epoch: each call [f k row_offset
    block] visits every block [k] in row order, passed through [prepare].
    A source that is one block is read and prepared once, when [prepared]
    is applied to [prepare], and that block is handed read-only to every
    call; larger sources are re-read and re-prepared block by block on
    every call, so at most one block is resident. *)
val prepared :
  ?block_rows:int ->
  source ->
  (Fmat.t -> Fmat.t) ->
  (int -> int -> Fmat.t -> unit) ->
  unit

(** The whole source as one in-memory matrix ([Mem] is returned as-is). *)
val materialize : source -> Fmat.t

(** Write a matrix into the on-disk format (bit-exact round trip). *)
val to_file : string -> Fmat.t -> unit
