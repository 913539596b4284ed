(** The sharded on-disk corpus: labelled IR modules in the {!Yali_serve.Codec}
    binary format, split across append-only shard files plus one index
    (DESIGN.md §12).

    Layout under a corpus directory:

    - [corpus.ycix] — magic ["YCIX"], u16 version, the generation meta
      string, class count, a shard table (record count and byte size per
      shard) and a record table (shard, byte offset, payload length, label
      per record).
    - [shard-NNNN.yshd] — magic ["YSHD"], u16 version, u16 shard id, then
      u32-length-framed records, each a u16 label followed by one
      {!Yali_serve.Codec} module blob.
    - [features-<embedding>.yfmb] — the records embedded under one
      embedding, a {!Yali_ml.Fblock} feature file derived from the shards
      ({!Train.ensure_features}).

    Shards are written independently (one {!Shard} per generation task, a
    private descriptor each), so generation fans out over
    {!Yali_exec.Pool} while content stays deterministic: record [i] of the
    corpus is fixed by the generation plan, not by scheduling.

    {!open_} validates the whole layout up front — index magic/version,
    every shard's header and exact byte size — and every record read
    re-checks its frame against the index, so a truncated shard or a stale
    index raises {!Yali_util.Bin.Corrupt}, never a crash or a silently
    wrong module. *)

val index_magic : string
val shard_magic : string
val version : int

(** ["corpus.ycix"] within the corpus directory. *)
val index_file : string -> string

(** ["shard-0007.yshd"] within the corpus directory. *)
val shard_file : string -> int -> string

(** ["features-histogram.yfmb"] within the corpus directory, for an
    embedding name. *)
val features_file : string -> string -> string

(** Delete every feature file in the corpus directory: they describe the
    records of the corpus they were derived from, so a writer about to
    replace those records removes them first. *)
val remove_features : string -> unit

(** The index entry of one record. *)
type entry = { e_shard : int; e_off : int; e_len : int; e_label : int }

(** One shard under construction — the unit of parallel generation. *)
module Shard : sig
  type t

  val create : dir:string -> int -> t

  (** Encode and frame one labelled module at the end of the shard. *)
  val append : t -> label:int -> Yali_ir.Irmod.t -> unit

  (** Close the shard; its index entries (in append order) and final byte
      size, ready for {!write_index}. *)
  val finish : t -> entry array * int
end

(** Write [corpus.ycix] from per-shard results, in shard order (shard [s]
    holds the records preceding shard [s+1]'s).  Atomic: the index is
    renamed into place, so a crashed generation leaves no valid corpus. *)
val write_index :
  dir:string -> meta:string -> n_classes:int -> (entry array * int) array ->
  unit

type reader

(** Open and validate a corpus directory.
    @raise Yali_util.Bin.Corrupt on bad magic, version skew, a missing
    shard, or a shard whose size contradicts the index (truncation, stale
    index); @raise Sys_error when the index file is missing *)
val open_ : string -> reader

val close : reader -> unit

(** The generation meta string recorded at write time (a
    {!Gen.spec} rendering for generated corpora). *)
val meta : reader -> string

val n_classes : reader -> int
val length : reader -> int
val shard_count : reader -> int

(** Total shard bytes (as recorded in the index). *)
val total_bytes : reader -> int

(** Label of record [i], from the index alone (no decode). *)
val label : reader -> int -> int

(** All labels in record order, from the index alone. *)
val labels : reader -> int array

(** Decode record [i].
    @raise Yali_util.Bin.Corrupt when the shard frame contradicts the
    index or the payload is malformed *)
val get : reader -> int -> int * Yali_ir.Irmod.t

(** [iter r f] calls [f i ~label m] for every record in order. *)
val iter : reader -> (int -> label:int -> Yali_ir.Irmod.t -> unit) -> unit

(** [fold_shard r s ~init f] folds over shard [s]'s records (with their
    global record indices, in offset order) through a private descriptor —
    safe to run for distinct shards on distinct domains (the parallel
    embedding path). *)
val fold_shard :
  reader -> int -> init:'a ->
  ('a -> int -> label:int -> Yali_ir.Irmod.t -> 'a) -> 'a
