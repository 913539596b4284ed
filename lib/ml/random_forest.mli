(** Random forests: bagged CART trees with per-split feature subsampling and
    majority voting — the paper's consistently best model (§4.2).

    The training matrix is binned once ({!Decision_tree.prebin}) and shared
    read-only across all trees; bootstrap samples are index arrays into the
    shared {!Fmat}, not row copies. *)

type t

type params = { n_trees : int; max_depth : int }

val default_params : params

(** A source that is one block is binned once and shared by every tree.
    Larger sources grow each tree on a gather of the rows its bootstrap
    drew, streaming the blocks once per group of trees (one block
    resident). *)
val train :
  ?params:params ->
  ?block_rows:int ->
  Yali_util.Rng.t ->
  n_classes:int ->
  Fblock.source ->
  int array ->
  t

(** The grown trees, in training order (equivalence tests). *)
val trees : t -> Decision_tree.t array

(** Per-class tree vote counts as floats, the model's one scorer
    ({!Model.restore} derives its predictions from them: a voting tie
    resolves to the lowest class). *)
val margins : t -> float array -> float array

(** Approximate heap footprint. *)
val size_bytes : t -> int

(** Serialise the trained model bit-exactly ({!Model.save}'s weights). *)
val to_bin : Buffer.t -> t -> unit

(** @raise Yali_util.Bin.Corrupt on malformed input *)
val of_bin : Yali_util.Bin.r -> t
