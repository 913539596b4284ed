(** The SciKit-style multi-layer perceptron the paper evaluates as [mlp]:
    exactly one hidden layer of 100 ReLU units (§3.2). *)

type t

type params = { hidden : int; epochs : int; lr : float }

val default_params : params

(** Per-sample SGD over feature blocks; every source that is one block fits
    the same model. *)
val train :
  ?params:params ->
  ?block_rows:int ->
  Yali_util.Rng.t ->
  n_classes:int ->
  Fblock.source ->
  int array ->
  t

val predict : t -> float array -> int

(** Per-class raw logits; the first-maximum index is exactly {!predict}'s
    decision. *)
val margins : t -> float array -> float array

(** Classify every row of a flat matrix (batched dense inference). *)
val predict_batch : t -> Fmat.t -> int array

val size_bytes : t -> int

(** Serialise the trained model bit-exactly ({!Model.save}'s weights). *)
val to_bin : Buffer.t -> t -> unit

(** @raise Yali_util.Bin.Corrupt on malformed input *)
val of_bin : Yali_util.Bin.r -> t
