(** Multinomial logistic regression (softmax) trained with mini-batch
    gradient descent and L2 regularisation — SciKit's [lr] counterpart. *)

type t

type params = { epochs : int; lr : float; l2 : float; batch : int }

val default_params : params

(** Minibatch SGD over feature blocks; per-epoch shuffles stay within a
    block.  Every source that is one block — in memory or on disk — fits
    the same model (DESIGN.md §12). *)
val train :
  ?params:params ->
  ?block_rows:int ->
  Yali_util.Rng.t ->
  n_classes:int ->
  Fblock.source ->
  int array ->
  t

(** The fitted class-by-feature weight matrix and per-class bias
    (equivalence tests). *)
val weights : t -> Fmat.t

val bias : t -> float array

(** Per-class raw logits, the model's one scorer ({!Model.restore} derives
    its predictions from them). *)
val margins : t -> float array -> float array

(** The width of the feature vectors it scores: its scaler's. *)
val input_dim : t -> int

val size_bytes : t -> int

(** Serialise the trained model bit-exactly ({!Model.save}'s weights). *)
val to_bin : Buffer.t -> t -> unit

(** @raise Yali_util.Bin.Corrupt on malformed input *)
val of_bin : Yali_util.Bin.r -> t
