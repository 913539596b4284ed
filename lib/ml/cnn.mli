(** The flat-input truncation of Zhang et al.'s DGCNN that the paper calls
    [cnn] (§3.2): 1-D convolution, max pooling, a second convolution, dense
    + dropout, dense classifier.  On inputs too narrow for the convolutional
    front end, only the dense tail is used.

    Trained by minibatch SGD through the batched {!Nn.train_batch} step,
    whose window kernels read each convolution's windows and each dense
    layer's rows in place (no im2col, no transposed weights) —
    bit-identical at any [--jobs] and to the frozen naive trainer in
    [Reference.Cnn] (the ml/nn-kernel-vs-reference oracle).

    A trained {!Mlp} is a [t] too: standardise, then run the network.  The
    functions from {!margins} to {!of_bin} serve both models. *)

type t

type params = { epochs : int; lr : float; batch : int }

val default_params : params

(** Minibatch SGD over feature blocks (DESIGN.md §12/§15); per-epoch
    shuffles and minibatches stay within a block.  Every source that is one
    block fits the same model. *)
val train :
  ?params:params ->
  ?block_rows:int ->
  Yali_util.Rng.t ->
  n_classes:int ->
  Fblock.source ->
  int array ->
  t

(** Per-class raw logits, the model's one scorer ({!Model.restore} derives
    its predictions from them). *)
val margins : t -> float array -> float array

(** The width of the feature vectors it scores: its scaler's. *)
val input_dim : t -> int

val size_bytes : t -> int

(** Training internals, exposed for the frozen reference trainer
    ([Reference.Cnn]) and the differential tests: the architecture builder
    (consumes the rng exactly as {!train}'s initialisation does),
    reassembly from parts ({!Mlp.train} builds its model this way too),
    and the parameter dump compared for bit-identity. *)

val build_net : Yali_util.Rng.t -> d_in:int -> n_classes:int -> Nn.t

val of_parts : scaler:Features.scaler -> net:Nn.t -> t
val dump_weights : t -> float array array

(** Serialise bit-exactly (scaler + all layers, conv included). *)
val to_bin : Buffer.t -> t -> unit

(** @raise Yali_util.Bin.Corrupt on malformed input *)
val of_bin : Yali_util.Bin.r -> t
