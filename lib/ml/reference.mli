(** Frozen pre-kernel-layer model implementations, kept {e only} for the
    differential property tests (test/test_fmat.ml) and the before/after
    numbers of [bench kernels].  Framework code must not depend on this
    module.  See the implementation's module comment for the one deliberate
    deviation (the tree adopts the rewritten tree's total feature
    tie-break). *)

module Decision_tree : sig
  type node =
    | Leaf of int
    | Split of { feature : int; threshold : float; left : node; right : node }

  type t = { root : node; n_classes : int }

  type params = {
    max_depth : int;
    min_samples_split : int;
    features_per_split : int option;
  }

  val default_params : params

  val train :
    ?params:params ->
    Yali_util.Rng.t ->
    n_classes:int ->
    float array array ->
    int array ->
    t

  val predict : t -> float array -> int

  (** Whether a grown tree equals a reference tree node for node: the same
      feature, threshold bits ([Int64.bits_of_float]) and leaf class
      everywhere. *)
  val same_tree : Decision_tree.node -> node -> bool
end

module Random_forest : sig
  type t = { trees : Decision_tree.t array; n_classes : int }

  type params = { n_trees : int; max_depth : int }

  val default_params : params

  val train :
    ?params:params ->
    Yali_util.Rng.t ->
    n_classes:int ->
    float array array ->
    int array ->
    t

  val predict : t -> float array -> int
end

module Knn : sig
  type t

  val train :
    ?k:int -> n_classes:int -> float array array -> int array -> t

  val predict : t -> float array -> int
end

module Logreg : sig
  type t = {
    scaler : Features.scaler;
    weights : Fmat.t;
    bias : float array;
    n_classes : int;
  }

  type params = { epochs : int; lr : float; l2 : float; batch : int }

  val default_params : params

  val train :
    ?params:params ->
    Yali_util.Rng.t ->
    n_classes:int ->
    float array array ->
    int array ->
    t

  val predict : t -> float array -> int
end

(** The Pegasos trainer as it stood before {!Svm.train} scored every class
    of a sample in one matrix-vector pass: each class's margin is its own
    chain, read just before that class's update.  Same signature, blocks
    included, and byte-identical {!Model.save} snapshots. *)
module Svm : sig
  val train :
    ?params:Svm.params ->
    ?block_rows:int ->
    Yali_util.Rng.t ->
    n_classes:int ->
    Fblock.source ->
    int array ->
    Svm.t
end

(** The allocating per-sample mlp trainer that {!Mlp.train} replaced, with
    its own naive matrix-vector, vector-matrix and softmax loops: the same
    initialisation draws, scaler and shuffles on one block, and
    bit-identical weights. *)
module Mlp : sig
  val train :
    ?params:Mlp.params ->
    Yali_util.Rng.t ->
    n_classes:int ->
    float array array ->
    int array ->
    Cnn.t
end

(** Frozen naive minibatch trainers for the neural tier (DESIGN.md §15): the
    SAME minibatch algorithm as [Nn.train_batch] and the cnn/dgcnn trainers
    — same shard boundaries, accumulation chains and rng draw order — as
    sequential per-sample boxed loops.  The ml/nn-kernel-vs-reference
    oracles and [bench nn] pin the kernelized trainers bit-identical to
    these, and measure the speedup against them. *)

module Nnb : sig
  (** Naive counterpart of [Nn.train_batch], training through [Nn.view]
      (shared storage). *)
  val train_batch :
    lr:float ->
    rng:Yali_util.Rng.t ->
    Nn.t ->
    Fmat.t ->
    int array ->
    float * Fmat.t
end

module Cnn : sig
  (** Naive counterpart of [Cnn.train]; bit-identical weights. *)
  val train :
    ?params:Cnn.params ->
    Yali_util.Rng.t ->
    n_classes:int ->
    Fmat.t ->
    int array ->
    Cnn.t
end

module Dgcnn : sig
  (** Naive counterpart of [Dgcnn.train]; bit-identical weights. *)
  val train :
    ?params:Dgcnn.params ->
    Yali_util.Rng.t ->
    n_classes:int ->
    feat_dim:int ->
    Yali_embeddings.Graph.t array ->
    int array ->
    Dgcnn.t
end
