(** The classifier-model registry (paper, Figure 3): five SciKit-style
    models plus Zhang et al.'s neural network in its two guises — [cnn] on
    flat embeddings and [dgcnn] on graph embeddings — behind one training
    interface. *)

(** A trained flat-vector classifier.  [predict] classifies one vector;
    [predict_batch] classifies every row of a flat matrix at once (the
    arena's bulk path: [predict] of each row, rows fanned over the pool). *)
type trained = {
  predict : float array -> int;
  predict_batch : Fmat.t -> int array;
  size_bytes : int;
}

(** A trainable flat model: [ftrain] is {!train_snapshot} on the in-memory
    matrix, then {!restore}. *)
type flat = {
  fname : string;
  ftrain :
    Yali_util.Rng.t -> n_classes:int -> Fmat.t -> int array -> trained;
}

(** A trained graph classifier. *)
type gtrained = {
  gpredict : Yali_embeddings.Graph.t -> int;
  gsize_bytes : int;
}

(** A trainable graph model. *)
type graph = {
  gname : string;
  gtrain :
    Yali_util.Rng.t -> n_classes:int -> feat_dim:int ->
    Yali_embeddings.Graph.t array -> int array -> gtrained;
}

val rf : flat  (** random forest — the paper's consistent winner *)

val svm : flat  (** one-vs-rest linear SVM (averaged Pegasos) *)

val knn : flat  (** k-nearest neighbours (the only deterministic model) *)

val lr : flat  (** multinomial logistic regression *)

val mlp : flat  (** one hidden layer, 100 ReLU units (paper §3.2) *)

val cnn : flat  (** Zhang et al.'s network minus the graph layers *)

val dgcnn : graph  (** the full Deep Graph CNN *)

(** The six models of the Figures 7–12 grids (all consume flat vectors). *)
val all_flat : flat list

val find_flat : string -> flat option

(** {1 Snapshots}

    A snapshot is the concrete weight state of a trained flat model —
    matrices, biases, trees, the k-NN training set — rather than the
    closures of {!trained}, so it can be persisted and reloaded
    bit-exactly: {!restore} of a saved-and-loaded snapshot predicts
    bit-identically to the in-memory trained model.  Every flat model has a
    snapshot form; the graph-consuming [dgcnn] does not (margins and the
    registry are flat-vector interfaces). *)

type snapshot =
  | S_lr of Logreg.t
  | S_svm of Svm.t
  | S_knn of Knn.t
  | S_mlp of Cnn.t  (** a trained {!Mlp} *)
  | S_rf of Random_forest.t
  | S_cnn of Cnn.t

(** The registry name of the snapshot's model ("lr", "svm", ...). *)
val snapshot_kind : snapshot -> string

(** Names accepted by {!train_snapshot}, in registry order. *)
val snapshot_kinds : string list

(** Train the named model and capture its weights.  [None] for unknown
    names.  This is each model's one trainer, in memory ([Fblock.Mem]) or
    out of core ([Fblock.Disk], DESIGN.md §12): lr/svm/mlp/cnn run
    minibatch SGD over blocks, rf grows trees over them, knn materialises
    the source (it keeps every row by definition).  A [Mem] source given
    no [block_rows] is one block; every one-block source of the same rows
    gives the same snapshot. *)
val train_snapshot :
  ?block_rows:int ->
  string ->
  Yali_util.Rng.t ->
  n_classes:int ->
  Fblock.source ->
  int array ->
  snapshot option

(** The predictor of a snapshot, built the same way for every kind:
    [predict v] is [argmax (margins s v)], and [predict_batch] is [predict]
    of each row, so the two agree on every input, non-finite ones
    included.  Its [size_bytes] is the model's alone: [ftrain] adds the
    training matrix rf and cnn keep hot (Figure 7). *)
val restore : snapshot -> trained

(** First-maximum index of a score vector — the argmax convention of
    {!restore}'s [predict]: a later score displaces the best only when
    strictly greater, so ties break to the lowest class and a NaN neither
    displaces nor is displaced. *)
val argmax : float array -> int

(** Per-class scores of a snapshot on one feature vector — raw logits for
    lr/mlp/cnn, one-vs-rest scores for svm, vote counts for knn/rf.  This
    is each kind's only scorer: {!restore} derives every prediction from
    it, the scores survive a {!save}/{!load} round trip exactly, and the
    adaptive evaders ({!Yali_adapt}) optimise against them. *)
val margins : snapshot -> float array -> float array

(** Whether the snapshot scores feature vectors of width [dim]: lr, svm,
    knn, mlp and cnn need exactly their scaler's width, rf needs every
    split feature below [dim]. *)
val fits_dim : snapshot -> int -> bool

(** Serialise to the versioned binary form (magic ["YMDL"], version 1,
    kind tag, weight payload — DESIGN.md §11). *)
val save : snapshot -> string

(** @raise Yali_util.Bin.Corrupt on bad magic, version skew, a malformed
    payload, or a payload whose scorer would index out of range: a tree
    leaf or knn label outside [[0, n_classes)], a forest whose trees
    disagree with its class count, an lr, svm or knn scaler whose width
    differs from the weights' input width, or an mlp or cnn network whose
    layers do not take its scaler's width to its class count *)
val load : string -> snapshot
