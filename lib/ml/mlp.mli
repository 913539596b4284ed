(** The SciKit-style multi-layer perceptron the paper evaluates as [mlp]:
    exactly one hidden layer of 100 ReLU units (§3.2).  A trained mlp is a
    {!Cnn.t} — a scaler and a network — so {!Cnn}'s margins and
    serialisation serve both. *)

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
  Cnn.t
