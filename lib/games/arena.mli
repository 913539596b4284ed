(** The classification arena: wires a dataset split, an embedding, a model
    and a game setup into an accuracy measurement — the engine behind every
    figure of the paper's evaluation. *)

type result = {
  accuracy : float;
  f1 : float;
  model_bytes : int;
  train_seconds : float;
  n_train : int;
  n_test : int;
}

(** Materialise the IR of both dataset halves under the game's resources:
    training modules via [train_tx], challenges via [normalize ∘
    challenge_tx]. *)
val build_modules :
  Yali_util.Rng.t ->
  Game.setup ->
  Yali_dataset.Poj.split ->
  (Yali_ir.Irmod.t * int) array * (Yali_ir.Irmod.t * int) array

(** Embed a module array straight into a flat feature matrix (no
    intermediate row arrays). *)
val embed_fmat :
  Yali_embeddings.Embedding.t ->
  (Yali_ir.Irmod.t * int) array ->
  Yali_ml.Fmat.t

(** The training modules and the challenges of one round, as
    {!build_modules} returns them. *)
type modules = (Yali_ir.Irmod.t * int) array * (Yali_ir.Irmod.t * int) array

(** One arena cell with a flat model over modules already built: embed
    both halves, train on the given rng (unsplit), predict the
    challenges.  A figure row builds a round's modules once and runs one
    cell per model over them. *)
val flat_cell :
  Yali_util.Rng.t ->
  n_classes:int ->
  Yali_embeddings.Embedding.t ->
  Yali_ml.Model.flat ->
  modules ->
  result

(** One arena cell with the DGCNN over a graph embedding, as {!flat_cell}. *)
val graph_cell :
  Yali_util.Rng.t ->
  n_classes:int ->
  Yali_embeddings.Embedding.t ->
  modules ->
  result

(** Run a game with a flat model (graph embeddings are flattened):
    {!build_modules} on the first split of the rng, then {!flat_cell} on
    the second. *)
val run_flat :
  Yali_util.Rng.t ->
  n_classes:int ->
  Yali_embeddings.Embedding.t ->
  Yali_ml.Model.flat ->
  Game.setup ->
  Yali_dataset.Poj.split ->
  result

(** Run a game with the DGCNN over a graph embedding: {!build_modules},
    then {!graph_cell}, as {!run_flat}. *)
val run_graph :
  Yali_util.Rng.t ->
  n_classes:int ->
  Yali_embeddings.Embedding.t ->
  Game.setup ->
  Yali_dataset.Poj.split ->
  result

(** The paper's RQ1 protocol: dgcnn on graph embeddings, its cnn truncation
    on flat ones. *)
val run_neural :
  Yali_util.Rng.t ->
  n_classes:int ->
  Yali_embeddings.Embedding.t ->
  Game.setup ->
  Yali_dataset.Poj.split ->
  result
