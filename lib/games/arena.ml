(** The classification arena: wires a dataset split, an embedding, a model
    and a game setup into an accuracy measurement.  This is the engine
    behind every figure of the paper's evaluation.

    All hot loops — materialising IR under the game's resources, embedding
    both dataset halves, sweeping the challenge set — fan out over
    {!Yali_exec.Pool} and report through {!Yali_exec.Telemetry}.  Runs are
    bit-identical at any [jobs] setting: every per-item RNG is pre-derived
    on the calling domain ({!Rng.split_n}), lowering and embedding are pure
    functions, and each task writes only its own result slot. *)

module Rng = Yali_util.Rng
module Exec = Yali_exec
module E = Yali_embeddings
module Ml = Yali_ml
module Irmod = Yali_ir.Irmod

type result = {
  accuracy : float;
  f1 : float;
  model_bytes : int;
  train_seconds : float;
  n_train : int;
  n_test : int;
}

(* materialise the IR of both dataset halves under the game's resources *)
let build_modules (rng : Rng.t) (setup : Game.setup)
    (split : Yali_dataset.Poj.split) : (Irmod.t * int) array * (Irmod.t * int) array
    =
  Exec.Telemetry.with_span "arena.build_modules" (fun () ->
      (* derivation order matches the former sequential loops: all train
         streams first, then all test streams *)
      let train_rngs = Rng.split_n rng (Array.length split.train) in
      let test_rngs = Rng.split_n rng (Array.length split.test) in
      let train =
        Exec.Pool.parallel_array_mapi
          (fun i (s : Yali_dataset.Poj.labelled) ->
            (setup.Game.train_tx train_rngs.(i) s.src, s.label))
          split.train
      in
      let test =
        Exec.Pool.parallel_array_mapi
          (fun i (s : Yali_dataset.Poj.labelled) ->
            ( setup.Game.normalize (setup.Game.challenge_tx test_rngs.(i) s.src),
              s.label ))
          split.test
      in
      (train, test))

(** Embed a module array straight into a flat feature matrix: each
    embedding vector is written into its row of one contiguous block, so no
    intermediate [float array array] is ever materialised. *)
let embed_fmat (embedding : E.Embedding.t) (mods : (Irmod.t * int) array) :
    Ml.Fmat.t =
  Exec.Telemetry.with_span "arena.embed" (fun () ->
      Ml.Fmat.parallel_of_fn ~n:(Array.length mods) (fun i ->
          E.Embedding.to_flat embedding (fst mods.(i))))

type modules = (Irmod.t * int) array * (Irmod.t * int) array

(* train under the arena.train span, predict under arena.predict, score *)
let score ~n_classes ~n_train ~train ~predict ~size (test_mods : (Irmod.t * int) array) =
  let t0 = Exec.Telemetry.clock () in
  let trained = Exec.Telemetry.with_span "arena.train" train in
  let train_seconds = Exec.Telemetry.clock () -. t0 in
  let truth = Array.map snd test_mods in
  let pred = Exec.Telemetry.with_span "arena.predict" (fun () -> predict trained) in
  {
    accuracy = Ml.Metrics.accuracy truth pred;
    f1 = Ml.Metrics.macro_f1 (Ml.Metrics.confusion ~n_classes truth pred);
    model_bytes = size trained;
    train_seconds;
    n_train;
    n_test = Array.length truth;
  }

let flat_cell (rng : Rng.t) ~(n_classes : int) (embedding : E.Embedding.t)
    (model : Ml.Model.flat) ((train_mods, test_mods) : modules) : result =
  let xs = embed_fmat embedding train_mods in
  let challenges = embed_fmat embedding test_mods in
  score ~n_classes ~n_train:xs.Ml.Fmat.n test_mods
    ~train:(fun () -> model.ftrain rng ~n_classes xs (Array.map snd train_mods))
    ~predict:(fun (t : Ml.Model.trained) -> t.predict_batch challenges)
    ~size:(fun t -> t.size_bytes)

(** Flat embeddings are wrapped as single-node graphs, mirroring the
    paper's note that the graph layers "find no service" on arrays. *)
let graph_cell (rng : Rng.t) ~(n_classes : int) (embedding : E.Embedding.t)
    ((train_mods, test_mods) : modules) : result =
  let embed = E.Embedding.to_graph embedding in
  let graphs =
    Exec.Telemetry.with_span "arena.embed" (fun () ->
        Exec.Pool.parallel_array_map (fun (m, _) -> embed m) train_mods)
  in
  let feat_dim =
    if Array.length graphs = 0 then 1 else graphs.(0).E.Graph.feat_dim
  in
  score ~n_classes ~n_train:(Array.length graphs) test_mods
    ~train:(fun () ->
      Ml.Model.dgcnn.gtrain rng ~n_classes ~feat_dim graphs (Array.map snd train_mods))
    ~predict:(fun (t : Ml.Model.gtrained) ->
      Exec.Pool.parallel_array_map (fun (m, _) -> t.gpredict (embed m)) test_mods)
    ~size:(fun t -> t.gsize_bytes)

let run_flat (rng : Rng.t) ~(n_classes : int) (embedding : E.Embedding.t)
    (model : Ml.Model.flat) (setup : Game.setup)
    (split : Yali_dataset.Poj.split) : result =
  let mods = build_modules (Rng.split rng) setup split in
  flat_cell (Rng.split rng) ~n_classes embedding model mods

let run_graph (rng : Rng.t) ~(n_classes : int) (embedding : E.Embedding.t)
    (setup : Game.setup) (split : Yali_dataset.Poj.split) : result =
  let mods = build_modules (Rng.split rng) setup split in
  graph_cell (Rng.split rng) ~n_classes embedding mods

(** The model used for the embedding-comparison experiments (RQ1): dgcnn on
    graph embeddings, its cnn truncation on flat ones — exactly the paper's
    protocol. *)
let run_neural (rng : Rng.t) ~(n_classes : int) (embedding : E.Embedding.t)
    (setup : Game.setup) (split : Yali_dataset.Poj.split) : result =
  if E.Embedding.is_flat embedding then
    run_flat rng ~n_classes embedding Ml.Model.cnn setup split
  else run_graph rng ~n_classes embedding setup split
