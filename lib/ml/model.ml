(** The classifier-model registry (paper, Figure 3): five SciKit-style
    stochastic models plus the two variants of Zhang et al.'s neural network
    ([cnn] on flat embeddings, [dgcnn] on graph embeddings), behind a single
    training interface.

    Flat models train on the contiguous {!Fmat} feature matrix.  Each has
    one scorer, {!margins}; {!restore} derives both the per-vector
    [predict] (the evader's interactive interface) and the batched
    [predict_batch] over a whole challenge matrix (the arena's bulk path)
    from it. *)

module Rng = Yali_util.Rng
module Graph = Yali_embeddings.Graph

type trained = {
  predict : float array -> int;
  predict_batch : Fmat.t -> int array;
  size_bytes : int;
}

type flat = {
  fname : string;
  ftrain : Rng.t -> n_classes:int -> Fmat.t -> int array -> trained;
}

type gtrained = { gpredict : Graph.t -> int; gsize_bytes : int }

type graph = {
  gname : string;
  gtrain :
    Rng.t -> n_classes:int -> feat_dim:int -> Graph.t array -> int array ->
    gtrained;
}

(* -- snapshots -------------------------------------------------------------- *)

module Bin = Yali_util.Bin

type snapshot =
  | S_lr of Logreg.t
  | S_svm of Svm.t
  | S_knn of Knn.t
  | S_mlp of Cnn.t
  | S_rf of Random_forest.t
  | S_cnn of Cnn.t

let snapshot_kind = function
  | S_lr _ -> "lr"
  | S_svm _ -> "svm"
  | S_knn _ -> "knn"
  | S_mlp _ -> "mlp"
  | S_rf _ -> "rf"
  | S_cnn _ -> "cnn"

let snapshot_kinds = [ "rf"; "svm"; "knn"; "lr"; "mlp"; "cnn" ]

(** One trainer per model, in memory or out of core: lr/svm/mlp/cnn run
    minibatch SGD over the source's blocks, rf grows trees over them, and
    knn keeps every training row by definition (it materialises the
    source).  The block layout is {!Fblock}'s: a [Mem] source given no
    [block_rows] is one block. *)
let train_snapshot ?block_rows name rng ~n_classes (src : Fblock.source) ys =
  match name with
  | "lr" -> Some (S_lr (Logreg.train ?block_rows rng ~n_classes src ys))
  | "svm" -> Some (S_svm (Svm.train ?block_rows rng ~n_classes src ys))
  | "knn" -> Some (S_knn (Knn.train ~n_classes (Fblock.materialize src) ys))
  | "mlp" -> Some (S_mlp (Mlp.train ?block_rows rng ~n_classes src ys))
  | "rf" -> Some (S_rf (Random_forest.train ?block_rows rng ~n_classes src ys))
  | "cnn" -> Some (S_cnn (Cnn.train ?block_rows rng ~n_classes src ys))
  | _ -> None

let argmax = Fmat.argmax

(** Per-class scores of a snapshot — raw logits for lr/mlp/cnn, one-vs-rest
    scores for svm, vote counts for knn/rf — and each kind's only scorer:
    {!restore} derives [predict] and [predict_batch] from it, and a
    {!save}/{!load} round trip preserves the scores exactly.  The adaptive
    evaders ({!Yali_adapt}) optimise against these scores. *)
let margins = function
  | S_lr m -> Logreg.margins m
  | S_svm m -> Svm.margins m
  | S_knn m -> Knn.margins m
  | S_rf m -> Random_forest.margins m
  | S_mlp m | S_cnn m -> Cnn.margins m

let fits_dim s dim =
  let rec splits_below = function
    | Decision_tree.Leaf _ -> true
    | Split { feature; left; right; _ } ->
        feature < dim && splits_below left && splits_below right
  in
  match s with
  | S_lr m -> Logreg.input_dim m = dim
  | S_svm m -> Svm.input_dim m = dim
  | S_knn m -> Knn.input_dim m = dim
  | S_mlp m | S_cnn m -> Cnn.input_dim m = dim
  | S_rf m ->
      Array.for_all
        (fun (t : Decision_tree.t) -> splits_below t.root)
        (Random_forest.trees m)

let size_bytes = function
  | S_lr m -> Logreg.size_bytes m
  | S_svm m -> Svm.size_bytes m
  | S_knn m -> Knn.size_bytes m
  | S_rf m -> Random_forest.size_bytes m
  | S_mlp m | S_cnn m -> Cnn.size_bytes m

(* Both predictors are the first maximum of [margins], so a class and the
   scores it came from never disagree.  [predict_batch] fans the rows out
   over the pool in chunks; each task writes only its own slots, so the
   output is the same at any [jobs]. *)
let restore s =
  let margins = margins s in
  let predict v = argmax (margins v) in
  let predict_batch (x : Fmat.t) =
    let pred = Array.make x.Fmat.n 0 in
    Yali_exec.Pool.parallel_for_chunks ~min_chunk:16 x.Fmat.n (fun lo hi ->
        for i = lo to hi - 1 do
          pred.(i) <- predict (Fmat.row_copy x i)
        done);
    pred
  in
  { predict; predict_batch; size_bytes = size_bytes s }

(* -- the flat models ------------------------------------------------------ *)

(* [ftrain] is the snapshot trainer on the in-memory matrix.  [working_set]
   charges Figure 7's memory column for the training matrix a model keeps
   hot, in multiples of its footprint: rf bins it, and the paper's cnn is a
   memory hog relative to mlp because it keeps the full activation
   planes. *)
let flat_model ?(working_set = 0) fname =
  {
    fname;
    ftrain =
      (fun rng ~n_classes x ys ->
        let snapshot = train_snapshot fname rng ~n_classes (Fblock.Mem x) ys in
        let t = restore (Option.get snapshot) in
        let working = working_set * Features.bytes_of_fmat x in
        { t with size_bytes = t.size_bytes + working });
  }

let rf = flat_model ~working_set:1 "rf"
let svm = flat_model "svm"
let knn = flat_model "knn"
let lr = flat_model "lr"
let mlp = flat_model "mlp"
let cnn = flat_model ~working_set:4 "cnn"

let dgcnn =
  {
    gname = "dgcnn";
    gtrain =
      (fun rng ~n_classes ~feat_dim graphs ys ->
        let m = Dgcnn.train rng ~n_classes ~feat_dim graphs ys in
        { gpredict = Dgcnn.predict m; gsize_bytes = Dgcnn.size_bytes m });
  }

(** The six models of the paper's Figures 7–12 grids, which all consume the
    flat HISTOGRAM embedding. *)
let all_flat : flat list = [ rf; svm; knn; lr; mlp; cnn ]

let find_flat name = List.find_opt (fun m -> m.fname = name) all_flat

(* Snapshot blob: magic + u16 version + u8 kind tag + weight payload.
   The magic keeps a model file from ever being confused with an IR blob
   (Serve.Codec uses "YALI"); the version gates decoder evolution. *)

let magic = "YMDL"
let version = 1

let kind_tag = function
  | S_lr _ -> 0
  | S_svm _ -> 1
  | S_knn _ -> 2
  | S_mlp _ -> 3
  | S_rf _ -> 4
  | S_cnn _ -> 5

let save (s : snapshot) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  Bin.w_u16 b version;
  Bin.w_u8 b (kind_tag s);
  (match s with
  | S_lr m -> Logreg.to_bin b m
  | S_svm m -> Svm.to_bin b m
  | S_knn m -> Knn.to_bin b m
  | S_rf m -> Random_forest.to_bin b m
  | S_mlp m | S_cnn m -> Cnn.to_bin b m);
  Buffer.contents b

let load (blob : string) : snapshot =
  let r = Bin.reader blob in
  let m = Bin.r_raw r 4 in
  if m <> magic then Bin.fail r (Printf.sprintf "bad model magic %S" m);
  let v = Bin.r_u16 r in
  if v <> version then
    Bin.fail r (Printf.sprintf "model version skew: got %d, expected %d" v version);
  let s =
    match Bin.r_u8 r with
    | 0 -> S_lr (Logreg.of_bin r)
    | 1 -> S_svm (Svm.of_bin r)
    | 2 -> S_knn (Knn.of_bin r)
    | 3 -> S_mlp (Cnn.of_bin r)
    | 4 -> S_rf (Random_forest.of_bin r)
    | 5 -> S_cnn (Cnn.of_bin r)
    | n -> Bin.fail r (Printf.sprintf "bad model kind tag %d" n)
  in
  Bin.expect_end r;
  s
