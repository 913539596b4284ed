(** Multinomial logistic regression (softmax), trained with mini-batch
    gradient descent and L2 regularisation — SciKit's [lr] counterpart.

    Training walks flat offsets into the {!Fmat} training matrix; the float
    expressions and their evaluation order are those of the classic
    row-array implementation, so the fitted model is bit-identical to it
    (test/test_fmat.ml checks this against {!Reference.Logreg}). *)

module Rng = Yali_util.Rng

type t = {
  scaler : Features.scaler;
  weights : Matrix.t;  (** n_classes x d *)
  bias : float array;
  n_classes : int;
}

type params = { epochs : int; lr : float; l2 : float; batch : int }

let default_params = { epochs = 60; lr = 0.1; l2 = 1e-4; batch = 32 }

let softmax (z : float array) : float array =
  let m = Array.fold_left max neg_infinity z in
  let e = Array.map (fun x -> exp (x -. m)) z in
  let s = Array.fold_left ( +. ) 0.0 e in
  Array.map (fun x -> x /. s) e

let logits (w : Matrix.t) (bias : float array) (x : float array) : float array
    =
  Array.init (Array.length bias) (fun c ->
      let acc = ref bias.(c) in
      for j = 0 to Array.length x - 1 do
        acc := !acc +. (Matrix.get w c j *. x.(j))
      done;
      !acc)

(* logits of row [i] of a flat matrix: same accumulation order as [logits] *)
let logits_row (w : Matrix.t) (bias : float array) (xd : float array)
    (xbase : int) (d : int) : float array =
  Array.init (Array.length bias) (fun c ->
      let acc = ref bias.(c) in
      let wbase = c * w.Matrix.cols in
      for j = 0 to d - 1 do
        acc :=
          !acc
          +. Array.unsafe_get w.Matrix.data (wbase + j)
             *. Array.unsafe_get xd (xbase + j)
      done;
      !acc)

let argmax (v : float array) : int =
  let best = ref 0 in
  Array.iteri (fun i x -> if x > v.(!best) then best := i) v;
  !best

(** Minibatch SGD over blocks (DESIGN.md §12).  Each epoch walks the blocks
    in order, shuffling {e within} each block with a persistent-order
    Fisher–Yates; minibatches never cross a block boundary.  A source that
    is one block — any [Mem] source given no [block_rows] — is standardised
    once and shuffled as one global order, so training in memory and from
    a one-block feature file fit bit-identical models (the
    [corpus/stream-train-bit-identical] oracle holds {!Model.save} blobs
    equal). *)
let train ?(params = default_params) ?block_rows (rng : Rng.t)
    ~(n_classes : int) (src : Fblock.source) (ys : int array) : t =
  let scaler = Features.fit_stream ?block_rows src in
  let d = Fblock.dim src in
  let w = Matrix.random rng n_classes d ~scale:0.01 in
  let bias = Array.make n_classes 0.0 in
  (* per-block sample orders persist across epochs *)
  let orders =
    Array.map
      (fun bn -> Array.init bn Fun.id)
      (Fblock.block_sizes ?block_rows src)
  in
  let each_block =
    Fblock.prepared ?block_rows src (fun block ->
        Features.transform_fmat_inplace scaler block;
        block)
  in
  for epoch = 0 to params.epochs - 1 do
    let lr = params.lr /. (1.0 +. (0.05 *. float_of_int epoch)) in
    each_block (fun blk lo block ->
        let bn = block.Fmat.n in
        let xd = block.Fmat.data in
        let order = orders.(blk) in
        for i = bn - 1 downto 1 do
          let j = Rng.int rng (i + 1) in
          let tmp = order.(i) in
          order.(i) <- order.(j);
          order.(j) <- tmp
        done;
        let b = ref 0 in
        while !b < bn do
          let hi = min bn (!b + params.batch) in
          let gw = Matrix.create n_classes d and gb = Array.make n_classes 0.0 in
          let gd = gw.Matrix.data in
          for k = !b to hi - 1 do
            let i = order.(k) in
            let xbase = i * d in
            let p = softmax (logits_row w bias xd xbase d) in
            for c = 0 to n_classes - 1 do
              let err = p.(c) -. (if c = ys.(lo + i) then 1.0 else 0.0) in
              gb.(c) <- gb.(c) +. err;
              let gbase = c * d in
              for j = 0 to d - 1 do
                Array.unsafe_set gd (gbase + j)
                  (Array.unsafe_get gd (gbase + j)
                  +. (err *. Array.unsafe_get xd (xbase + j)))
              done
            done
          done;
          let bs = float_of_int (hi - !b) in
          let wd = w.Matrix.data in
          for c = 0 to n_classes - 1 do
            bias.(c) <- bias.(c) -. (lr *. gb.(c) /. bs);
            let base = c * d in
            for j = 0 to d - 1 do
              let wij = Array.unsafe_get wd (base + j) in
              Array.unsafe_set wd (base + j)
                (wij
                -. (lr
                   *. ((Array.unsafe_get gd (base + j) /. bs)
                      +. (params.l2 *. wij))))
            done
          done;
          b := hi
        done)
  done;
  { scaler; weights = w; bias; n_classes }

let weights (t : t) : Matrix.t = t.weights

let predict (t : t) (x : float array) : int =
  let x = Features.transform t.scaler x in
  argmax (logits t.weights t.bias x)

(** Per-class scores (raw logits).  Same standardisation and accumulation
    order as {!predict}, so the first-maximum of the returned vector IS the
    prediction. *)
let margins (t : t) (x : float array) : float array =
  let x = Features.transform t.scaler x in
  logits t.weights t.bias x

(** Classify every row: one cache-tiled [matmul_bias] computes the whole
    batch's logits with the same per-sample summation order as {!predict}. *)
let predict_batch (t : t) (x : Fmat.t) : int array =
  let x = Fmat.copy x in
  Features.transform_fmat_inplace t.scaler x;
  let logits =
    Matrix.matmul_bias ~bias:t.bias (Fmat.to_matrix x)
      (Matrix.transpose t.weights)
  in
  Array.init logits.Matrix.rows (fun i ->
      let base = i * logits.Matrix.cols in
      let best = ref 0 in
      for c = 1 to logits.Matrix.cols - 1 do
        if logits.Matrix.data.(base + c) > logits.Matrix.data.(base + !best)
        then best := c
      done;
      !best)

let size_bytes (t : t) : int =
  (8 * t.weights.rows * t.weights.cols) + (8 * Array.length t.bias)

module Bin = Yali_util.Bin

let to_bin b (t : t) =
  Features.scaler_to_bin b t.scaler;
  Matrix.to_bin b t.weights;
  Bin.w_floats b t.bias;
  Bin.w_u32 b t.n_classes

let of_bin r : t =
  let scaler = Features.scaler_of_bin r in
  let weights = Matrix.of_bin r in
  let bias = Bin.r_floats r in
  let n_classes = Bin.r_u32 r in
  if Array.length bias <> n_classes || weights.Matrix.rows <> n_classes then
    Bin.fail r "logreg shape mismatch";
  { scaler; weights; bias; n_classes }
