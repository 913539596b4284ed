(** Multinomial logistic regression (softmax), trained with mini-batch
    gradient descent and L2 regularisation — SciKit's [lr] counterpart.

    Training walks flat offsets into the {!Fmat} training matrix; each
    weight's float expressions and their order are those of the classic
    row-array implementation, so the fitted model is bit-identical to it
    (test/test_fmat.ml and `bench kernels` check this against
    {!Reference.Logreg}). *)

module Rng = Yali_util.Rng

type t = {
  scaler : Features.scaler;
  weights : Fmat.t;  (** n_classes x d *)
  bias : float array;
  n_classes : int;
}

type params = { epochs : int; lr : float; l2 : float; batch : int }

let default_params = { epochs = 60; lr = 0.1; l2 = 1e-4; batch = 32 }

(* logits of the features of [xd] from offset [xbase] (a row of a flat
   matrix, or a whole vector at offset 0) into [z]: each class sums from
   its bias in ascending feature order *)
let logits_into (w : Fmat.t) (bias : float array) (xd : float array)
    (xbase : int) (z : float array) : unit =
  Array.blit bias 0 z 0 (Array.length bias);
  Fmat.mv_into w xd ~off:xbase z

(* The minibatch gradient Eᵀ·X from the errors [et] (class-major: the
   error of class c on the batch's k-th sample at c*bs + k) and the
   samples' row offsets [xo] into [xd]: gw(c, j) starts from 0.0 and adds
   e(c, k) * x(k, j) for every sample k in ascending order, with no skip;
   gb(c) adds every e(c, k) in the same order.  Four features side by side
   are four independent chains. *)
let gradient ~(bs : int) (et : float array) (xo : int array)
    (xd : float array) (gw : Fmat.t) (gb : float array) : unit =
  let d = gw.Fmat.d and gd = gw.Fmat.data in
  let acc0 = ref 0.0 and acc1 = ref 0.0 and acc2 = ref 0.0 and acc3 = ref 0.0 in
  for c = 0 to gw.Fmat.n - 1 do
    let eb = c * bs and gbase = c * d in
    acc0 := 0.0;
    for k = 0 to bs - 1 do
      acc0 := !acc0 +. Array.unsafe_get et (eb + k)
    done;
    gb.(c) <- !acc0;
    let j = ref 0 in
    while !j + 3 < d do
      let j0 = !j in
      acc0 := 0.0;
      acc1 := 0.0;
      acc2 := 0.0;
      acc3 := 0.0;
      for k = 0 to bs - 1 do
        let e = Array.unsafe_get et (eb + k)
        and xb = Array.unsafe_get xo k + j0 in
        acc0 := !acc0 +. (e *. Array.unsafe_get xd xb);
        acc1 := !acc1 +. (e *. Array.unsafe_get xd (xb + 1));
        acc2 := !acc2 +. (e *. Array.unsafe_get xd (xb + 2));
        acc3 := !acc3 +. (e *. Array.unsafe_get xd (xb + 3))
      done;
      Array.unsafe_set gd (gbase + j0) !acc0;
      Array.unsafe_set gd (gbase + j0 + 1) !acc1;
      Array.unsafe_set gd (gbase + j0 + 2) !acc2;
      Array.unsafe_set gd (gbase + j0 + 3) !acc3;
      j := j0 + 4
    done;
    for j = !j to d - 1 do
      acc0 := 0.0;
      for k = 0 to bs - 1 do
        acc0 :=
          !acc0
          +. Array.unsafe_get et (eb + k)
             *. Array.unsafe_get xd (Array.unsafe_get xo k + j)
      done;
      Array.unsafe_set gd (gbase + j) !acc0
    done
  done

(** Minibatch SGD over blocks (DESIGN.md §12).  Each epoch walks the blocks
    in order, shuffling {e within} each block with a persistent-order
    Fisher–Yates; minibatches never cross a block boundary.  A source that
    is one block — any [Mem] source given no [block_rows] — is standardised
    once and shuffled as one global order, so training in memory and from
    a one-block feature file fit bit-identical models (the
    [corpus/stream-train-bit-identical] oracle holds {!Model.save} blobs
    equal).  A minibatch first computes every sample's errors against the
    weights it starts from, then its gradient in one {!gradient} pass. *)
let train ?(params = default_params) ?block_rows (rng : Rng.t)
    ~(n_classes : int) (src : Fblock.source) (ys : int array) : t =
  let d = Fblock.dim src in
  let w = Fmat.random rng n_classes d ~scale:0.01 in
  let bias = Array.make n_classes 0.0 in
  (* the step's buffers, reused by every minibatch *)
  let p = Array.make n_classes 0.0 in
  let et = Array.make (n_classes * params.batch) 0.0 in
  let xo = Array.make params.batch 0 in
  let gw = Fmat.create n_classes d and gb = Array.make n_classes 0.0 in
  let gd = gw.Fmat.data in
  let scaler =
    Features.sgd_epochs ?block_rows src rng ~epochs:params.epochs
      (fun epoch ~lo block order ->
        let lr = params.lr /. (1.0 +. (0.05 *. float_of_int epoch)) in
        let bn = block.Fmat.n in
        let xd = block.Fmat.data in
        let b = ref 0 in
        while !b < bn do
          let hi = min bn (!b + params.batch) in
          let bs = hi - !b in
          for k = 0 to bs - 1 do
            let i = order.(!b + k) in
            let xbase = i * d in
            xo.(k) <- xbase;
            logits_into w bias xd xbase p;
            Nn.softmax_inplace p;
            (* the error; [p -. 0.0] is [p] *)
            let y = ys.(lo + i) in
            p.(y) <- p.(y) -. 1.0;
            for c = 0 to n_classes - 1 do
              et.((c * bs) + k) <- p.(c)
            done
          done;
          gradient ~bs et xo xd gw gb;
          let bs = float_of_int bs in
          let wd = w.Fmat.data in
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
  in
  { scaler; weights = w; bias; n_classes }

let weights (t : t) : Fmat.t = t.weights
let bias (t : t) : float array = t.bias

let input_dim (t : t) = Features.scaler_dim t.scaler

(** Per-class scores (raw logits). *)
let margins (t : t) (x : float array) : float array =
  let x = Features.transform t.scaler x in
  let z = Array.make t.n_classes 0.0 in
  logits_into t.weights t.bias x 0 z;
  z

let size_bytes (t : t) : int =
  (8 * t.weights.n * t.weights.d) + (8 * Array.length t.bias)

module Bin = Yali_util.Bin

let to_bin b (t : t) =
  Features.scaler_to_bin b t.scaler;
  Fmat.to_bin b t.weights;
  Bin.w_floats b t.bias;
  Bin.w_u32 b t.n_classes

let of_bin r : t =
  let scaler = Features.scaler_of_bin r in
  let weights = Fmat.of_bin r in
  let bias = Bin.r_floats r in
  let n_classes = Bin.r_u32 r in
  if Array.length bias <> n_classes || weights.Fmat.n <> n_classes then
    Bin.fail r "logreg shape mismatch";
  if Features.scaler_dim scaler <> weights.Fmat.d then
    Bin.fail r "logreg scaler/weight width mismatch";
  { scaler; weights; bias; n_classes }
