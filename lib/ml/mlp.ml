(** The SciKit-style multi-layer perceptron the paper evaluates as [mlp]:
    exactly one hidden layer of 100 ReLU units (§3.2), trained with
    per-sample SGD on standardised features.  The step below is written for
    that fixed dense → ReLU → dense net and updates its weights through
    {!Nn.view}.  The trained model is a {!Cnn.t}: a scaler and a network,
    predicted, scored and serialised by {!Cnn}'s functions. *)

module Rng = Yali_util.Rng

type params = { hidden : int; epochs : int; lr : float }

let default_params = { hidden = 100; epochs = 40; lr = 0.02 }

(* One dense layer's SGD update from its output gradient [g] and input
   [x]: b -= lr * g, w -= lr * g x^T.  [lr *. g.(o) *. x.(i)] associates
   left, so hoisting the row scale [s] is the same product. *)
let sgd_update ~(lr : float) (w : Fmat.t) (b : float array) (g : float array)
    (x : float array) : unit =
  let wd = w.Fmat.data and cols = w.Fmat.d in
  for o = 0 to w.Fmat.n - 1 do
    b.(o) <- b.(o) -. (lr *. g.(o));
    let s = lr *. g.(o) in
    let base = o * cols in
    for i = 0 to cols - 1 do
      Array.unsafe_set wd (base + i)
        (Array.unsafe_get wd (base + i) -. (s *. x.(i)))
    done
  done

(* One SGD step on a (sample, label) pair with cross-entropy loss.  The
   hidden gradient is taken through the output weights before they are
   updated; the input gradient has no reader and is not computed. *)
let step ~(lr : float) (w1, b1, w2, b2) (x : float array) (y : int) : unit =
  let h =
    Array.mapi
      (fun i v ->
        let v = v +. b1.(i) in
        if v > 0.0 then v else 0.0)
      (Fmat.mv w1 x)
  in
  let p = Nn.softmax (Array.mapi (fun i v -> v +. b2.(i)) (Fmat.mv w2 h)) in
  let dz = Array.mapi (fun i v -> v -. if i = y then 1.0 else 0.0) p in
  let dh = Fmat.vm dz w2 in
  let dh = Array.mapi (fun i v -> if h.(i) > 0.0 then v else 0.0) dh in
  sgd_update ~lr w2 b2 dz h;
  sgd_update ~lr w1 b1 dh x

(** Per-sample SGD over {!Features.sgd_epochs}' block walk. *)
let train ?(params = default_params) ?block_rows (rng : Rng.t)
    ~(n_classes : int) (src : Fblock.source) (ys : int array) : Cnn.t =
  let d = Fblock.dim src in
  let net =
    {
      Nn.layers =
        [
          Nn.dense rng ~d_in:d ~d_out:params.hidden;
          Nn.relu;
          Nn.dense rng ~d_in:params.hidden ~d_out:n_classes;
        ];
      n_classes;
    }
  in
  let layers =
    match Nn.view net with
    | [ V_dense l1; V_relu; V_dense l2 ] -> (l1.w, l1.b, l2.w, l2.b)
    | _ -> assert false
  in
  (* one reused row buffer: [step] consumes the sample within the step, so
     the buffer may be overwritten for the next one *)
  let buf = Array.make d 0.0 in
  let scaler =
    Features.sgd_epochs ?block_rows src rng ~epochs:params.epochs
      (fun epoch ~lo block order ->
        let lr = params.lr /. (1.0 +. (0.03 *. float_of_int epoch)) in
        Array.iter
          (fun i ->
            Fmat.row_into block i buf;
            step ~lr layers buf ys.(lo + i))
          order)
  in
  Nn.invalidate_caches net;
  Cnn.of_parts ~scaler ~net
