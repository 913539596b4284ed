(** The SciKit-style multi-layer perceptron the paper evaluates as [mlp]:
    exactly one hidden layer of 100 ReLU units (§3.2), trained with SGD on
    standardised features.  The trained model is a {!Cnn.t}: a scaler and
    a network, predicted, scored and serialised by {!Cnn}'s functions. *)

module Rng = Yali_util.Rng

type params = { hidden : int; epochs : int; lr : float }

let default_params = { hidden = 100; epochs = 40; lr = 0.02 }

(** Per-sample SGD over {!Features.sgd_epochs}' block walk. *)
let train ?(params = default_params) ?block_rows (rng : Rng.t)
    ~(n_classes : int) (src : Fblock.source) (ys : int array) : Cnn.t =
  let d = Fblock.dim src in
  let net =
    {
      Nn.layers =
        [
          Nn.dense rng ~d_in:d ~d_out:params.hidden;
          Nn.relu ();
          Nn.dense rng ~d_in:params.hidden ~d_out:n_classes;
        ];
      n_classes;
    }
  in
  (* one reused row buffer: [Nn.train_step] consumes the sample within the
     step, so the buffer may be overwritten for the next one *)
  let buf = Array.make d 0.0 in
  let scaler =
    Features.sgd_epochs ?block_rows src rng ~epochs:params.epochs
      (fun epoch ~lo block order ->
        let lr = params.lr /. (1.0 +. (0.03 *. float_of_int epoch)) in
        Array.iter
          (fun i ->
            Fmat.row_into block i buf;
            ignore (Nn.train_step ~lr net buf ys.(lo + i)))
          order)
  in
  Cnn.of_parts ~scaler ~net
