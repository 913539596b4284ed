(** The SciKit-style multi-layer perceptron the paper evaluates as [mlp]:
    exactly one hidden layer of 100 ReLU units (§3.2), trained with
    per-sample SGD on standardised features.  The step below is written for
    that fixed dense → ReLU → dense net: it reads each sample straight from
    its block, works in buffers the trainer allocates once, and updates the
    weights in place through {!Nn.view}.  The trained model is a {!Cnn.t}:
    a scaler and a network, scored and serialised by {!Cnn}'s functions. *)

module Rng = Yali_util.Rng

type params = { hidden : int; epochs : int; lr : float }

let default_params = { hidden = 100; epochs = 40; lr = 0.02 }

(* One SGD step, in place, on the sample at [xd.(xoff ..)] with label [y]
   and cross-entropy loss; [h], [z] and [dh] are the trainer's buffers for
   the hidden activations, the output scores and the hidden gradient.
   Every float expression and its order are the allocating step's
   ([Reference.Mlp]): each product sums from 0.0 in ascending order, the
   hidden gradient is taken through the output weights before they are
   updated, and the input gradient has no reader and is not computed. *)
let step ~(lr : float) (w1, b1, w2, b2) (h, z, dh) (xd : float array)
    (xoff : int) (y : int) : unit =
  let hidden = Array.length h and n_out = Array.length z in
  Array.fill h 0 hidden 0.0;
  Fmat.mv_into w1 xd ~off:xoff h;
  for i = 0 to hidden - 1 do
    let v = h.(i) +. b1.(i) in
    h.(i) <- (if v > 0.0 then v else 0.0)
  done;
  Array.fill z 0 n_out 0.0;
  Fmat.mv_into w2 h ~off:0 z;
  for i = 0 to n_out - 1 do
    z.(i) <- z.(i) +. b2.(i)
  done;
  Nn.softmax_inplace z;
  (* the output gradient; [p -. 0.0] is [p] *)
  z.(y) <- z.(y) -. 1.0;
  (* one pass over each row of [w2]: add its share of the hidden gradient
     (each [dh.(j)] sums over rows in ascending order), then update it *)
  Array.fill dh 0 hidden 0.0;
  let w2d = w2.Fmat.data in
  for o = 0 to n_out - 1 do
    let g = z.(o) in
    b2.(o) <- b2.(o) -. (lr *. g);
    let s = lr *. g in
    let base = o * hidden in
    for j = 0 to hidden - 1 do
      let w = Array.unsafe_get w2d (base + j) in
      Array.unsafe_set dh j (Array.unsafe_get dh j +. (g *. w));
      Array.unsafe_set w2d (base + j) (w -. (s *. Array.unsafe_get h j))
    done
  done;
  let w1d = w1.Fmat.data and d = w1.Fmat.d in
  for o = 0 to hidden - 1 do
    let g = if h.(o) > 0.0 then dh.(o) else 0.0 in
    b1.(o) <- b1.(o) -. (lr *. g);
    let s = lr *. g in
    let base = o * d in
    for i = 0 to d - 1 do
      Array.unsafe_set w1d (base + i)
        (Array.unsafe_get w1d (base + i)
        -. (s *. Array.unsafe_get xd (xoff + i)))
    done
  done

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
  let bufs =
    ( Array.make params.hidden 0.0,
      Array.make n_classes 0.0,
      Array.make params.hidden 0.0 )
  in
  let scaler =
    Features.sgd_epochs ?block_rows src rng ~epochs:params.epochs
      (fun epoch ~lo block order ->
        let lr = params.lr /. (1.0 +. (0.03 *. float_of_int epoch)) in
        Array.iter
          (fun i -> step ~lr layers bufs block.Fmat.data (i * d) ys.(lo + i))
          order)
  in
  Cnn.of_parts ~scaler ~net
