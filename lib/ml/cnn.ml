(** The flat-input truncation of Zhang et al.'s DGCNN that the paper calls
    [cnn] (§3.2): the four graph-convolution layers are dropped (they "find
    no service" on array embeddings) and the remaining stack — 1-D
    convolution, max pooling, a second 1-D convolution, dense + dropout,
    dense classifier — consumes the flat vector directly.

    Training is minibatch SGD through the batched {!Nn.train_batch} step
    (window kernels over the activations in place, sharded gradient
    workers) —
    bit-identical at any [--jobs] and to the frozen naive trainer in
    [Reference.Cnn].  {!train} consumes an {!Fblock} source, in memory or
    on disk.

    [t] — a scaler and a network — is also the trained {!Mlp}: the
    functions from {!margins} on serve both models. *)

module Rng = Yali_util.Rng

type t = { scaler : Features.scaler; net : Nn.t }

type params = { epochs : int; lr : float; batch : int }

let default_params = { epochs = 30; lr = 0.01; batch = 32 }

let build_net (rng : Rng.t) ~(d_in : int) ~(n_classes : int) : Nn.t =
  if d_in < 16 then
    (* narrow inputs: the convolutional front end finds no service (cf. the
       paper's remark about graph layers on flat inputs); use the dense
       tail only *)
    {
      Nn.layers =
        [
          Nn.dense rng ~d_in ~d_out:64;
          Nn.relu;
          Nn.dropout 0.2;
          Nn.dense rng ~d_in:64 ~d_out:n_classes;
        ];
      n_classes;
    }
  else begin
    (* kernel sizes keep intermediate lengths even, so that flat max pooling
       never straddles a channel boundary *)
    let c1 = 8 and k1 = if d_in mod 2 = 0 then 5 else 4 and c2 = 8 in
    let l1 = d_in - k1 + 1 in
    let l1p = l1 / 2 in
    let k2 = min 5 l1p in
    let l2 = l1p - k2 + 1 in
    let flat = c2 * l2 in
    {
      Nn.layers =
        [
          Nn.conv1d rng ~c_in:1 ~c_out:c1 ~kernel:k1 ~stride:1;
          Nn.relu;
          Nn.maxpool 2;
          Nn.conv1d rng ~c_in:c1 ~c_out:c2 ~kernel:k2 ~stride:1;
          Nn.relu;
          Nn.dense rng ~d_in:flat ~d_out:64;
          Nn.relu;
          Nn.dropout 0.2;
          Nn.dense rng ~d_in:64 ~d_out:n_classes;
        ];
      n_classes;
    }
  end

let of_parts ~(scaler : Features.scaler) ~(net : Nn.t) : t = { scaler; net }
let dump_weights (t : t) : float array array = Nn.dump_weights t.net

(* One epoch of minibatch steps over [x] rows in [order.(lo0 .. )] order;
   [labels i] maps a position in [order] to its class. *)
let run_batches ~(lr : float) ~(rng : Rng.t) ~(batch : int) (net : Nn.t)
    (x : Fmat.t) (order : int array) (labels : int -> int) : unit =
  let n = Array.length order in
  let nb = (n + batch - 1) / batch in
  for b = 0 to nb - 1 do
    let lo = b * batch in
    let m = min batch (n - lo) in
    let xb = Fmat.create m x.Fmat.d in
    Fmat.gather_rows_into xb x order ~lo ~len:m;
    let yb = Array.init m (fun i -> labels (lo + i)) in
    ignore (Nn.train_batch ~need_dx:false ~lr ~rng net xb yb)
  done

(** Minibatch SGD over {!Features.sgd_epochs}' block walk: minibatches
    never straddle a block boundary. *)
let train ?(params = default_params) ?block_rows (rng : Rng.t)
    ~(n_classes : int) (src : Fblock.source) (ys : int array) : t =
  let net = build_net rng ~d_in:(Fblock.dim src) ~n_classes in
  let scaler =
    Features.sgd_epochs ?block_rows src rng ~epochs:params.epochs
      (fun epoch ~lo block order ->
        let lr = params.lr /. (1.0 +. (0.05 *. float_of_int epoch)) in
        run_batches ~lr ~rng ~batch:params.batch net block order (fun i ->
            ys.(lo + order.(i))))
  in
  { scaler; net }

let input_dim (t : t) = Features.scaler_dim t.scaler

(** Per-class raw logits: standardise, then one {!Nn.logits} pass. *)
let margins (t : t) (x : float array) : float array =
  Nn.logits t.net (Features.transform t.scaler x)

let size_bytes (t : t) : int = Nn.size_bytes t.net

module Bin = Yali_util.Bin

let to_bin b (t : t) =
  Features.scaler_to_bin b t.scaler;
  Nn.to_bin b t.net

(* Every layer's shape faults depend only on its input width, so walking
   the widths from the scaler's shows whether the layers chain to
   [n_classes] scores without reading out of range — or, for a
   convolution, into the next channel, which stays inside the row. *)
let of_bin r : t =
  let scaler = Features.scaler_of_bin r in
  let net = Nn.of_bin r in
  (match Nn.shape_widths net ~d_in:(Features.scaler_dim scaler) with
  | widths ->
      let out = widths.(Array.length widths - 1) in
      if out <> net.Nn.n_classes then
        Bin.fail r
          (Printf.sprintf "network gives %d scores for %d classes" out
             net.Nn.n_classes)
  | exception Invalid_argument msg ->
      Bin.fail r ("network does not fit its scaler width: " ^ msg));
  { scaler; net }
