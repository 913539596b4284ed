(** The SciKit-style multi-layer perceptron the paper evaluates as [mlp]:
    exactly one hidden layer of 100 ReLU units (§3.2), trained with SGD on
    standardised features. *)

module Rng = Yali_util.Rng

type t = { scaler : Features.scaler; net : Nn.t }

type params = { hidden : int; epochs : int; lr : float }

let default_params = { hidden = 100; epochs = 40; lr = 0.02 }

(** Per-sample SGD over blocks; per-epoch shuffles stay within a block
    (persistent per-block orders).  A source that is one block — any [Mem]
    source given no [block_rows] — is standardised once and shuffled as one
    global order. *)
let train ?(params = default_params) ?block_rows (rng : Rng.t)
    ~(n_classes : int) (src : Fblock.source) (ys : int array) : t =
  let scaler = Features.fit_stream ?block_rows src in
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
  (* one reused row buffer: [Nn.train_step] consumes the sample within the
     step, so the buffer may be overwritten for the next one *)
  let buf = Array.make d 0.0 in
  for epoch = 0 to params.epochs - 1 do
    let lr = params.lr /. (1.0 +. (0.03 *. float_of_int epoch)) in
    each_block (fun blk lo block ->
        let order = orders.(blk) in
        for i = block.Fmat.n - 1 downto 1 do
          let j = Rng.int rng (i + 1) in
          let tmp = order.(i) in
          order.(i) <- order.(j);
          order.(j) <- tmp
        done;
        Array.iter
          (fun i ->
            Fmat.row_into block i buf;
            ignore (Nn.train_step ~lr net buf ys.(lo + i)))
          order)
  done;
  { scaler; net }

let predict (t : t) (x : float array) : int =
  Nn.predict t.net (Features.transform t.scaler x)

(** Per-class raw logits; the first-maximum index is exactly {!predict}'s
    decision (same standardisation, same forward pass). *)
let margins (t : t) (x : float array) : float array =
  Nn.logits t.net (Features.transform t.scaler x)

(** Classify every row: standardise a copy in place, then run the batched
    dense path of {!Nn.predict_batch}. *)
let predict_batch (t : t) (x : Fmat.t) : int array =
  let x = Fmat.copy x in
  Features.transform_fmat_inplace t.scaler x;
  Nn.predict_batch t.net x

let size_bytes (t : t) : int = Nn.size_bytes t.net

module Bin = Yali_util.Bin

let to_bin b (t : t) =
  Features.scaler_to_bin b t.scaler;
  Nn.to_bin b t.net

let of_bin r : t =
  let scaler = Features.scaler_of_bin r in
  let net = Nn.of_bin r in
  { scaler; net }
