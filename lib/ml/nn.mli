(** A small feed-forward neural-network kernel with hand-written
    backpropagation: dense, ReLU, dropout, 1-D convolution and max pooling,
    plus a softmax/cross-entropy head.  Shared by the MLP, CNN and DGCNN
    models; the DGCNN's graph convolutions also run on its window kernels
    ([Dgcnn.gc_win]).

    Convolution layout: a [c]-channel signal of length [l] is a flat array
    of size [c*l], channel-major.

    One training path: the batched minibatch kernel {!train_batch} (used by
    the CNN and the DGCNN head), which runs whole-batch forward/backward
    through three window kernels (forward with bias, weight gradient,
    input gradient) that read activations in place — a dense layer is a
    convolution with one window — with data-parallel gradient shards:
    bit-identical at any [--jobs], and bit-identical to the frozen naive
    implementation in [Reference.Nnb] (the ml/nn-kernel-vs-reference
    oracle).  The MLP
    trains with its own per-sample step, writing through {!view}.  Layers
    hold parameters only, so {!logits}, the one inference path, only reads
    the network. *)

type layer

val dense : Yali_util.Rng.t -> d_in:int -> d_out:int -> layer
val relu : layer
val dropout : float -> layer

val conv1d :
  Yali_util.Rng.t -> c_in:int -> c_out:int -> kernel:int -> stride:int -> layer

val maxpool : int -> layer

type t = { layers : layer list; n_classes : int }

(** Overwrite a score vector with its softmax, allocating nothing. *)
val softmax_inplace : float array -> unit

(** {!softmax_inplace} on a copy. *)
val softmax : float array -> float array

(** Rows per gradient shard of {!train_batch}.  Shard boundaries are a
    function of the batch size only (never of [--jobs]); exposed so the
    frozen reference and the differential tests partition identically. *)
val grad_shard_rows : int

(** [shape_widths net ~d_in]: each layer's input width for rows of width
    [d_in], then the output width.  A dense layer must read exactly its
    input, and a convolution [c_in] whole channels at least [kernel] long,
    so that no window runs into the next channel; a network that passes
    reads no cell out of range.  {!train_batch} checks its batch with it,
    and [Cnn]'s snapshot loader the scaler's width.
    @raise Invalid_argument on a layer that misfits its input *)
val shape_widths : t -> d_in:int -> int array

(** In-place pairwise tree reduction into slot 0: merges [shards.(s+step)]
    into [shards.(s)] for stride-doubling steps 1, 2, 4, … — the fixed
    merge order that makes sharded gradient accumulation independent of
    [--jobs].  Shared by {!train_batch} and the DGCNN's graph-convolution
    gradient reduction (and mirrored verbatim by the frozen reference). *)
val tree_reduce : ('a -> 'a -> unit) -> 'a array -> unit

(** [train_batch ~lr ~rng net xb yb] performs ONE minibatch SGD step on the
    whole batch: forward and backward through the window kernels below
    (no im2col copy, no transposed weights), cross-entropy gradients
    {e summed} over the batch (so the per-epoch step magnitude matches
    per-example SGD at the same learning rate), accumulated in fixed row
    shards of {!grad_shard_rows} over {!Yali_exec.Pool} and merged in a
    fixed pairwise tree order — bit-identical at any [--jobs].  Dropout
    masks are drawn from [rng] on the calling domain, layer-major then
    row-major.  Returns the mean loss over the batch and dL/d(input) per
    row (for models with differentiable layers below the network).
    Callers that discard the input gradient pass [~need_dx:false] to skip
    the first layer's (otherwise unused) backward-to-input work; the
    returned [dx] is then all zeros.  Weights are bit-identical either
    way. *)
val train_batch :
  ?need_dx:bool ->
  lr:float ->
  rng:Yali_util.Rng.t ->
  t ->
  Fmat.t ->
  int array ->
  float * Fmat.t

(** {2 The window kernels}

    A dense or convolutional layer seen as windows over its channel-major
    input rows: window [p] reads [x.(ci*len + p*stride + k)] as weight
    column [ci*kernel + k] (ascending in [ci], then [k]) and feeds output
    cell [o*out_len + p].  A convolution has one window per output
    position; a dense layer is one window of width [d_in].  The three
    kernels of {!train_batch} read their activations in place.  Each skips
    exactly the terms whose left factor is [0.0] or [-0.0] (the
    [aik <> 0.0] of {!Fmat.matmul_naive}, so NaN and infinities are
    kept), gathering the kept ones without a branch. *)

type win = {
  c_in : int;
  len : int;  (** input length per channel *)
  kernel : int;
  stride : int;
  out_len : int;  (** windows per row; [<= 0] gives [c_out] zero outputs *)
  c_out : int;
  w : Fmat.t;  (** [c_out x (c_in * kernel)], the layer's own storage *)
  b : float array;
}

(** The windows of a dense or convolutional layer over inputs of width
    [in_w]; [None] for the other layers. *)
val win_of : layer -> in_w:int -> win option

(** Forward with bias: [out(i, o*out_len + p)] starts from [b.(o)] and adds
    [x * w(o, col)] over window [p]'s nonzero inputs in ascending column
    order — a per-sample loop's chain, bit for bit. *)
val win_forward : win -> Fmat.t -> Fmat.t

(** [win_grads g x d]: weight and bias gradients from the layer input [x]
    and dL/d(output) [d].  [gw(o, col)] starts from [0.0] and adds
    [d * x(window p)(col)] over the windows [(i, p)] in ascending order
    whose [d(i, o*out_len + p)] is nonzero; [gb(o)] adds every [d] of
    channel [o] in the same order. *)
val win_grads : win -> Fmat.t -> Fmat.t -> Fmat.t * float array

(** [win_backward g d ~in_w]: dL/d(input), [rows x in_w].  Window by
    window in ascending [p], column [col]'s chain over the nonzero
    [d(i, o*out_len + p)] of [d * w(o, col)], from [0.0] in ascending [o],
    is added to the input cell it read (which starts at [0.0]). *)
val win_backward : win -> Fmat.t -> in_w:int -> Fmat.t

(** Raw output-layer activations of one inference pass (no softmax; dropout
    is the identity) — the network's one inference path.  A class is their
    first maximum. *)
val logits : t -> float array -> float array

val size_bytes : t -> int

(** A structural view of the layers.  The matrices and bias arrays are
    the network's own storage (not copies): [Reference.Nnb] — the frozen
    naive trainer that `bench nn` and the differential oracles compare
    against — and the MLP's per-sample step train through this view. *)
type layer_view =
  | V_dense of { w : Fmat.t; b : float array }
  | V_relu
  | V_dropout of float
  | V_conv1d of {
      c_in : int;
      c_out : int;
      kernel : int;
      stride : int;
      filters : Fmat.t;
      cbias : float array;
    }
  | V_maxpool of int

val view : t -> layer_view list

(** Every parameter array in layer order (weights then bias per
    parameterised layer), copied — the bit-identity currency of the
    differential tests. *)
val dump_weights : t -> float array array

(** Serialise a network bit-exactly (all layer kinds, including Conv1d and
    MaxPool). *)
val to_bin : Buffer.t -> t -> unit

(** @raise Yali_util.Bin.Corrupt on malformed input *)
val of_bin : Yali_util.Bin.r -> t
