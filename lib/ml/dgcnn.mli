(** Zhang et al.'s Deep Graph Convolutional Neural Network, the [dgcnn]
    model of the paper (§3.2): graph convolutions + sort pooling feeding a
    1-D convolutional head.

    Trained by minibatch SGD (DESIGN.md §15): parallel per-graph forward
    shards, one batched {!Nn.train_batch} step of the head per minibatch,
    and sharded graph-convolution gradients merged in a fixed tree order —
    bit-identical at any [--jobs] and to the frozen naive trainer in
    [Reference.Dgcnn].  The graph convolutions' products run on {!Nn}'s
    window kernels (see {!gc_win}).

    {!train} prepares each training graph once, over the pool: the node
    cap, the empty-graph substitute, the symmetric adjacency, the [log1p]
    squash and the first layer's propagated input P·X₀, none of which
    reads a weight.  That keeps one P·X₀ per training graph resident for
    the whole run, at most [max_nodes × feat_dim] floats each, beside its
    adjacency lists. *)

type params = {
  gc_channels : int list;  (** graph-conv widths; last must be 1 *)
  sortpool_k : int;
  epochs : int;
  lr : float;
  max_nodes : int;  (** larger graphs are truncated to a prefix subgraph *)
  batch : int;  (** graphs per minibatch *)
}

val default_params : params

type t

val train :
  ?params:params ->
  Yali_util.Rng.t ->
  n_classes:int ->
  feat_dim:int ->
  Yali_embeddings.Graph.t array ->
  int array ->
  t

val predict : t -> Yali_embeddings.Graph.t -> int
val size_bytes : t -> int

(** Training internals, exposed for the frozen reference trainer
    ([Reference.Dgcnn]) and the differential tests: initialisers that
    consume the rng exactly as {!train}'s do, reassembly from parts, and
    the parameter dump (graph-conv weights in layer order, then the head's
    {!Nn.dump_weights}) compared for bit-identity. *)

(** A graph-convolution weight [w] ([d_in × d_out]) as the windows of the
    dense layer that maps [d_out] inputs to [d_in] outputs, zero bias:
    [{ c_in = 1; len = w.d; kernel = w.d; stride = 1; out_len = 1;
    c_out = w.n; w; b = zeros }].  The graph convolution's forward product
    (P·Z)·W is that layer's {!Nn.win_backward} at output gradient P·Z,
    its weight gradient (P·Z)ᵀ·dpre is the weight half of
    {!Nn.win_grads} at input dpre and output gradient P·Z (in [w]'s
    layout), and its input gradient dpre·Wᵀ is {!Nn.win_forward} at
    dpre.  Each
    is bitwise {!Fmat.matmul_naive}'s chain, skipping the zeros of its
    left factor (P·Z, P·Z and dpre), which [kernels/gc-products-vs-naive]
    checks on planted zeros and non-finite cells. *)
val gc_win : Fmat.t -> Nn.win

val init_gc_weights :
  Yali_util.Rng.t -> params -> feat_dim:int -> Fmat.t list

val build_head : Yali_util.Rng.t -> params -> n_classes:int -> Nn.t

val of_parts :
  params:params ->
  gc_weights:Fmat.t list ->
  head:Nn.t ->
  feat_dim:int ->
  n_classes:int ->
  t

val dump_weights : t -> float array array
