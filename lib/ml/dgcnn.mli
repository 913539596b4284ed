(** Zhang et al.'s Deep Graph Convolutional Neural Network, the [dgcnn]
    model of the paper (§3.2): graph convolutions + sort pooling feeding a
    1-D convolutional head.

    Trained by minibatch SGD (DESIGN.md §15): parallel per-graph forward
    shards, one batched {!Nn.train_batch} step of the head per minibatch,
    and sharded graph-convolution gradients merged in a fixed tree order —
    bit-identical at any [--jobs] and to the frozen naive trainer in
    [Reference.Dgcnn]. *)

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
