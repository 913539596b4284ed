(** Zhang et al.'s Deep Graph Convolutional Neural Network (AAAI'18), the
    [dgcnn] model of the paper (§3.2):

    1. four graph-convolution layers (channel widths 32, 32, 32 and 1) with
       hyperbolic-tangent activation: Z_l = tanh(D⁻¹ Â Z_(l-1) W_l);
    2. sort pooling on the last (1-wide) channel, keeping the top-k nodes;
    3. a one-dimensional convolution;
    4. max pooling;
    5. a second one-dimensional convolution;
    6. a dense layer with dropout; and
    7. a final dense classification layer.

    Backpropagation runs end-to-end, through the convolutional head, the
    (fixed-permutation) sort pooling, and the graph convolutions.  Channel
    widths are scaled down from the original (32 → 16) so the model trains
    in seconds on synthetic corpora; the architecture is otherwise as
    published.

    Training is minibatch SGD (DESIGN.md §15): every graph is prepared once
    (see {!prepare}); per batch, every graph's forward pass runs in
    parallel shards over {!Yali_exec.Pool}, the pooled flat vectors feed
    one batched {!Nn.train_batch} step of the head, and the
    graph-convolution gradients are accumulated per shard and merged in a
    fixed tree order — bit-identical at any [--jobs] and to the frozen
    naive trainer in [Reference.Dgcnn].  The graph convolutions' products
    run on {!Nn}'s window kernels through {!gc_win}, and the backward pass
    stops at the first layer's weight gradient: its input gradient is
    never read. *)

module Rng = Yali_util.Rng
module Pool = Yali_exec.Pool
module Graph = Yali_embeddings.Graph

type params = {
  gc_channels : int list;  (** graph-conv widths; last must be 1 *)
  sortpool_k : int;
  epochs : int;
  lr : float;
  max_nodes : int;
      (** graphs larger than this are truncated to a prefix subgraph — a
          sampling cap that bounds the per-graph cost on heavily obfuscated
          inputs (flattened/bogus code can be 5x the original size) *)
  batch : int;  (** graphs per minibatch *)
}

let default_params =
  {
    gc_channels = [ 16; 16; 16; 1 ];
    sortpool_k = 16;
    epochs = 24;
    lr = 0.02;
    max_nodes = 384;
    batch = 32;
  }

type t = {
  params : params;
  gc_weights : Fmat.t list;  (** one per graph-conv layer *)
  head : Nn.t;
  feat_dim : int;
  n_classes : int;
}

(* Propagation: Y = D^-1 (A + I) X, computed over adjacency lists. *)
let propagate (adj : int list array) (x : Fmat.t) : Fmat.t =
  let n = x.Fmat.n and d = x.Fmat.d in
  let y = Fmat.create n d in
  for i = 0 to n - 1 do
    let neigh = i :: adj.(i) in
    let deg = float_of_int (List.length neigh) in
    List.iter
      (fun j ->
        for c = 0 to d - 1 do
          Fmat.set y i c (Fmat.get y i c +. (Fmat.get x j c /. deg))
        done)
      neigh
  done;
  y

(* Transposed propagation for the backward pass: given dY, returns dX where
   Y = P X and P_(i,j) = 1/deg(i) for j in N(i) u {i}. *)
let propagate_t (adj : int list array) (dy : Fmat.t) : Fmat.t =
  let n = dy.Fmat.n and d = dy.Fmat.d in
  let dx = Fmat.create n d in
  for i = 0 to n - 1 do
    let neigh = i :: adj.(i) in
    let deg = float_of_int (List.length neigh) in
    List.iter
      (fun j ->
        for c = 0 to d - 1 do
          Fmat.set dx j c (Fmat.get dx j c +. (Fmat.get dy i c /. deg))
        done)
      neigh
  done;
  dx

(* [w] (d_in x d_out) as the dense layer from d_out inputs to d_in
   outputs: its input gradient, weight gradient and forward are the graph
   convolution's (P Z) W, (P Z)ᵀ dpre and dpre Wᵀ, each with the chain
   and the zero skips of [Fmat.matmul_naive] (see the interface).  Storing
   [w] transposed would make the weight gradient skip on dpre's zeros
   instead of P Z's. *)
let gc_win (w : Fmat.t) : Nn.win =
  {
    Nn.c_in = 1;
    len = w.Fmat.d;
    kernel = w.Fmat.d;
    stride = 1;
    out_len = 1;
    c_out = w.Fmat.n;
    w;
    b = Array.make w.Fmat.n 0.0;
  }

(* What the forward pass needs of a graph and no weight touches: its
   adjacency and the first layer's propagated input P·X₀. *)
type prepared = { adj : int list array; px0 : Fmat.t }

let prepare (p : params) (g : Graph.t) : prepared =
  (* an empty graph is treated as a single zero-feature node *)
  let g =
    if Graph.node_count g = 0 then
      { g with Graph.node_feats = [| Array.make g.feat_dim 0.0 |]; edges = [] }
    else g
  in
  (* cap the graph size: keep a prefix subgraph *)
  let g =
    let cap = p.max_nodes in
    if Graph.node_count g <= cap then g
    else
      {
        g with
        Graph.node_feats = Array.sub g.node_feats 0 cap;
        edges = List.filter (fun (s, d, _) -> s < cap && d < cap) g.edges;
      }
  in
  let adj = Graph.undirected_adjacency g in
  (* squash count-valued node features (e.g. per-block histograms of the
     compact embeddings): raw counts saturate the tanh units *)
  let x0 =
    Fmat.map (fun v -> Float.copy_sign (log1p (Float.abs v)) v)
      (Fmat.of_rows g.node_feats)
  in
  { adj; px0 = propagate adj x0 }

type forward_state = {
  adj : int list array;
  px_list : Fmat.t list;  (** P·Z_(l-1) per layer, pre-weights *)
  z_list : Fmat.t list;  (** post-tanh activations per layer *)
  concat : Fmat.t;  (** n x total_channels *)
  order : int array;  (** node permutation chosen by sort pooling *)
  flat : float array;  (** pooled, flattened input to the head *)
}

let total_channels (p : params) = List.fold_left ( + ) 0 p.gc_channels

let forward_graph (t_params : params) (gc_weights : Fmat.t list)
    ({ adj; px0 } : prepared) : forward_state =
  let n = px0.Fmat.n in
  let rec go px = function
    | [] -> []
    | w :: rest ->
        let z = Fmat.map tanh (Nn.win_backward (gc_win w) px ~in_w:w.Fmat.d) in
        (px, z) :: (match rest with [] -> [] | _ -> go (propagate adj z) rest)
  in
  let px_list, z_list = List.split (go px0 gc_weights) in
  (* concatenate channels of every layer *)
  let tc = total_channels t_params in
  let concat = Fmat.create n tc in
  let off = ref 0 in
  List.iter
    (fun (z : Fmat.t) ->
      for i = 0 to n - 1 do
        for c = 0 to z.Fmat.d - 1 do
          Fmat.set concat i (!off + c) (Fmat.get z i c)
        done
      done;
      off := !off + z.Fmat.d)
    z_list;
  (* sort pooling on the last channel *)
  let k = t_params.sortpool_k in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b -> compare (Fmat.get concat b (tc - 1)) (Fmat.get concat a (tc - 1)))
    order;
  let flat = Array.make (k * tc) 0.0 in
  for r = 0 to min k n - 1 do
    let i = order.(r) in
    for c = 0 to tc - 1 do
      flat.((r * tc) + c) <- Fmat.get concat i c
    done
  done;
  { adj; px_list; z_list; concat; order; flat }

(* dL/dW per graph-convolution layer (in layer order) for one graph, given
   dL/d(flat) from the head — no weight update here; the minibatch loop
   accumulates grads across the batch and applies them once.  The same
   computation, on naive matmuls, is frozen in [Reference.Dgcnn]. *)
let graph_backward (p : params) (gc_weights : Fmat.t list)
    (st : forward_state) (dflat : float array) : Fmat.t list =
  let tc = total_channels p in
  (* scatter the gradient back through sort pooling *)
  let nn = st.concat.Fmat.n in
  let dconcat = Fmat.create nn tc in
  for r = 0 to min p.sortpool_k nn - 1 do
    let node = st.order.(r) in
    for c = 0 to tc - 1 do
      Fmat.set dconcat node c (dflat.((r * tc) + c))
    done
  done;
  (* un-concatenate into per-layer gradients, then backprop through the
     graph convolutions in reverse *)
  let layer_grads =
    let off = ref 0 in
    List.map
      (fun (z : Fmat.t) ->
        let dz = Fmat.create nn z.Fmat.d in
        for i' = 0 to nn - 1 do
          for c = 0 to z.Fmat.d - 1 do
            Fmat.set dz i' c (Fmat.get dconcat i' (!off + c))
          done
        done;
        off := !off + z.Fmat.d;
        dz)
      st.z_list
  in
  (* process layers from last to first, accumulating the gradient that
     flows down from upper layers *)
  let rev_w = List.rev gc_weights in
  let rev_z = List.rev st.z_list in
  let rev_px = List.rev st.px_list in
  let rev_dz = List.rev layer_grads in
  let rec back ws zs pxs dzs (carry : Fmat.t option) (dws : Fmat.t list) =
    match (ws, zs, pxs, dzs) with
    | [], [], [], [] -> dws
    | w :: ws', z :: zs', px :: pxs', dz :: dzs' ->
        let dz_total =
          match carry with Some c -> Fmat.add dz c | None -> dz
        in
        (* through tanh *)
        let dpre =
          Fmat.init nn z.Fmat.d (fun i' c ->
              let zv = Fmat.get z i' c in
              Fmat.get dz_total i' c *. (1.0 -. (zv *. zv)))
        in
        let g = gc_win w in
        (* dW = (P Z_(l-1))^T dpre *)
        let dw = fst (Nn.win_grads g dpre px) in
        (* gradient to previous layer: P^T (dpre W^T); nothing reads the
           first layer's *)
        (match ws' with
        | [] -> dw :: dws
        | _ ->
            let dprev = propagate_t st.adj (Nn.win_forward g dpre) in
            back ws' zs' pxs' dzs' (Some dprev) (dw :: dws))
    | _ -> assert false
  in
  back rev_w rev_z rev_px rev_dz None []

let init_gc_weights (rng : Rng.t) (p : params) ~(feat_dim : int) :
    Fmat.t list =
  let dims =
    let rec widths d = function
      | [] -> []
      | c :: rest -> (d, c) :: widths c rest
    in
    widths feat_dim p.gc_channels
  in
  List.map
    (fun (d_in, d_out) ->
      Fmat.random rng d_in d_out ~scale:(sqrt (1.0 /. float_of_int d_in)))
    dims

let build_head (rng : Rng.t) (p : params) ~(n_classes : int) : Nn.t =
  let tc = total_channels p in
  let k = p.sortpool_k in
  (* conv over the flattened k*tc signal with kernel = tc, stride = tc: one
     filter application per node slot (the DGCNN trick) *)
  let c1 = 16 in
  let l1 = k in
  let l1p = l1 / 2 in
  let c2 = 16 and k2 = min 3 l1p in
  let l2 = l1p - k2 + 1 in
  {
    Nn.layers =
      [
        Nn.conv1d rng ~c_in:1 ~c_out:c1 ~kernel:tc ~stride:tc;
        Nn.relu;
        Nn.maxpool 2;
        Nn.conv1d rng ~c_in:c1 ~c_out:c2 ~kernel:k2 ~stride:1;
        Nn.relu;
        Nn.dense rng ~d_in:(c2 * l2) ~d_out:48;
        Nn.relu;
        Nn.dropout 0.2;
        Nn.dense rng ~d_in:48 ~d_out:n_classes;
      ];
    n_classes;
  }

let of_parts ~(params : params) ~(gc_weights : Fmat.t list) ~(head : Nn.t)
    ~(feat_dim : int) ~(n_classes : int) : t =
  { params; gc_weights; head; feat_dim; n_classes }

let dump_weights (t : t) : float array array =
  Array.append
    (Array.of_list
       (List.map (fun (w : Fmat.t) -> Array.copy w.Fmat.data) t.gc_weights))
    (Nn.dump_weights t.head)

let train ?(params = default_params) (rng : Rng.t) ~(n_classes : int)
    ~(feat_dim : int) (graphs : Graph.t array) (ys : int array) : t =
  let gc_weights = init_gc_weights rng params ~feat_dim in
  let head = build_head rng params ~n_classes in
  let graphs = Pool.parallel_array_map (prepare params) graphs in
  let n = Array.length graphs in
  let order = Array.init n Fun.id in
  let flat_w = params.sortpool_k * total_channels params in
  for epoch = 0 to params.epochs - 1 do
    let lr = params.lr /. (1.0 +. (0.05 *. float_of_int epoch)) in
    Rng.shuffle_in_place rng order;
    let nb = (n + params.batch - 1) / params.batch in
    for b = 0 to nb - 1 do
      let lo = b * params.batch in
      let m = min params.batch (n - lo) in
      (* shard layout shared with Nn.train_batch: boundaries are a function
         of the batch size only, so grads reduce identically at any jobs *)
      let ns = (m + Nn.grad_shard_rows - 1) / Nn.grad_shard_rows in
      let shard_rows s =
        let slo = s * Nn.grad_shard_rows in
        (slo, min m (slo + Nn.grad_shard_rows))
      in
      (* phase 1: forward every graph of the batch (parallel; per-graph
         work is independent, so jobs only changes scheduling) *)
      let states = Array.make m None in
      Pool.run ~n:ns (fun s ->
          let slo, shi = shard_rows s in
          for i = slo to shi - 1 do
            states.(i) <-
              Some (forward_graph params gc_weights graphs.(order.(lo + i)))
          done);
      let flats = Fmat.create m flat_w in
      Fmat.of_rows_into flats
        (Array.map (fun st -> (Option.get st).flat) states);
      let yb = Array.init m (fun i -> ys.(order.(lo + i))) in
      (* phase 2: one batched SGD step of the head; dflat rows are the
         gradients at the pooled inputs *)
      let _loss, dflat = Nn.train_batch ~lr ~rng head flats yb in
      (* phase 3: per-graph gradients of the graph convolutions,
         accumulated per shard in ascending graph order *)
      let shard_acc =
        Array.init ns (fun _ ->
            List.map
              (fun (w : Fmat.t) -> Fmat.create w.Fmat.n w.Fmat.d)
              gc_weights)
      in
      Pool.run ~n:ns (fun s ->
          let slo, shi = shard_rows s in
          let accs = shard_acc.(s) in
          for i = slo to shi - 1 do
            let st = Option.get states.(i) in
            let dws =
              graph_backward params gc_weights st (Fmat.row_copy dflat i)
            in
            List.iter2 (fun acc dw -> Fmat.axpy ~a:1.0 dw acc) accs dws
          done);
      (* phase 4: fixed pairwise tree reduction, then one SGD update *)
      Nn.tree_reduce
        (fun a b -> List.iter2 (fun x y -> Fmat.axpy ~a:1.0 y x) a b)
        shard_acc;
      List.iter2
        (fun (w : Fmat.t) dw -> Fmat.axpy ~a:(-.lr) dw w)
        gc_weights shard_acc.(0)
    done
  done;
  { params; gc_weights; head; feat_dim; n_classes }

let predict (t : t) (g : Graph.t) : int =
  let st = forward_graph t.params t.gc_weights (prepare t.params g) in
  Fmat.argmax (Nn.logits t.head st.flat)

let size_bytes (t : t) : int =
  Nn.size_bytes t.head
  + List.fold_left
      (fun acc (w : Fmat.t) -> acc + (8 * w.n * w.d))
      0 t.gc_weights
