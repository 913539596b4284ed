(** A small feed-forward neural-network kernel with hand-written
    backpropagation: dense, ReLU, dropout, 1-D convolution and max pooling
    layers, plus a softmax/cross-entropy head.  Shared by the MLP, CNN and
    DGCNN models; the DGCNN's graph-convolution products run on the window
    kernels too.

    One training path: the batched {!train_batch} minibatch kernel.  Its
    forward and backward passes are three window kernels — forward with
    bias, weight gradient, input gradient — that read the activations in
    place: a convolution walks each output position's window of the
    channel-major input, and a dense layer is the same kernel with one
    window of width d_in (no im2col, no transposed weights).  Gradients
    are accumulated in fixed row shards over {!Yali_exec.Pool} and merged
    in a fixed pairwise tree order, so the result is bit-identical at any
    [--jobs].  The frozen naive counterpart lives in [Reference.Nnb];
    `bench nn` proves the speedup and the bit-identity.  Layers hold
    parameters only, and {!logits} — the one inference path — reads a
    network without writing to it.  The MLP's per-sample step is its own,
    in [Mlp], over {!view}. *)

module Rng = Yali_util.Rng
module Pool = Yali_exec.Pool

type dense = {
  w : Fmat.t;  (** out x in *)
  b : float array;
}

type conv1d = {
  c_in : int;
  c_out : int;
  kernel : int;
  stride : int;
  filters : Fmat.t;  (** c_out x (c_in * kernel) *)
  cbias : float array;
}

type layer =
  | Dense of dense
  | Relu
  | Dropout of { p : float }
  | Conv1d of conv1d
  | MaxPool of { size : int }

let dense (rng : Rng.t) ~(d_in : int) ~(d_out : int) : layer =
  Dense
    {
      w = Fmat.random rng d_out d_in ~scale:(sqrt (2.0 /. float_of_int d_in));
      b = Array.make d_out 0.0;
    }

let relu = Relu
let dropout p = Dropout { p }

let conv1d (rng : Rng.t) ~(c_in : int) ~(c_out : int) ~(kernel : int)
    ~(stride : int) : layer =
  Conv1d
    {
      c_in;
      c_out;
      kernel;
      stride;
      filters =
        Fmat.random rng c_out (c_in * kernel)
          ~scale:(sqrt (2.0 /. float_of_int (c_in * kernel)));
      cbias = Array.make c_out 0.0;
    }

let maxpool size = MaxPool { size }

(* Conv layout: a multi-channel signal of [c] channels and length [l] is a
   flat array of size c*l, channel-major: index = ch*l + pos. *)

let conv_out_len (c : conv1d) (in_len : int) : int =
  ((in_len - c.kernel) / c.stride) + 1

(* Inference through one layer (dropout is the identity). *)
let forward (layer : layer) (x : float array) : float array =
  match layer with
  | Dense d ->
      let out = Fmat.mv d.w x in
      Array.mapi (fun i v -> v +. d.b.(i)) out
  | Relu -> Array.map (fun v -> if v > 0.0 then v else 0.0) x
  | Dropout _ -> x
  | Conv1d c ->
      let in_len = Array.length x / c.c_in in
      let out_len = conv_out_len c in_len in
      if out_len <= 0 then Array.make c.c_out 0.0
      else begin
        let out = Array.make (c.c_out * out_len) 0.0 in
        let fd = c.filters.data and fcols = c.filters.d in
        for o = 0 to c.c_out - 1 do
          let fbase = o * fcols in
          for p = 0 to out_len - 1 do
            let acc = ref c.cbias.(o) in
            for ci = 0 to c.c_in - 1 do
              for k = 0 to c.kernel - 1 do
                acc :=
                  !acc
                  +. Array.unsafe_get fd (fbase + (ci * c.kernel) + k)
                     *. x.((ci * in_len) + (p * c.stride) + k)
              done
            done;
            out.((o * out_len) + p) <- !acc
          done
        done;
        out
      end
  | MaxPool m ->
      (* single-channel view: pool every channel independently requires
         knowing the channel count; we pool over the flat layout in windows
         of [size], which for channel-major layouts pools within channels as
         long as the length is a multiple of [size] *)
      let n = Array.length x in
      Array.init (n / m.size) (fun i ->
          let base = i * m.size in
          let best = ref base in
          for k = 1 to m.size - 1 do
            if base + k < n && x.(base + k) > x.(!best) then best := base + k
          done;
          x.(!best))

type t = { layers : layer list; n_classes : int }

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

let view (net : t) : layer_view list =
  List.map
    (function
      | Dense d -> V_dense { w = d.w; b = d.b }
      | Relu -> V_relu
      | Dropout d -> V_dropout d.p
      | Conv1d c ->
          V_conv1d
            {
              c_in = c.c_in;
              c_out = c.c_out;
              kernel = c.kernel;
              stride = c.stride;
              filters = c.filters;
              cbias = c.cbias;
            }
      | MaxPool m -> V_maxpool m.size)
    net.layers

let dump_weights (net : t) : float array array =
  Array.of_list
    (List.concat_map
       (function
         | Dense d -> [ Array.copy d.w.Fmat.data; Array.copy d.b ]
         | Conv1d c -> [ Array.copy c.filters.Fmat.data; Array.copy c.cbias ]
         | Relu | Dropout _ | MaxPool _ -> [])
       net.layers)

(* [m] is [Array.fold_left max neg_infinity z] and [s] sums the
   exponentials left to right from 0.0: the naive three-pass softmax's
   expressions ([Reference.Logreg]), so the bits are the same *)
let softmax_inplace (z : float array) : unit =
  let n = Array.length z in
  let m = ref neg_infinity in
  for i = 0 to n - 1 do
    if not (!m >= z.(i)) then m := z.(i)
  done;
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    let e = exp (z.(i) -. !m) in
    z.(i) <- e;
    s := !s +. e
  done;
  for i = 0 to n - 1 do
    z.(i) <- z.(i) /. !s
  done

let softmax (z : float array) : float array =
  let p = Array.copy z in
  softmax_inplace p;
  p

(* -- batched minibatch training (DESIGN.md §15) ----------------------------- *)

(* Bit-identity contract with [Reference.Nnb]: both sides implement the SAME
   minibatch algorithm; every floating-point accumulation below is specified
   per output cell as a chain from a fixed start value over ascending
   indices, skipping exactly the terms whose left factor is 0.0 (or -0.0),
   so the naive per-sample loops of the reference produce the same bits as
   the register-blocked kernels here.  Do not reorder loops or change skip
   conditions without updating Reference.Nnb in lockstep — the
   ml/nn-kernel-vs-reference oracle pins the pairing. *)

(** Rows per gradient shard.  Shard boundaries depend only on the batch
    size — never on [--jobs] — and shards are merged in a fixed pairwise
    tree order, so training is bit-identical at any parallelism. *)
let grad_shard_rows = 16

(* widths.(li) = width of layer li's input; widths.(n_layers) = output. *)
let shape_widths (net : t) ~(d_in : int) : int array =
  let nl = List.length net.layers in
  let widths = Array.make (nl + 1) d_in in
  List.iteri
    (fun li l ->
      let w = widths.(li) in
      widths.(li + 1) <-
        (match l with
        | Dense d ->
            if d.w.Fmat.d <> w then
              invalid_arg "Nn: dense layer width mismatch";
            d.w.Fmat.n
        | Relu | Dropout _ -> w
        | Conv1d c ->
            if w mod c.c_in <> 0 || w / c.c_in < c.kernel then
              invalid_arg "Nn: conv windows cross channels";
            c.c_out * conv_out_len c (w / c.c_in)
        | MaxPool m -> w / m.size))
    net.layers;
  widths

(* A parameterised layer as windows over its channel-major input rows
   (see the interface): window [p] reads x.(ci*len + p*stride + k) as
   weight column ci*kernel + k and feeds output cell o*out_len + p. *)
type win = {
  c_in : int;
  len : int;
  kernel : int;
  stride : int;
  out_len : int;
  c_out : int;
  w : Fmat.t;
  b : float array;
}

let win_of (l : layer) ~(in_w : int) : win option =
  match l with
  | Dense d ->
      Some
        {
          c_in = 1;
          len = in_w;
          kernel = in_w;
          stride = 1;
          out_len = 1;
          c_out = d.w.Fmat.n;
          w = d.w;
          b = d.b;
        }
  | Conv1d c ->
      let len = in_w / c.c_in in
      Some
        {
          c_in = c.c_in;
          len;
          kernel = c.kernel;
          stride = c.stride;
          out_len = conv_out_len c len;
          c_out = c.c_out;
          w = c.filters;
          b = c.cbias;
        }
  | Relu | Dropout _ | MaxPool _ -> None

(* the input offset of each weight column within a window *)
let col_offsets (g : win) : int array =
  Array.init (g.c_in * g.kernel) (fun col ->
      ((col / g.kernel) * g.len) + (col mod g.kernel))

(* The gathers below keep the nonzero left operands of a chain without a
   branch: every candidate is written to slot [cnt], and [cnt] moves on
   only when it is nonzero (a compare, not a jump — ReLU outputs make the
   branch a coin flip).  The predicate is [v <> 0.0], as in
   {!Fmat.matmul_naive}: 0.0 and -0.0 are skipped, NaN and the infinities
   kept. *)

(* Forward with bias: out(i, o*out_len + p) starts from b(o) and adds
   x * w(o, col) over window p's nonzero inputs in ascending column order;
   four output channels side by side are four independent chains. *)
let win_forward (g : win) (x : Fmat.t) : Fmat.t =
  let rows = x.Fmat.n and in_w = x.Fmat.d in
  let cols = g.c_in * g.kernel and pl = g.out_len and c_out = g.c_out in
  let out_w = c_out * max 1 pl in
  let out =
    if pl > 0 then Fmat.create_uninit rows out_w else Fmat.create rows out_w
  in
  let xd = x.Fmat.data and od = out.Fmat.data and wd = g.w.Fmat.data in
  let av = Array.make cols 0.0 and ac = Array.make cols 0 in
  let acc0 = ref 0.0 and acc1 = ref 0.0 and acc2 = ref 0.0 and acc3 = ref 0.0 in
  for i = 0 to rows - 1 do
    for p = 0 to pl - 1 do
      let cnt = ref 0 in
      for ci = 0 to g.c_in - 1 do
        let xb = (i * in_w) + (ci * g.len) + (p * g.stride) in
        for k = 0 to g.kernel - 1 do
          let v = Array.unsafe_get xd (xb + k) in
          Array.unsafe_set av !cnt v;
          Array.unsafe_set ac !cnt ((ci * g.kernel) + k);
          cnt := !cnt + Bool.to_int (v <> 0.0)
        done
      done;
      let cnt = !cnt and ob = (i * out_w) + p in
      let o = ref 0 in
      while !o + 3 < c_out do
        let w0 = !o * cols in
        let w1 = w0 + cols in
        let w2 = w1 + cols in
        let w3 = w2 + cols in
        acc0 := Array.unsafe_get g.b !o;
        acc1 := Array.unsafe_get g.b (!o + 1);
        acc2 := Array.unsafe_get g.b (!o + 2);
        acc3 := Array.unsafe_get g.b (!o + 3);
        for t = 0 to cnt - 1 do
          let a = Array.unsafe_get av t and c = Array.unsafe_get ac t in
          acc0 := !acc0 +. (a *. Array.unsafe_get wd (w0 + c));
          acc1 := !acc1 +. (a *. Array.unsafe_get wd (w1 + c));
          acc2 := !acc2 +. (a *. Array.unsafe_get wd (w2 + c));
          acc3 := !acc3 +. (a *. Array.unsafe_get wd (w3 + c))
        done;
        let oc = ob + (!o * pl) in
        Array.unsafe_set od oc !acc0;
        Array.unsafe_set od (oc + pl) !acc1;
        Array.unsafe_set od (oc + (2 * pl)) !acc2;
        Array.unsafe_set od (oc + (3 * pl)) !acc3;
        o := !o + 4
      done;
      for o = !o to c_out - 1 do
        let w0 = o * cols in
        acc0 := Array.unsafe_get g.b o;
        for t = 0 to cnt - 1 do
          acc0 :=
            !acc0
            +. Array.unsafe_get av t
               *. Array.unsafe_get wd (w0 + Array.unsafe_get ac t)
        done;
        Array.unsafe_set od (ob + (o * pl)) !acc0
      done
    done
  done;
  out

(* Weight and bias gradients from the layer input [x] and dL/d(out) [d]:
   gw(o, col) starts from 0.0 and adds d * x over the windows (i, p) in
   ascending order whose d(i, o*out_len + p) is nonzero; gb(o) adds every
   d of channel o in the same order. *)
let win_grads (g : win) (x : Fmat.t) (d : Fmat.t) : Fmat.t * float array =
  let rows = x.Fmat.n and in_w = x.Fmat.d and out_w = d.Fmat.d in
  let cols = g.c_in * g.kernel and pl = max 0 g.out_len in
  let gw = Fmat.create_uninit g.c_out cols and gb = Array.make g.c_out 0.0 in
  let xd = x.Fmat.data and dd = d.Fmat.data and gd = gw.Fmat.data in
  let coff = col_offsets g in
  let dv = Array.make (rows * pl) 0.0 and xo = Array.make (rows * pl) 0 in
  let acc0 = ref 0.0 and acc1 = ref 0.0 and acc2 = ref 0.0 and acc3 = ref 0.0 in
  for o = 0 to g.c_out - 1 do
    let cnt = ref 0 and sum = ref 0.0 in
    for i = 0 to rows - 1 do
      let db = (i * out_w) + (o * pl) in
      for p = 0 to pl - 1 do
        let v = Array.unsafe_get dd (db + p) in
        sum := !sum +. v;
        Array.unsafe_set dv !cnt v;
        Array.unsafe_set xo !cnt ((i * in_w) + (p * g.stride));
        cnt := !cnt + Bool.to_int (v <> 0.0)
      done
    done;
    gb.(o) <- !sum;
    let cnt = !cnt and gbase = o * cols in
    let col = ref 0 in
    while !col + 3 < cols do
      let c0 = Array.unsafe_get coff !col
      and c1 = Array.unsafe_get coff (!col + 1)
      and c2 = Array.unsafe_get coff (!col + 2)
      and c3 = Array.unsafe_get coff (!col + 3) in
      acc0 := 0.0;
      acc1 := 0.0;
      acc2 := 0.0;
      acc3 := 0.0;
      for t = 0 to cnt - 1 do
        let a = Array.unsafe_get dv t and xb = Array.unsafe_get xo t in
        acc0 := !acc0 +. (a *. Array.unsafe_get xd (xb + c0));
        acc1 := !acc1 +. (a *. Array.unsafe_get xd (xb + c1));
        acc2 := !acc2 +. (a *. Array.unsafe_get xd (xb + c2));
        acc3 := !acc3 +. (a *. Array.unsafe_get xd (xb + c3))
      done;
      let gc = gbase + !col in
      Array.unsafe_set gd gc !acc0;
      Array.unsafe_set gd (gc + 1) !acc1;
      Array.unsafe_set gd (gc + 2) !acc2;
      Array.unsafe_set gd (gc + 3) !acc3;
      col := !col + 4
    done;
    for col = !col to cols - 1 do
      let c0 = Array.unsafe_get coff col in
      acc0 := 0.0;
      for t = 0 to cnt - 1 do
        acc0 :=
          !acc0
          +. Array.unsafe_get dv t
             *. Array.unsafe_get xd (Array.unsafe_get xo t + c0)
      done;
      Array.unsafe_set gd (gbase + col) !acc0
    done
  done;
  (gw, gb)

(* [a.(i) <- a.(i) +. v] with the cell as the first operand: x86 keeps the
   first operand's NaN when both are NaN, and ocamlopt would make [v] the
   first one if the cell were read inside the addition (a load there
   becomes the memory operand) *)
let add_into (a : float array) (i : int) (v : float) : unit =
  let cur = Array.unsafe_get a i in
  Array.unsafe_set a i (cur +. v)

(* Input gradient: for each window p in ascending order, column col's sum
   over the nonzero d(i, o*out_len + p) of d * w(o, col), from 0.0 in
   ascending o, is added to dx(i, ci*len + p*stride + k) (which starts at
   0.0).  Four columns side by side are four independent chains. *)
let win_backward (g : win) (d : Fmat.t) ~(in_w : int) : Fmat.t =
  let rows = d.Fmat.n and out_w = d.Fmat.d in
  let cols = g.c_in * g.kernel and pl = g.out_len and c_out = g.c_out in
  let din = Fmat.create rows in_w in
  let dd = d.Fmat.data and wd = g.w.Fmat.data and xd = din.Fmat.data in
  let coff = col_offsets g in
  let dv = Array.make c_out 0.0 and wo = Array.make c_out 0 in
  let acc0 = ref 0.0 and acc1 = ref 0.0 and acc2 = ref 0.0 and acc3 = ref 0.0 in
  for i = 0 to rows - 1 do
    for p = 0 to pl - 1 do
      let cnt = ref 0 and db = (i * out_w) + p in
      for o = 0 to c_out - 1 do
        let v = Array.unsafe_get dd (db + (o * pl)) in
        Array.unsafe_set dv !cnt v;
        Array.unsafe_set wo !cnt (o * cols);
        cnt := !cnt + Bool.to_int (v <> 0.0)
      done;
      let cnt = !cnt and xb = (i * in_w) + (p * g.stride) in
      let col = ref 0 in
      while !col + 3 < cols do
        let c = !col in
        acc0 := 0.0;
        acc1 := 0.0;
        acc2 := 0.0;
        acc3 := 0.0;
        for t = 0 to cnt - 1 do
          let a = Array.unsafe_get dv t and wb = Array.unsafe_get wo t + c in
          acc0 := !acc0 +. (a *. Array.unsafe_get wd wb);
          acc1 := !acc1 +. (a *. Array.unsafe_get wd (wb + 1));
          acc2 := !acc2 +. (a *. Array.unsafe_get wd (wb + 2));
          acc3 := !acc3 +. (a *. Array.unsafe_get wd (wb + 3))
        done;
        add_into xd (xb + Array.unsafe_get coff c) !acc0;
        add_into xd (xb + Array.unsafe_get coff (c + 1)) !acc1;
        add_into xd (xb + Array.unsafe_get coff (c + 2)) !acc2;
        add_into xd (xb + Array.unsafe_get coff (c + 3)) !acc3;
        col := c + 4
      done;
      for c = !col to cols - 1 do
        acc0 := 0.0;
        for t = 0 to cnt - 1 do
          acc0 :=
            !acc0
            +. Array.unsafe_get dv t
               *. Array.unsafe_get wd (Array.unsafe_get wo t + c)
        done;
        add_into xd (xb + Array.unsafe_get coff c) !acc0
      done
    done
  done;
  din

type grad = G_none | G_par of Fmat.t * float array

type bscratch =
  | S_nothing
  | S_input of Fmat.t  (** relu output *)
  | S_win of win * Fmat.t  (** dense / conv: its windows and its input *)
  | S_pool of { argmax : int array; in_w : int; out_w : int }

(* One gradient shard: forward its rows, softmax/cross-entropy, backward,
   returning the shard-local parameter gradients.  [losses] and [dx] rows
   are disjoint per shard (safe under the pool). *)
let run_shard (net : t) ~(need_dx : bool) ~(masks : Fmat.t option array)
    ~(row0 : int) ~(xm : Fmat.t) ~(yb : int array) ~(losses : float array)
    ~(dx : Fmat.t) : grad array =
  let layers = Array.of_list net.layers in
  let nl = Array.length layers in
  let scratch = Array.make nl S_nothing in
  let rows = xm.Fmat.n in
  let a = ref xm in
  for li = 0 to nl - 1 do
    let x = !a in
    match layers.(li) with
    | (Dense _ | Conv1d _) as l ->
        let g = Option.get (win_of l ~in_w:x.Fmat.d) in
        scratch.(li) <- S_win (g, x);
        a := win_forward g x
    | Relu ->
        (* rectify in place: only non-positive cells need a store, and the
           backward pass can read the sign off the post-activation values
           (relu v > 0 iff v > 0, NaN included).  The previous layer's
           output is dead once rectified; only the shard input [xm] must
           never be mutated. *)
        let out = if x == xm then Fmat.copy x else x in
        for t = 0 to (rows * out.Fmat.d) - 1 do
          if not (Array.unsafe_get out.Fmat.data t > 0.0) then
            Array.unsafe_set out.Fmat.data t 0.0
        done;
        scratch.(li) <- S_input out;
        a := out
    | Dropout _ ->
        let mask = Option.get masks.(li) in
        let w = x.Fmat.d in
        let out = Fmat.create_uninit rows w in
        for i = 0 to rows - 1 do
          let xb = i * w and mb = (row0 + i) * w in
          for j = 0 to w - 1 do
            Array.unsafe_set out.Fmat.data (xb + j)
              (Array.unsafe_get x.Fmat.data (xb + j)
              *. Array.unsafe_get mask.Fmat.data (mb + j))
          done
        done;
        a := out
    | MaxPool mp ->
        let in_w = x.Fmat.d in
        let out_w = in_w / mp.size in
        let amax = Array.make (rows * out_w) 0 in
        let out = Fmat.create_uninit rows out_w in
        for i = 0 to rows - 1 do
          let xb = i * in_w in
          for wi = 0 to out_w - 1 do
            let base = wi * mp.size in
            let best = ref base in
            for k = 1 to mp.size - 1 do
              if
                base + k < in_w
                && Array.unsafe_get x.Fmat.data (xb + base + k)
                   > Array.unsafe_get x.Fmat.data (xb + !best)
              then best := base + k
            done;
            Array.unsafe_set amax ((i * out_w) + wi) !best;
            Array.unsafe_set out.Fmat.data ((i * out_w) + wi)
              (Array.unsafe_get x.Fmat.data (xb + !best))
          done
        done;
        scratch.(li) <- S_pool { argmax = amax; in_w; out_w };
        a := out
  done;
  (* softmax / cross-entropy head.  Gradients are SUMMED over the batch
     (dlogits = p - onehot per row, no 1/m), so the per-epoch step
     magnitude matches per-example SGD at the same learning rate. *)
  let logits = !a in
  let nc = logits.Fmat.d in
  let dlog = Fmat.create_uninit rows nc in
  let buf = Array.make nc 0.0 in
  for r = 0 to rows - 1 do
    Array.blit logits.Fmat.data (r * nc) buf 0 nc;
    let p = softmax buf in
    let y = yb.(r) in
    losses.(row0 + r) <- -.log (max 1e-12 p.(y));
    for j = 0 to nc - 1 do
      dlog.Fmat.data.((r * nc) + j) <- p.(j) -. (if j = y then 1.0 else 0.0)
    done
  done;
  let grads = Array.make nl G_none in
  let dout = ref dlog in
  for li = nl - 1 downto 0 do
    let d_o = !dout in
    match (layers.(li), scratch.(li)) with
    | _, S_win (g, xin) ->
        let gw, gb = win_grads g xin d_o in
        grads.(li) <- G_par (gw, gb);
        (* the first layer's input gradient only exists for [dx] *)
        if li > 0 || need_dx then dout := win_backward g d_o ~in_w:xin.Fmat.d
    | Relu, S_input xin ->
        (* [xin] holds the post-activation values (forward rectified in
           place); mask the incoming gradient in place — every upstream
           producer hands over a matrix that is dead after this layer *)
        for t = 0 to (rows * xin.Fmat.d) - 1 do
          if not (Array.unsafe_get xin.Fmat.data t > 0.0) then
            Array.unsafe_set d_o.Fmat.data t 0.0
        done
    | Dropout _, S_nothing ->
        let mask = Option.get masks.(li) in
        let w = d_o.Fmat.d in
        let dn = Fmat.create_uninit rows w in
        for i = 0 to rows - 1 do
          let db = i * w and mb = (row0 + i) * w in
          for j = 0 to w - 1 do
            Array.unsafe_set dn.Fmat.data (db + j)
              (Array.unsafe_get d_o.Fmat.data (db + j)
              *. Array.unsafe_get mask.Fmat.data (mb + j))
          done
        done;
        dout := dn
    | MaxPool _, S_pool { argmax; in_w; out_w } ->
        let din = Fmat.create rows in_w in
        for i = 0 to rows - 1 do
          for wi = 0 to out_w - 1 do
            let t = (i * in_w) + Array.unsafe_get argmax ((i * out_w) + wi) in
            Array.unsafe_set din.Fmat.data t
              (Array.unsafe_get din.Fmat.data t
              +. Array.unsafe_get d_o.Fmat.data ((i * out_w) + wi))
          done
        done;
        dout := din
    | _ -> assert false
  done;
  if need_dx then begin
    let dfin = !dout in
    for i = 0 to rows - 1 do
      Array.blit dfin.Fmat.data
        (i * dfin.Fmat.d)
        dx.Fmat.data
        ((row0 + i) * dx.Fmat.d)
        dx.Fmat.d
    done
  end;
  grads

let merge_grads (a : grad array) (b : grad array) : unit =
  Array.iteri
    (fun i g ->
      match (g, b.(i)) with
      | G_none, G_none -> ()
      | G_par (gw, gb), G_par (gw', gb') ->
          Fmat.axpy ~a:1.0 gw' gw;
          Array.iteri (fun j v -> gb.(j) <- gb.(j) +. v) gb'
      | _ -> assert false)
    a

(* Pairwise stride-doubling reduction into slot 0: merge (s, s+step) for
   step = 1, 2, 4, ...  The order is a function of the shard count only. *)
let tree_reduce (merge : 'a -> 'a -> unit) (shards : 'a array) : unit =
  let ns = Array.length shards in
  let step = ref 1 in
  while !step < ns do
    let s = ref 0 in
    while !s + !step < ns do
      merge shards.(!s) shards.(!s + !step);
      s := !s + (2 * !step)
    done;
    step := !step * 2
  done

let apply_grads ~(lr : float) (net : t) (g : grad array) : unit =
  List.iteri
    (fun li l ->
      match (l, g.(li)) with
      | (Dense { w; b } | Conv1d { filters = w; cbias = b; _ }), G_par (gw, gb)
        ->
          Array.iteri (fun j v -> b.(j) <- b.(j) -. (lr *. v)) gb;
          let wd = w.Fmat.data and gwd = gw.Fmat.data in
          for i = 0 to Array.length wd - 1 do
            wd.(i) <- wd.(i) -. (lr *. gwd.(i))
          done
      | _, G_none -> ()
      | _ -> assert false)
    net.layers

let train_batch ?(need_dx = true) ~(lr : float) ~(rng : Rng.t) (net : t)
    (xb : Fmat.t) (yb : int array) : float * Fmat.t =
  let m = xb.Fmat.n in
  if m = 0 then (0.0, Fmat.create 0 xb.Fmat.d)
  else begin
    if Array.length yb <> m then
      invalid_arg "Nn.train_batch: label count mismatch";
    let widths = shape_widths net ~d_in:xb.Fmat.d in
    (* dropout masks are pre-drawn on the calling domain, layer-major then
       row-major, so the rng never reaches a worker and the draw order is
       independent of sharding *)
    let masks =
      Array.of_list
        (List.mapi
           (fun li l ->
             match l with
             | Dropout d ->
                 Some
                   (Fmat.init m widths.(li) (fun _ _ ->
                        if Rng.float rng < d.p then 0.0
                        else 1.0 /. (1.0 -. d.p)))
             | _ -> None)
           net.layers)
    in
    let ns = (m + grad_shard_rows - 1) / grad_shard_rows in
    let losses = Array.make m 0.0 in
    let dx = Fmat.create m xb.Fmat.d in
    let shard_grads = Array.make ns [||] in
    Pool.run ~n:ns (fun s ->
        let lo = s * grad_shard_rows in
        let len = min grad_shard_rows (m - lo) in
        let xm =
          {
            Fmat.n = len;
            d = xb.Fmat.d;
            data = Array.sub xb.Fmat.data (lo * xb.Fmat.d) (len * xb.Fmat.d);
          }
        in
        let ys = Array.sub yb lo len in
        shard_grads.(s) <-
          run_shard net ~need_dx ~masks ~row0:lo ~xm ~yb:ys ~losses ~dx);
    tree_reduce merge_grads shard_grads;
    apply_grads ~lr net shard_grads.(0);
    let total = ref 0.0 in
    for i = 0 to m - 1 do
      total := !total +. losses.(i)
    done;
    (!total /. float_of_int m, dx)
  end

(** Raw output-layer activations of one inference pass (no softmax): the
    network's one inference path. *)
let logits (net : t) (x : float array) : float array =
  List.fold_left (fun x l -> forward l x) x net.layers

let size_bytes (net : t) : int =
  List.fold_left
    (fun acc l ->
      acc
      +
      match l with
      | Dense d -> 8 * ((d.w.n * d.w.d) + Array.length d.b)
      | Conv1d c -> 8 * ((c.filters.n * c.filters.d) + Array.length c.cbias)
      | Relu | Dropout _ | MaxPool _ -> 0)
    0 net.layers

(* -- snapshots -------------------------------------------------------------- *)

module Bin = Yali_util.Bin

let layer_to_bin b (l : layer) =
  match l with
  | Dense d ->
      Bin.w_u8 b 0;
      Fmat.to_bin b d.w;
      Bin.w_floats b d.b
  | Relu -> Bin.w_u8 b 1
  | Dropout d ->
      Bin.w_u8 b 3;
      Bin.w_f64 b d.p
  | Conv1d c ->
      Bin.w_u8 b 4;
      Bin.w_u32 b c.c_in;
      Bin.w_u32 b c.c_out;
      Bin.w_u32 b c.kernel;
      Bin.w_u32 b c.stride;
      Fmat.to_bin b c.filters;
      Bin.w_floats b c.cbias
  | MaxPool m ->
      Bin.w_u8 b 5;
      Bin.w_u32 b m.size

let layer_of_bin r : layer =
  match Bin.r_u8 r with
  | 0 ->
      let w = Fmat.of_bin r in
      let b = Bin.r_floats r in
      if Array.length b <> w.Fmat.n then
        Bin.fail r "dense layer bias/weight shape mismatch";
      Dense { w; b }
  | 1 -> Relu
  | 3 -> Dropout { p = Bin.r_f64 r }
  | 4 ->
      let c_in = Bin.r_u32 r in
      let c_out = Bin.r_u32 r in
      let kernel = Bin.r_u32 r in
      let stride = Bin.r_u32 r in
      let filters = Fmat.of_bin r in
      let cbias = Bin.r_floats r in
      if stride <= 0 || kernel <= 0 || c_in <= 0 || c_out <= 0 then
        Bin.fail r "conv layer with non-positive shape";
      if filters.Fmat.n <> c_out || filters.Fmat.d <> c_in * kernel
      then Bin.fail r "conv layer filter shape mismatch";
      if Array.length cbias <> c_out then
        Bin.fail r "conv layer bias shape mismatch";
      Conv1d { c_in; c_out; kernel; stride; filters; cbias }
  | 5 ->
      let size = Bin.r_u32 r in
      if size <= 0 then Bin.fail r "maxpool layer with non-positive size";
      MaxPool { size }
  | n -> Bin.fail r (Printf.sprintf "bad layer tag %d" n)

let to_bin b (net : t) =
  Bin.w_u32 b net.n_classes;
  Bin.w_seq b layer_to_bin net.layers

let of_bin r : t =
  let n_classes = Bin.r_u32 r in
  let layers = Bin.r_seq r layer_of_bin in
  { layers; n_classes }
