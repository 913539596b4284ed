(** Frozen pre-kernel-layer implementations of the models the {!Fmat}
    rewrite touched: decision trees / random forests with per-node
    sort-and-sweep split finding over [float array array] rows, k-NN with
    the subtract-square-accumulate distance and a full sort, logistic
    regression over row arrays, the Pegasos svm loop with its per-class
    score chain, and the allocating per-sample mlp step.

    These exist for two reasons only:
    - differential property tests (test/test_fmat.ml) check that the
      rewritten kernels grow the same trees node for node, predict
      identically and train bitwise the same weights on randomised
      datasets;
    - the [bench kernels] section measures the before/after speedup against
      the very code the optimised kernels replaced.

    Nothing in the framework proper may depend on this module.  The one
    deliberate deviation from the historical code is marked below: the tree
    sorts its candidate features ascending, adopting the total
    (gain, lowest-feature, lowest-threshold) tie-break that the rewritten
    {!Decision_tree} documents — the differential tests compare the split
    kernels, not the (changed, documented) tie rule.  [Fmat.matmul_naive]
    plays the same role for the neural window kernels: the frozen trainers
    below run it, and the kernel oracles hold the window kernels to it. *)

module Rng = Yali_util.Rng

module Decision_tree = struct
  type node =
    | Leaf of int
    | Split of { feature : int; threshold : float; left : node; right : node }

  type t = { root : node; n_classes : int }

  type params = {
    max_depth : int;
    min_samples_split : int;
    features_per_split : int option;
  }

  let default_params =
    { max_depth = 18; min_samples_split = 2; features_per_split = None }

  let majority ~(n_classes : int) (ys : int array) (idx : int array) : int =
    let counts = Array.make n_classes 0 in
    Array.iter (fun i -> counts.(ys.(i)) <- counts.(ys.(i)) + 1) idx;
    let best = ref 0 in
    Array.iteri (fun c k -> if k > counts.(!best) then best := c) counts;
    !best

  let gini_of_counts (counts : int array) (total : int) : float =
    if total = 0 then 0.0
    else begin
      let acc = ref 1.0 in
      Array.iter
        (fun k ->
          let p = float_of_int k /. float_of_int total in
          acc := !acc -. (p *. p))
        counts;
      !acc
    end

  let best_split ~(n_classes : int) (xs : float array array) (ys : int array)
      (idx : int array) (features : int list) : (int * float * float) option =
    let n = Array.length idx in
    let parent_counts = Array.make n_classes 0 in
    Array.iter
      (fun i -> parent_counts.(ys.(i)) <- parent_counts.(ys.(i)) + 1)
      idx;
    let parent_gini = gini_of_counts parent_counts n in
    let best = ref None in
    List.iter
      (fun f ->
        (* per-node, per-feature: copy and sort the sample indices — the
           O(n log n)-per-candidate cost the histogram kernel removes *)
        let sorted = Array.copy idx in
        Array.sort (fun a b -> compare xs.(a).(f) xs.(b).(f)) sorted;
        let left_counts = Array.make n_classes 0 in
        let right_counts = Array.copy parent_counts in
        for k = 0 to n - 2 do
          let i = sorted.(k) in
          left_counts.(ys.(i)) <- left_counts.(ys.(i)) + 1;
          right_counts.(ys.(i)) <- right_counts.(ys.(i)) - 1;
          let v = xs.(i).(f) and v' = xs.(sorted.(k + 1)).(f) in
          if v < v' then begin
            let nl = k + 1 and nr = n - k - 1 in
            let g =
              (float_of_int nl *. gini_of_counts left_counts nl
              +. float_of_int nr *. gini_of_counts right_counts nr)
              /. float_of_int n
            in
            let gain = parent_gini -. g in
            let thr = (v +. v') /. 2.0 in
            match !best with
            | Some (_, _, best_gain) when best_gain >= gain -> ()
            | _ -> best := Some (f, thr, gain)
          end
        done)
      features;
    match !best with
    | Some (f, thr, gain) when gain > 1e-12 -> Some (f, thr, gain)
    | _ -> None

  let train ?(params = default_params) (rng : Rng.t) ~(n_classes : int)
      (xs : float array array) (ys : int array) : t =
    let d = if Array.length xs = 0 then 0 else Array.length xs.(0) in
    let all_features = List.init d Fun.id in
    let pick_features () =
      match params.features_per_split with
      | None -> all_features
      | Some k ->
          (* deviation from the historical code (see module comment): sort
             the sampled candidates so ties resolve to the lowest feature,
             like the rewritten tree; RNG consumption is unchanged *)
          List.sort compare (Rng.sample rng (min k d) all_features)
    in
    let rec grow (idx : int array) (depth : int) : node =
      let pure =
        Array.length idx > 0
        && Array.for_all (fun i -> ys.(i) = ys.(idx.(0))) idx
      in
      if
        pure || depth >= params.max_depth
        || Array.length idx < params.min_samples_split
      then Leaf (majority ~n_classes ys idx)
      else
        match best_split ~n_classes xs ys idx (pick_features ()) with
        | None -> Leaf (majority ~n_classes ys idx)
        | Some (feature, threshold, _) ->
            let left_idx =
              Array.of_seq
                (Seq.filter
                   (fun i -> xs.(i).(feature) <= threshold)
                   (Array.to_seq idx))
            in
            let right_idx =
              Array.of_seq
                (Seq.filter
                   (fun i -> xs.(i).(feature) > threshold)
                   (Array.to_seq idx))
            in
            if Array.length left_idx = 0 || Array.length right_idx = 0 then
              Leaf (majority ~n_classes ys idx)
            else
              Split
                {
                  feature;
                  threshold;
                  left = grow left_idx (depth + 1);
                  right = grow right_idx (depth + 1);
                }
    in
    let idx = Array.init (Array.length xs) Fun.id in
    { root = grow idx 0; n_classes }

  let predict (t : t) (x : float array) : int =
    let rec go = function
      | Leaf c -> c
      | Split { feature; threshold; left; right } ->
          if x.(feature) <= threshold then go left else go right
    in
    go t.root

  let rec same_tree (a : Decision_tree.node) (b : node) : bool =
    match (a, b) with
    | Leaf c, Leaf c' -> c = c'
    | Split s, Split s' ->
        s.feature = s'.feature
        && Int64.bits_of_float s.threshold = Int64.bits_of_float s'.threshold
        && same_tree s.left s'.left && same_tree s.right s'.right
    | _ -> false
end

module Random_forest = struct
  type t = { trees : Decision_tree.t array; n_classes : int }

  type params = { n_trees : int; max_depth : int }

  let default_params = { n_trees = 64; max_depth = 24 }

  let train ?(params = default_params) (rng : Rng.t) ~(n_classes : int)
      (xs : float array array) (ys : int array) : t =
    let n = Array.length xs in
    let d = if n = 0 then 0 else Array.length xs.(0) in
    let fps = max 1 (max (int_of_float (sqrt (float_of_int d))) (d / 2)) in
    let tree_params =
      {
        Decision_tree.max_depth = params.max_depth;
        min_samples_split = 2;
        features_per_split = Some fps;
      }
    in
    let tree_rngs = Rng.split_n rng params.n_trees in
    let trees =
      Yali_exec.Pool.parallel_array_map
        (fun tree_rng ->
          (* bootstrap by row copy — the allocation the rewrite avoids *)
          let bxs = Array.make n [||] and bys = Array.make n 0 in
          for i = 0 to n - 1 do
            let j = Rng.int tree_rng n in
            bxs.(i) <- xs.(j);
            bys.(i) <- ys.(j)
          done;
          Decision_tree.train ~params:tree_params tree_rng ~n_classes bxs bys)
        tree_rngs
    in
    { trees; n_classes }

  let predict (f : t) (x : float array) : int =
    let votes = Array.make f.n_classes 0 in
    Array.iter
      (fun t ->
        let c = Decision_tree.predict t x in
        votes.(c) <- votes.(c) + 1)
      f.trees;
    let best = ref 0 in
    Array.iteri (fun c k -> if k > votes.(!best) then best := c) votes;
    !best
end

module Knn = struct
  type t = {
    k : int;
    scaler : Features.scaler;
    xs : float array array;
    ys : int array;
    n_classes : int;
  }

  let train ?(k = 5) ~(n_classes : int) (xs : float array array)
      (ys : int array) : t =
    let scaler, xs = Features.fit_transform xs in
    { k; scaler; xs; ys; n_classes }

  let sq_dist (a : float array) (b : float array) : float =
    let acc = ref 0.0 in
    Array.iteri
      (fun i x ->
        let d = x -. b.(i) in
        acc := !acc +. (d *. d))
      a;
    !acc

  let predict (t : t) (x : float array) : int =
    let x = Features.transform t.scaler x in
    let n = Array.length t.xs in
    let k = min t.k n in
    (* per-query: n fresh tuples and a full O(n log n) sort — the
       allocation and work the partial selection removes *)
    let dists = Array.make n (0.0, 0) in
    Yali_exec.Pool.parallel_for_chunks ~min_chunk:512 n (fun lo hi ->
        for i = lo to hi - 1 do
          dists.(i) <- (sq_dist x t.xs.(i), t.ys.(i))
        done);
    Array.sort (fun (a, _) (b, _) -> compare a b) dists;
    let votes = Array.make t.n_classes 0 in
    for i = 0 to k - 1 do
      let _, y = dists.(i) in
      votes.(y) <- votes.(y) + 1
    done;
    let best = ref 0 in
    Array.iteri (fun c v -> if v > votes.(!best) then best := c) votes;
    !best
end

module Logreg = struct
  type t = {
    scaler : Features.scaler;
    weights : Fmat.t;
    bias : float array;
    n_classes : int;
  }

  type params = { epochs : int; lr : float; l2 : float; batch : int }

  let default_params = { epochs = 60; lr = 0.1; l2 = 1e-4; batch = 32 }

  let softmax (z : float array) : float array =
    let m = Array.fold_left max neg_infinity z in
    let e = Array.map (fun x -> exp (x -. m)) z in
    let s = Array.fold_left ( +. ) 0.0 e in
    Array.map (fun x -> x /. s) e

  let logits (w : Fmat.t) (bias : float array) (x : float array) :
      float array =
    Array.init (Array.length bias) (fun c ->
        let acc = ref bias.(c) in
        for j = 0 to Array.length x - 1 do
          acc := !acc +. (Fmat.get w c j *. x.(j))
        done;
        !acc)

  let argmax (v : float array) : int =
    let best = ref 0 in
    Array.iteri (fun i x -> if x > v.(!best) then best := i) v;
    !best

  let train ?(params = default_params) (rng : Rng.t) ~(n_classes : int)
      (xs : float array array) (ys : int array) : t =
    let scaler, xs = Features.fit_transform xs in
    let n = Array.length xs in
    let d = if n = 0 then 0 else Array.length xs.(0) in
    let w = Fmat.random rng n_classes d ~scale:0.01 in
    let bias = Array.make n_classes 0.0 in
    let order = Array.init n Fun.id in
    for epoch = 0 to params.epochs - 1 do
      let lr = params.lr /. (1.0 +. (0.05 *. float_of_int epoch)) in
      for i = n - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let tmp = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- tmp
      done;
      let b = ref 0 in
      while !b < n do
        let hi = min n (!b + params.batch) in
        let gw = Fmat.create n_classes d
        and gb = Array.make n_classes 0.0 in
        for k = !b to hi - 1 do
          let i = order.(k) in
          let p = softmax (logits w bias xs.(i)) in
          for c = 0 to n_classes - 1 do
            let err = p.(c) -. (if c = ys.(i) then 1.0 else 0.0) in
            gb.(c) <- gb.(c) +. err;
            for j = 0 to d - 1 do
              Fmat.set gw c j (Fmat.get gw c j +. (err *. xs.(i).(j)))
            done
          done
        done;
        let bs = float_of_int (hi - !b) in
        for c = 0 to n_classes - 1 do
          bias.(c) <- bias.(c) -. (lr *. gb.(c) /. bs);
          for j = 0 to d - 1 do
            let wij = Fmat.get w c j in
            Fmat.set w c j
              (wij -. (lr *. ((Fmat.get gw c j /. bs) +. (params.l2 *. wij))))
          done
        done;
        b := hi
      done
    done;
    { scaler; weights = w; bias; n_classes }

  let predict (t : t) (x : float array) : int =
    let x = Features.transform t.scaler x in
    argmax (logits t.weights t.bias x)
end

(* The Pegasos loop as it stood before [Svm.train] scored every class of
   a sample with one [Fmat.mv_into]: each class's margin is its own
   ascending-feature chain ([score_flat]), read just before that class's
   update.  The kernels/svm-vs-reference oracle and `bench kernels` hold
   [Svm.train]'s snapshots to it byte for byte, in memory and in blocks. *)
module Svm = struct
  let augment_fmat (x : Fmat.t) : Fmat.t =
    let n = x.Fmat.n and d = x.Fmat.d in
    let a = Fmat.create n (d + 1) in
    for i = 0 to n - 1 do
      Array.blit x.Fmat.data (i * d) a.Fmat.data (i * (d + 1)) d;
      a.Fmat.data.((i * (d + 1)) + d) <- 1.0
    done;
    a

  let score_flat (w : Fmat.t) (c : int) (xd : float array) (xbase : int)
      (d : int) : float =
    let acc = ref 0.0 in
    let wbase = c * w.Fmat.d in
    for j = 0 to d - 1 do
      acc :=
        !acc
        +. Array.unsafe_get w.Fmat.data (wbase + j)
           *. Array.unsafe_get xd (xbase + j)
    done;
    !acc

  let train ?(params = Svm.default_params) ?block_rows (rng : Rng.t)
      ~(n_classes : int) (src : Fblock.source) (ys : int array) : Svm.t =
    let scaler = Features.fit_stream ?block_rows src in
    let n = Fblock.rows src in
    let d = if n = 0 then 1 else Fblock.dim src + 1 in
    let w = Fmat.create n_classes d in
    let w_sum = Fmat.create n_classes d in
    let wd = w.Fmat.data in
    let t_step = ref 0 in
    let n_avg = ref 0 in
    let each_block =
      Fblock.prepared ?block_rows src (fun block ->
          Features.transform_fmat_inplace scaler block;
          augment_fmat block)
    in
    for _epoch = 0 to params.Svm.epochs - 1 do
      each_block (fun _ lo xs ->
          let bn = xs.Fmat.n in
          let xd = xs.Fmat.data in
          for _ = 0 to bn - 1 do
            let i = Rng.int rng bn in
            incr t_step;
            let eta =
              1.0
              /. (params.Svm.lambda
                 *. (float_of_int !t_step +. params.Svm.step_offset))
            in
            let xbase = i * d in
            for c = 0 to n_classes - 1 do
              let y = if ys.(lo + i) = c then 1.0 else -1.0 in
              let margin = y *. score_flat w c xd xbase d in
              let shrink = 1.0 -. (eta *. params.Svm.lambda) in
              let wbase = c * d in
              if margin < 1.0 then begin
                let s = eta *. y in
                for j = 0 to d - 1 do
                  Array.unsafe_set wd (wbase + j)
                    ((Array.unsafe_get wd (wbase + j) *. shrink)
                    +. (s *. Array.unsafe_get xd (xbase + j)))
                done
              end
              else
                for j = 0 to d - 1 do
                  Array.unsafe_set wd (wbase + j)
                    (Array.unsafe_get wd (wbase + j) *. shrink)
                done
            done;
            if 2 * !t_step > params.Svm.epochs * n then begin
              incr n_avg;
              Fmat.axpy ~a:1.0 w w_sum
            end
          done)
    done;
    let weights =
      if !n_avg > 0 then Fmat.scale (1.0 /. float_of_int !n_avg) w_sum else w
    in
    Svm.of_parts ~scaler ~weights ~n_classes
end

(* -- frozen naive minibatch trainers (DESIGN.md §15) ------------------------ *)

(* The minibatch rewrite of the neural tier (Nn.train_batch and the
   cnn/dgcnn trainers built on it) is pinned against the naive
   implementations below: the SAME minibatch algorithm — same shard
   boundaries, same per-cell floating-point accumulation chains, same rng
   draw order — expressed as per-sample boxed loops and naive matmuls
   instead of window kernels, and run sequentially instead of over the
   worker pool.  The
   ml/nn-kernel-vs-reference oracle and `bench nn` require the two sides to
   produce bit-identical weights; the benchmark also measures the speedup
   against this very code.  Do not "optimise" anything below. *)

(* Duplicated from Nn.tree_reduce: pairwise stride-doubling reduction into
   slot 0 — the merge order is part of the frozen contract. *)
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

(* Fisher-Yates exactly as the kernel trainers consume the rng. *)
let shuffle (rng : Rng.t) (order : int array) : unit =
  for i = Array.length order - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done

(* The allocating per-sample mlp step as it stood before [Mlp] stepped in
   place: fresh arrays for every product, softmax and gradient, and its
   own naive loops for them, so it shares no kernel with [Mlp].  The fmat
   test pins [Mlp.train]'s weights to it bit for bit. *)
module Mlp = struct
  let mv (m : Fmat.t) (v : float array) : float array =
    Array.init m.Fmat.n (fun i ->
        let acc = ref 0.0 in
        for j = 0 to m.Fmat.d - 1 do
          acc := !acc +. (m.Fmat.data.((i * m.Fmat.d) + j) *. v.(j))
        done;
        !acc)

  let vm (v : float array) (m : Fmat.t) : float array =
    Array.init m.Fmat.d (fun j ->
        let acc = ref 0.0 in
        for i = 0 to m.Fmat.n - 1 do
          acc := !acc +. (v.(i) *. m.Fmat.data.((i * m.Fmat.d) + j))
        done;
        !acc)

  (* b -= lr * g, w -= lr * g x^T *)
  let sgd_update ~(lr : float) (w : Fmat.t) (b : float array)
      (g : float array) (x : float array) : unit =
    for o = 0 to w.Fmat.n - 1 do
      b.(o) <- b.(o) -. (lr *. g.(o));
      let s = lr *. g.(o) in
      for i = 0 to w.Fmat.d - 1 do
        let k = (o * w.Fmat.d) + i in
        w.Fmat.data.(k) <- w.Fmat.data.(k) -. (s *. x.(i))
      done
    done

  let step ~(lr : float) (w1, b1, w2, b2) (x : float array) (y : int) : unit
      =
    let h =
      Array.mapi
        (fun i v ->
          let v = v +. b1.(i) in
          if v > 0.0 then v else 0.0)
        (mv w1 x)
    in
    let p = Logreg.softmax (Array.mapi (fun i v -> v +. b2.(i)) (mv w2 h)) in
    let dz = Array.mapi (fun i v -> v -. if i = y then 1.0 else 0.0) p in
    let dh = vm dz w2 in
    let dh = Array.mapi (fun i v -> if h.(i) > 0.0 then v else 0.0) dh in
    sgd_update ~lr w2 b2 dz h;
    sgd_update ~lr w1 b1 dh x

  (* [Mlp.train] on one block: the same initialisation draws, scaler and
     per-epoch shuffles *)
  let train ?(params = Mlp.default_params) (rng : Rng.t) ~(n_classes : int)
      (xs : float array array) (ys : int array) : Cnn.t =
    let n = Array.length xs in
    let d = if n = 0 then 0 else Array.length xs.(0) in
    let net =
      {
        Nn.layers =
          [
            Nn.dense rng ~d_in:d ~d_out:params.Mlp.hidden;
            Nn.relu;
            Nn.dense rng ~d_in:params.Mlp.hidden ~d_out:n_classes;
          ];
        n_classes;
      }
    in
    let layers =
      match Nn.view net with
      | [ V_dense l1; V_relu; V_dense l2 ] -> (l1.w, l1.b, l2.w, l2.b)
      | _ -> assert false
    in
    let scaler, xs = Features.fit_transform xs in
    let order = Array.init n Fun.id in
    for epoch = 0 to params.Mlp.epochs - 1 do
      let lr = params.Mlp.lr /. (1.0 +. (0.03 *. float_of_int epoch)) in
      shuffle rng order;
      Array.iter (fun i -> step ~lr layers xs.(i) ys.(i)) order
    done;
    Cnn.of_parts ~scaler ~net
end

module Nnb = struct
  type grad = G_none | G_par of Fmat.t * float array

  type scr =
    | Nothing
    | In of float array
    | ConvS of { xin : float array; in_w : int; out_len : int }
    | PoolS of { argmax : int array; in_w : int; out_w : int }

  let widths_of (views : Nn.layer_view array) ~(d_in : int) : int array =
    let nl = Array.length views in
    let widths = Array.make (nl + 1) d_in in
    for li = 0 to nl - 1 do
      let w = widths.(li) in
      widths.(li + 1) <-
        (match views.(li) with
        | Nn.V_dense { w = wm; _ } ->
            if wm.Fmat.d <> w then
              invalid_arg "Reference.Nnb: dense layer width mismatch";
            wm.Fmat.n
        | Nn.V_relu | Nn.V_dropout _ -> w
        | Nn.V_conv1d c ->
            let in_len = w / c.c_in in
            let ol = ((in_len - c.kernel) / c.stride) + 1 in
            if ol <= 0 then c.c_out else c.c_out * ol
        | Nn.V_maxpool size -> w / size)
    done;
    widths

  (* One minibatch SGD step through a {!Nn.view} of the network — the naive
     counterpart of [Nn.train_batch].  Summed cross-entropy gradients,
     shard-local accumulators of [Nn.grad_shard_rows] rows merged by
     {!tree_reduce}, dropout masks drawn layer-major then row-major. *)
  let train_batch ~(lr : float) ~(rng : Rng.t) (net : Nn.t) (xb : Fmat.t)
      (yb : int array) : float * Fmat.t =
    let m = xb.Fmat.n in
    if m = 0 then (0.0, Fmat.create 0 xb.Fmat.d)
    else begin
      if Array.length yb <> m then
        invalid_arg "Reference.Nnb.train_batch: label count mismatch";
      let views = Array.of_list (Nn.view net) in
      let nl = Array.length views in
      let widths = widths_of views ~d_in:xb.Fmat.d in
      let masks = Array.make nl None in
      for li = 0 to nl - 1 do
        match views.(li) with
        | Nn.V_dropout p ->
            let wd = widths.(li) in
            let mk = Array.make (m * wd) 0.0 in
            for i = 0 to m - 1 do
              for j = 0 to wd - 1 do
                mk.((i * wd) + j) <-
                  (if Rng.float rng < p then 0.0 else 1.0 /. (1.0 -. p))
              done
            done;
            masks.(li) <- Some mk
        | _ -> ()
      done;
      let ns = (m + Nn.grad_shard_rows - 1) / Nn.grad_shard_rows in
      let losses = Array.make m 0.0 in
      let dx = Fmat.create m xb.Fmat.d in
      let shard_grads =
        Array.init ns (fun _ ->
            Array.map
              (function
                | Nn.V_dense { w; _ } ->
                    G_par
                      ( Fmat.create w.Fmat.n w.Fmat.d,
                        Array.make w.Fmat.n 0.0 )
                | Nn.V_conv1d c ->
                    G_par
                      ( Fmat.create c.c_out (c.c_in * c.kernel),
                        Array.make c.c_out 0.0 )
                | _ -> G_none)
              views)
      in
      for s = 0 to ns - 1 do
        let lo = s * Nn.grad_shard_rows in
        let len = min Nn.grad_shard_rows (m - lo) in
        let grads = shard_grads.(s) in
        for r = 0 to len - 1 do
          let row = lo + r in
          let scratch = Array.make nl Nothing in
          let a = ref (Fmat.row_copy xb row) in
          for li = 0 to nl - 1 do
            let x = !a in
            match views.(li) with
            | Nn.V_dense { w; b } ->
                scratch.(li) <- In x;
                let out = Array.make w.Fmat.n 0.0 in
                for o = 0 to w.Fmat.n - 1 do
                  let acc = ref b.(o) in
                  for j = 0 to w.Fmat.d - 1 do
                    let xv = x.(j) in
                    if xv <> 0.0 then acc := !acc +. (xv *. Fmat.get w o j)
                  done;
                  out.(o) <- !acc
                done;
                a := out
            | Nn.V_relu ->
                scratch.(li) <- In x;
                a := Array.map (fun v -> if v > 0.0 then v else 0.0) x
            | Nn.V_dropout _ ->
                let mask = Option.get masks.(li) in
                let wd = widths.(li) in
                a := Array.mapi (fun j v -> v *. mask.((row * wd) + j)) x
            | Nn.V_conv1d c ->
                let in_w = Array.length x in
                let in_len = in_w / c.c_in in
                let out_len = ((in_len - c.kernel) / c.stride) + 1 in
                scratch.(li) <- ConvS { xin = x; in_w; out_len };
                if out_len <= 0 then a := Array.make c.c_out 0.0
                else begin
                  let out = Array.make (c.c_out * out_len) 0.0 in
                  for o = 0 to c.c_out - 1 do
                    for p = 0 to out_len - 1 do
                      let acc = ref c.cbias.(o) in
                      for ci = 0 to c.c_in - 1 do
                        for k = 0 to c.kernel - 1 do
                          let xv = x.((ci * in_len) + (p * c.stride) + k) in
                          if xv <> 0.0 then
                            acc :=
                              !acc
                              +. (xv
                                 *. Fmat.get c.filters o ((ci * c.kernel) + k))
                        done
                      done;
                      out.((o * out_len) + p) <- !acc
                    done
                  done;
                  a := out
                end
            | Nn.V_maxpool size ->
                let in_w = Array.length x in
                let out_w = in_w / size in
                let amax = Array.make out_w 0 in
                let out =
                  Array.init out_w (fun wi ->
                      let base = wi * size in
                      let best = ref base in
                      for k = 1 to size - 1 do
                        if base + k < in_w && x.(base + k) > x.(!best) then
                          best := base + k
                      done;
                      amax.(wi) <- !best;
                      x.(!best))
                in
                scratch.(li) <- PoolS { argmax = amax; in_w; out_w };
                a := out
          done;
          let logits = !a in
          let p = Nn.softmax logits in
          let y = yb.(row) in
          losses.(row) <- -.log (max 1e-12 p.(y));
          let g =
            ref (Array.mapi (fun j v -> v -. if j = y then 1.0 else 0.0) p)
          in
          for li = nl - 1 downto 0 do
            let d_o = !g in
            match (views.(li), scratch.(li), grads.(li)) with
            | Nn.V_dense { w; _ }, In xin, G_par (gw, gb) ->
                for o = 0 to Array.length d_o - 1 do
                  gb.(o) <- gb.(o) +. d_o.(o)
                done;
                for o = 0 to Array.length d_o - 1 do
                  let gv = d_o.(o) in
                  if gv <> 0.0 then
                    for j = 0 to Array.length xin - 1 do
                      Fmat.set gw o j (Fmat.get gw o j +. (gv *. xin.(j)))
                    done
                done;
                g :=
                  Array.init w.Fmat.d (fun j ->
                      let acc = ref 0.0 in
                      for o = 0 to w.Fmat.n - 1 do
                        let gv = d_o.(o) in
                        if gv <> 0.0 then
                          acc := !acc +. (gv *. Fmat.get w o j)
                      done;
                      !acc)
            | Nn.V_relu, In xin, G_none ->
                g :=
                  Array.mapi
                    (fun j v -> if xin.(j) > 0.0 then v else 0.0)
                    d_o
            | Nn.V_dropout _, Nothing, G_none ->
                let mask = Option.get masks.(li) in
                let wd = widths.(li) in
                g := Array.mapi (fun j v -> v *. mask.((row * wd) + j)) d_o
            | Nn.V_conv1d c, ConvS { xin; in_w; out_len }, G_par (gf, gcb) ->
                if out_len <= 0 then g := Array.make in_w 0.0
                else begin
                  let in_len = in_w / c.c_in in
                  for p = 0 to out_len - 1 do
                    for o = 0 to c.c_out - 1 do
                      gcb.(o) <- gcb.(o) +. d_o.((o * out_len) + p)
                    done
                  done;
                  for p = 0 to out_len - 1 do
                    for o = 0 to c.c_out - 1 do
                      let gv = d_o.((o * out_len) + p) in
                      if gv <> 0.0 then
                        for ci = 0 to c.c_in - 1 do
                          for k = 0 to c.kernel - 1 do
                            let col = (ci * c.kernel) + k in
                            Fmat.set gf o col
                              (Fmat.get gf o col
                              +. (gv
                                 *. xin.((ci * in_len) + (p * c.stride) + k)))
                          done
                        done
                    done
                  done;
                  let din = Array.make in_w 0.0 in
                  let cols = c.c_in * c.kernel in
                  let dimrow = Array.make cols 0.0 in
                  for p = 0 to out_len - 1 do
                    for col = 0 to cols - 1 do
                      let acc = ref 0.0 in
                      for o = 0 to c.c_out - 1 do
                        let gv = d_o.((o * out_len) + p) in
                        if gv <> 0.0 then
                          acc := !acc +. (gv *. Fmat.get c.filters o col)
                      done;
                      dimrow.(col) <- !acc
                    done;
                    for ci = 0 to c.c_in - 1 do
                      for k = 0 to c.kernel - 1 do
                        let xi = (ci * in_len) + (p * c.stride) + k in
                        din.(xi) <- din.(xi) +. dimrow.((ci * c.kernel) + k)
                      done
                    done
                  done;
                  g := din
                end
            | Nn.V_maxpool _, PoolS { argmax; in_w; out_w }, G_none ->
                let din = Array.make in_w 0.0 in
                for wi = 0 to out_w - 1 do
                  din.(argmax.(wi)) <- din.(argmax.(wi)) +. d_o.(wi)
                done;
                g := din
            | _ -> assert false
          done;
          Array.blit !g 0 dx.Fmat.data (row * dx.Fmat.d) dx.Fmat.d
        done
      done;
      tree_reduce
        (fun a b ->
          Array.iteri
            (fun i ga ->
              match (ga, b.(i)) with
              | G_none, G_none -> ()
              | G_par (gw, gb), G_par (gw', gb') ->
                  Array.iteri
                    (fun j v ->
                      gw.Fmat.data.(j) <- gw.Fmat.data.(j) +. v)
                    gw'.Fmat.data;
                  Array.iteri (fun j v -> gb.(j) <- gb.(j) +. v) gb'
              | _ -> assert false)
            a)
        shard_grads;
      Array.iteri
        (fun li v ->
          match (v, shard_grads.(0).(li)) with
          | Nn.V_dense { w; b }, G_par (gw, gb) ->
              Array.iteri (fun j gv -> b.(j) <- b.(j) -. (lr *. gv)) gb;
              let wd = w.Fmat.data and gwd = gw.Fmat.data in
              for i = 0 to Array.length wd - 1 do
                wd.(i) <- wd.(i) -. (lr *. gwd.(i))
              done
          | Nn.V_conv1d c, G_par (gf, gcb) ->
              Array.iteri
                (fun j gv -> c.cbias.(j) <- c.cbias.(j) -. (lr *. gv))
                gcb;
              let fd = c.filters.Fmat.data and gfd = gf.Fmat.data in
              for i = 0 to Array.length fd - 1 do
                fd.(i) <- fd.(i) -. (lr *. gfd.(i))
              done
          | _, G_none -> ()
          | _ -> assert false)
        views;
      let total = ref 0.0 in
      for i = 0 to m - 1 do
        total := !total +. losses.(i)
      done;
      (!total /. float_of_int m, dx)
    end
end

module Cnn = struct
  (* The naive counterpart of [Cnn.train]: identical rng consumption
     (build_net draws, per-epoch shuffles, per-batch dropout masks) and
     identical minibatch schedule, with every SGD step going through
     {!Nnb.train_batch} instead of the kernel. *)
  let train ?params (rng : Rng.t) ~(n_classes : int) (x : Fmat.t)
      (ys : int array) : Cnn.t =
    let params =
      match params with Some p -> p | None -> Cnn.default_params
    in
    let scaler, x = Features.fit_transform_fmat x in
    let net = Cnn.build_net rng ~d_in:x.Fmat.d ~n_classes in
    let n = x.Fmat.n in
    let order = Array.init n Fun.id in
    let batch = params.Cnn.batch in
    for epoch = 0 to params.Cnn.epochs - 1 do
      let lr = params.Cnn.lr /. (1.0 +. (0.05 *. float_of_int epoch)) in
      shuffle rng order;
      let nb = (n + batch - 1) / batch in
      for b = 0 to nb - 1 do
        let lo = b * batch in
        let m = min batch (n - lo) in
        let xb = Fmat.create m x.Fmat.d in
        for i = 0 to m - 1 do
          Array.blit x.Fmat.data
            (order.(lo + i) * x.Fmat.d)
            xb.Fmat.data (i * x.Fmat.d) x.Fmat.d
        done;
        let yb = Array.init m (fun i -> ys.(order.(lo + i))) in
        ignore (Nnb.train_batch ~lr ~rng net xb yb)
      done
    done;
    Cnn.of_parts ~scaler ~net
end

module Dgcnn = struct
  module Graph = Yali_embeddings.Graph

  (* Naive counterpart of the DGCNN minibatch trainer: same initialisation
     draws ([Dgcnn.init_gc_weights] / [Dgcnn.build_head]), duplicated
     forward/backward on [Fmat.matmul_naive] and explicit transposes (where
     [Dgcnn] runs [Nn]'s window kernels through [Dgcnn.gc_win]), every
     graph prepared again in every epoch, the first layer's unread input
     gradient still computed, same shard-structured gradient accumulation
     merged by {!tree_reduce}, head steps through {!Nnb.train_batch}. *)

  let total_channels (p : Dgcnn.params) =
    List.fold_left ( + ) 0 p.Dgcnn.gc_channels

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

  type forward_state = {
    adj : int list array;
    px_list : Fmat.t list;
    z_list : Fmat.t list;
    concat : Fmat.t;
    order : int array;
    flat : float array;
  }

  let forward_graph (p : Dgcnn.params) (gc_weights : Fmat.t list)
      (g : Graph.t) : forward_state =
    let g =
      if Graph.node_count g = 0 then
        { g with Graph.node_feats = [| Array.make g.feat_dim 0.0 |]; edges = [] }
      else g
    in
    let g =
      let cap = p.Dgcnn.max_nodes in
      if Graph.node_count g <= cap then g
      else
        {
          g with
          Graph.node_feats = Array.sub g.node_feats 0 cap;
          edges = List.filter (fun (s, d, _) -> s < cap && d < cap) g.edges;
        }
    in
    let adj = Graph.undirected_adjacency g in
    let x0 =
      Fmat.map (fun v -> Float.copy_sign (log1p (Float.abs v)) v)
        (Fmat.of_rows g.node_feats)
    in
    let n = x0.Fmat.n in
    let rec go z ws px_acc z_acc =
      match ws with
      | [] -> (List.rev px_acc, List.rev z_acc)
      | w :: rest ->
          let px = propagate adj z in
          let zl = Fmat.map tanh (Fmat.matmul_naive px w) in
          go zl rest (px :: px_acc) (zl :: z_acc)
    in
    let px_list, z_list = go x0 gc_weights [] [] in
    let tc = total_channels p in
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
    let k = p.Dgcnn.sortpool_k in
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        compare (Fmat.get concat b (tc - 1)) (Fmat.get concat a (tc - 1)))
      order;
    let flat = Array.make (k * tc) 0.0 in
    for r = 0 to min k n - 1 do
      let i = order.(r) in
      for c = 0 to tc - 1 do
        flat.((r * tc) + c) <- Fmat.get concat i c
      done
    done;
    { adj; px_list; z_list; concat; order; flat }

  let graph_backward (p : Dgcnn.params) (gc_weights : Fmat.t list)
      (st : forward_state) (dflat : float array) : Fmat.t list =
    let tc = total_channels p in
    let nn = st.concat.Fmat.n in
    let dconcat = Fmat.create nn tc in
    for r = 0 to min p.Dgcnn.sortpool_k nn - 1 do
      let node = st.order.(r) in
      for c = 0 to tc - 1 do
        Fmat.set dconcat node c (dflat.((r * tc) + c))
      done
    done;
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
    let rev_w = List.rev gc_weights in
    let rev_z = List.rev st.z_list in
    let rev_px = List.rev st.px_list in
    let rev_dz = List.rev layer_grads in
    let rec back ws zs pxs dzs (carry : Fmat.t option) (dws : Fmat.t list)
        =
      match (ws, zs, pxs, dzs) with
      | [], [], [], [] -> dws
      | w :: ws', z :: zs', px :: pxs', dz :: dzs' ->
          let dz_total =
            match carry with Some c -> Fmat.add dz c | None -> dz
          in
          let dpre =
            Fmat.init nn z.Fmat.d (fun i' c ->
                let zv = Fmat.get z i' c in
                Fmat.get dz_total i' c *. (1.0 -. (zv *. zv)))
          in
          let dw = Fmat.matmul_naive (Fmat.transpose px) dpre in
          let dprev =
            propagate_t st.adj (Fmat.matmul_naive dpre (Fmat.transpose w))
          in
          back ws' zs' pxs' dzs' (Some dprev) (dw :: dws)
      | _ -> assert false
    in
    back rev_w rev_z rev_px rev_dz None []

  let train ?params (rng : Rng.t) ~(n_classes : int) ~(feat_dim : int)
      (graphs : Graph.t array) (ys : int array) : Dgcnn.t =
    let params =
      match params with Some p -> p | None -> Dgcnn.default_params
    in
    let gc_weights = Dgcnn.init_gc_weights rng params ~feat_dim in
    let head = Dgcnn.build_head rng params ~n_classes in
    let n = Array.length graphs in
    let order = Array.init n Fun.id in
    let flat_w = params.Dgcnn.sortpool_k * total_channels params in
    for epoch = 0 to params.Dgcnn.epochs - 1 do
      let lr =
        params.Dgcnn.lr /. (1.0 +. (0.05 *. float_of_int epoch))
      in
      shuffle rng order;
      let batch = params.Dgcnn.batch in
      let nb = (n + batch - 1) / batch in
      for b = 0 to nb - 1 do
        let lo = b * batch in
        let m = min batch (n - lo) in
        let states =
          Array.init m (fun i ->
              forward_graph params gc_weights graphs.(order.(lo + i)))
        in
        let flats = Fmat.create m flat_w in
        for i = 0 to m - 1 do
          Array.blit states.(i).flat 0 flats.Fmat.data (i * flat_w) flat_w
        done;
        let yb = Array.init m (fun i -> ys.(order.(lo + i))) in
        let _loss, dflat = Nnb.train_batch ~lr ~rng head flats yb in
        let ns = (m + Nn.grad_shard_rows - 1) / Nn.grad_shard_rows in
        let shard_acc =
          Array.init ns (fun _ ->
              List.map
                (fun (w : Fmat.t) ->
                  Fmat.create w.Fmat.n w.Fmat.d)
                gc_weights)
        in
        for s = 0 to ns - 1 do
          let slo = s * Nn.grad_shard_rows in
          let shi = min m (slo + Nn.grad_shard_rows) in
          let accs = shard_acc.(s) in
          for i = slo to shi - 1 do
            let dws =
              graph_backward params gc_weights states.(i)
                (Fmat.row_copy dflat i)
            in
            List.iter2
              (fun (acc : Fmat.t) (dw : Fmat.t) ->
                for j = 0 to Array.length acc.Fmat.data - 1 do
                  acc.Fmat.data.(j) <-
                    acc.Fmat.data.(j) +. (1.0 *. dw.Fmat.data.(j))
                done)
              accs dws
          done
        done;
        tree_reduce
          (fun a b ->
            List.iter2
              (fun (x : Fmat.t) (y : Fmat.t) ->
                for j = 0 to Array.length x.Fmat.data - 1 do
                  x.Fmat.data.(j) <-
                    x.Fmat.data.(j) +. (1.0 *. y.Fmat.data.(j))
                done)
              a b)
          shard_acc;
        List.iter2
          (fun (w : Fmat.t) (dw : Fmat.t) ->
            for j = 0 to Array.length w.Fmat.data - 1 do
              w.Fmat.data.(j) <-
                w.Fmat.data.(j) +. (-.lr *. dw.Fmat.data.(j))
            done)
          gc_weights shard_acc.(0)
      done
    done;
    Dgcnn.of_parts ~params ~gc_weights ~head ~feat_dim ~n_classes
end
