(** CART decision trees with Gini impurity over flat {!Fmat} feature
    matrices.  Supports per-split random feature subsampling, which
    {!Random_forest} uses.

    The split finder is histogram-based (LightGBM-style): one global
    presort per feature maps every value to a bucket code (up to
    {!max_bins} distinct values per feature, one byte per sample), and each
    node then finds its best threshold with a single counting pass plus a
    scan over occupied buckets — instead of re-sorting the node's samples
    for every candidate feature.  Because buckets are the feature's exact
    distinct values (never quantised ranges) and empty buckets are skipped,
    every candidate threshold and every Gini evaluation is {e the same
    float} the classic per-node sort-and-sweep would produce: the
    optimisation changes throughput, not the tree.  Features with more
    than {!max_bins} distinct values fall back to an exact per-node sweep.

    Tie-breaking is total and documented: among candidate splits the winner
    is the lexicographic maximum of [(gain, -feature, -threshold)] — i.e.
    highest gain, then lowest feature index, then lowest threshold — so the
    tree is invariant under reordering of the candidate feature list
    (forests stay reproducible when the per-split feature sample is
    enumerated in any order). *)

module Rng = Yali_util.Rng

type node =
  | Leaf of int  (** predicted class *)
  | Split of { feature : int; threshold : float; left : node; right : node }

type t = { root : node; n_classes : int }

type params = {
  max_depth : int;
  min_samples_split : int;
  features_per_split : int option;  (** [None] = all features *)
}

let default_params =
  { max_depth = 18; min_samples_split = 2; features_per_split = None }

let max_bins = 256

(* ------------------------------------------------------------------ *)
(* global per-feature binning (the "presort", done once per dataset)   *)
(* ------------------------------------------------------------------ *)

type prebinned = {
  pb_n : int;
  pb_d : int;
  codes : Bytes.t;
      (** feature-major: sample [i]'s bucket for feature [f] at [f*n + i];
          only meaningful when [not wide.(f)] *)
  bin_values : float array array;
      (** per feature: its sorted distinct values (bucket [b] holds exactly
          the samples equal to [bin_values.(f).(b)]); [[||]] when wide *)
  wide : bool array;  (** more than {!max_bins} distinct values *)
}

let prebin (x : Fmat.t) : prebinned =
  let n = x.Fmat.n and d = x.Fmat.d and data = x.Fmat.data in
  let codes = Bytes.create (n * d) in
  let bin_values = Array.make (max 1 d) [||] in
  let wide = Array.make (max 1 d) false in
  let col = Array.make n 0.0 in
  let sorted = Array.make n 0.0 in
  for f = 0 to d - 1 do
    for i = 0 to n - 1 do
      col.(i) <- data.((i * d) + f)
    done;
    Array.blit col 0 sorted 0 n;
    Array.sort Float.compare sorted;
    let distinct = ref (if n = 0 then 0 else 1) in
    for i = 1 to n - 1 do
      if sorted.(i) <> sorted.(i - 1) then incr distinct
    done;
    if !distinct > max_bins then wide.(f) <- true
    else begin
      let vals = Array.make !distinct 0.0 in
      if n > 0 then begin
        vals.(0) <- sorted.(0);
        let k = ref 0 in
        for i = 1 to n - 1 do
          if sorted.(i) <> sorted.(i - 1) then begin
            incr k;
            vals.(!k) <- sorted.(i)
          end
        done
      end;
      bin_values.(f) <- vals;
      let base = f * n in
      for i = 0 to n - 1 do
        let v = col.(i) in
        let lo = ref 0 and hi = ref (!distinct - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if vals.(mid) < v then lo := mid + 1 else hi := mid
        done;
        Bytes.unsafe_set codes (base + i) (Char.unsafe_chr !lo)
      done
    end
  done;
  { pb_n = n; pb_d = d; codes; bin_values; wide }

(* the majority class of a leaf, ties to the lowest class *)
let majority ~(n_classes : int) (ys : int array) (idx : int array) : int =
  let counts = Array.make n_classes 0 in
  Array.iter (fun i -> counts.(ys.(i)) <- counts.(ys.(i)) + 1) idx;
  let best = ref 0 in
  Array.iteri (fun c k -> if k > counts.(!best) then best := c) counts;
  !best

(* ------------------------------------------------------------------ *)
(* split finding                                                       *)
(* ------------------------------------------------------------------ *)

(* The incumbent split's gain and threshold, and the node's Gini
   impurity.  An all-float record is stored flat, so writing a field
   allocates nothing. *)
type incumbent = {
  mutable gain : float;  (** NaN until the node's first boundary *)
  mutable threshold : float;
  mutable node_gini : float;
}

(* Per-tree scratch, so one tree never reallocates nor races another.
   Each node lists its classes once, in ascending order, and numbers them
   0 .. [n_cls - 1]; the class counts below are indexed by that number, so
   the bucket sweep, both Gini sums and the clearing visit only the node's
   classes. *)
type scratch = {
  hist : int array;  (** max_bins x n_cls class counts, zero between nodes *)
  bin_tot : int array;  (** max_bins per-bucket totals, zero between nodes *)
  occ : int array;  (** occupied-bucket ids (prefix of length n_occ) *)
  counts : int array;  (** per-class counts by class id, zero between nodes *)
  local : int array;  (** class id -> its number in the node *)
  labels : int array;  (** the node's samples' class numbers, by position *)
  mutable n_cls : int;  (** classes present in the node *)
  parent : int array;  (** class counts of the node, by number *)
  left : int array;
  right : int array;
  best : incumbent;
  mutable best_feature : int;  (** the incumbent's feature, -1 for none *)
  marks : bool array;  (** the node's candidate features *)
  perm : int array;  (** the feature sample's Fisher–Yates shuffle *)
}

let make_scratch ~(n_classes : int) ~(d : int) ~(rows : int) : scratch =
  {
    hist = Array.make (max_bins * n_classes) 0;
    bin_tot = Array.make max_bins 0;
    occ = Array.make max_bins 0;
    counts = Array.make n_classes 0;
    local = Array.make n_classes 0;
    labels = Array.make rows 0;
    n_cls = 0;
    parent = Array.make n_classes 0;
    left = Array.make n_classes 0;
    right = Array.make n_classes 0;
    best = { gain = Float.nan; threshold = 0.0; node_gini = 0.0 };
    best_feature = -1;
    marks = Array.make d true;
    perm = Array.make d 0;
  }

(* Mark [Rng.sample rng k] over the features [0 .. d-1]: the same
   Fisher–Yates draws over the identity, whose first [k] entries are the
   sample.  {!best_split} scans the marks in ascending feature order:
   sorting the sample does not change the tree (the tie-break is
   order-invariant), and ascending order makes "first strictly better
   wins" implement it. *)
let sample_features (s : scratch) (rng : Rng.t) ~(k : int) ~(d : int) : unit =
  for i = 0 to d - 1 do
    s.perm.(i) <- i
  done;
  Rng.shuffle_in_place rng s.perm;
  Array.fill s.marks 0 d false;
  for i = 0 to min k d - 1 do
    s.marks.(s.perm.(i)) <- true
  done

(* ascending insertion sort of the occupied-bucket prefix (<= 256 ids) *)
let sort_occ (occ : int array) (n_occ : int) : unit =
  for i = 1 to n_occ - 1 do
    let v = occ.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && occ.(!j) > v do
      occ.(!j + 1) <- occ.(!j);
      decr j
    done;
    occ.(!j + 1) <- v
  done

(* List the node's classes, number its samples' labels and return its
   Gini impurity.  Summed over the node's classes in ascending order: an
   absent class would subtract [0.0 *. 0.0], which leaves the bits of the
   sum over every class unchanged. *)
let node_classes ~(n_classes : int) (s : scratch) (ys : int array)
    (idx : int array) : float =
  let n = Array.length idx in
  for t = 0 to n - 1 do
    let y = ys.(idx.(t)) in
    s.counts.(y) <- s.counts.(y) + 1
  done;
  s.n_cls <- 0;
  for c = 0 to n_classes - 1 do
    if s.counts.(c) > 0 then begin
      s.local.(c) <- s.n_cls;
      s.parent.(s.n_cls) <- s.counts.(c);
      s.counts.(c) <- 0;
      s.n_cls <- s.n_cls + 1
    end
  done;
  for t = 0 to n - 1 do
    s.labels.(t) <- s.local.(ys.(idx.(t)))
  done;
  if n = 0 then 0.0
  else begin
    let total = float_of_int n in
    let acc = ref 1.0 in
    for k = 0 to s.n_cls - 1 do
      let p = float_of_int s.parent.(k) /. total in
      acc := !acc -. (p *. p)
    done;
    !acc
  end

(* Score the boundary between [vals.(a)] and [vals.(b)] with [nl] of the
   node's [n] samples to its left ([left]/[right] hold their counts), and
   take it when its gain beats the incumbent's: a strictly greater gain is
   required, which realises the (gain, -feature, -threshold) tie-break.
   Both sides have samples, so neither Gini sum divides by zero; the two
   sums run side by side, each in ascending class order. *)
let consider (s : scratch) ~(n : int) (f : int) (vals : float array) (a : int)
    (b : int) (nl : int) : unit =
  let tl = float_of_int nl and tr = float_of_int (n - nl) in
  let gl = ref 1.0 and gr = ref 1.0 in
  for k = 0 to s.n_cls - 1 do
    let pl = float_of_int (Array.unsafe_get s.left k) /. tl in
    let pr = float_of_int (Array.unsafe_get s.right k) /. tr in
    gl := !gl -. (pl *. pl);
    gr := !gr -. (pr *. pr)
  done;
  let gain =
    s.best.node_gini -. (((tl *. !gl) +. (tr *. !gr)) /. float_of_int n)
  in
  if not (s.best.gain >= gain) then begin
    s.best.gain <- gain;
    s.best.threshold <- (vals.(a) +. vals.(b)) /. 2.0;
    s.best_feature <- f
  end

(* the histogram sweep of one feature with at most {!max_bins} values *)
let scan_binned (s : scratch) (pb : prebinned) (idx : int array) (f : int) :
    unit =
  let n = Array.length idx and nc = s.n_cls in
  let base = f * pb.pb_n in
  let vals = pb.bin_values.(f) in
  let n_occ = ref 0 in
  for t = 0 to n - 1 do
    let i = Array.unsafe_get idx t in
    let b = Char.code (Bytes.unsafe_get pb.codes (base + i)) in
    if s.bin_tot.(b) = 0 then begin
      s.occ.(!n_occ) <- b;
      incr n_occ
    end;
    s.bin_tot.(b) <- s.bin_tot.(b) + 1;
    let h = (b * nc) + Array.unsafe_get s.labels t in
    s.hist.(h) <- s.hist.(h) + 1
  done;
  sort_occ s.occ !n_occ;
  Array.fill s.left 0 nc 0;
  Array.blit s.parent 0 s.right 0 nc;
  let nl = ref 0 in
  for q = 0 to !n_occ - 2 do
    let b = s.occ.(q) in
    let hbase = b * nc in
    for k = 0 to nc - 1 do
      let h = Array.unsafe_get s.hist (hbase + k) in
      Array.unsafe_set s.left k (Array.unsafe_get s.left k + h);
      Array.unsafe_set s.right k (Array.unsafe_get s.right k - h)
    done;
    nl := !nl + s.bin_tot.(b);
    consider s ~n f vals b s.occ.(q + 1) !nl
  done;
  (* clear only the buckets this node touched *)
  for q = 0 to !n_occ - 1 do
    let b = s.occ.(q) in
    s.bin_tot.(b) <- 0;
    Array.fill s.hist (b * nc) nc 0
  done

(* exact fallback for features with > max_bins distinct values: the
   classic per-node sort-and-sweep, on gathered contiguous buffers *)
let scan_wide (s : scratch) (x : Fmat.t) (idx : int array) (f : int) : unit =
  let n = Array.length idx and nc = s.n_cls in
  let d = x.Fmat.d and data = x.Fmat.data in
  let vals = Array.make n 0.0 in
  for t = 0 to n - 1 do
    vals.(t) <- data.((idx.(t) * d) + f)
  done;
  let perm = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare vals.(a) vals.(b)) perm;
  Array.fill s.left 0 nc 0;
  Array.blit s.parent 0 s.right 0 nc;
  for k = 0 to n - 2 do
    let p = perm.(k) in
    let c = s.labels.(p) in
    s.left.(c) <- s.left.(c) + 1;
    s.right.(c) <- s.right.(c) - 1;
    if vals.(p) < vals.(perm.(k + 1)) then
      consider s ~n f vals p perm.(k + 1) (k + 1)
  done

(* Best (feature, threshold) for the sample subset [idx] over the marked
   candidate features, scanned in ascending index order; [None] unless
   some split gains more than 1e-12. *)
let best_split ~(n_classes : int) ~(pb : prebinned) ~(s : scratch)
    (x : Fmat.t) (ys : int array) (idx : int array) : (int * float) option =
  s.best.node_gini <- node_classes ~n_classes s ys idx;
  (* NaN: the first candidate always displaces it *)
  s.best.gain <- Float.nan;
  s.best_feature <- -1;
  for f = 0 to x.Fmat.d - 1 do
    if s.marks.(f) then
      if pb.wide.(f) then scan_wide s x idx f else scan_binned s pb idx f
  done;
  if s.best_feature >= 0 && s.best.gain > 1e-12 then
    Some (s.best_feature, s.best.threshold)
  else None

(* ------------------------------------------------------------------ *)
(* training                                                            *)
(* ------------------------------------------------------------------ *)

let train ?(params = default_params) ?prebinned ?sample (rng : Rng.t)
    ~(n_classes : int) (x : Fmat.t) (ys : int array) : t =
  let d = x.Fmat.d in
  let pb =
    match prebinned with
    | Some pb ->
        if pb.pb_n <> x.Fmat.n || pb.pb_d <> d then
          invalid_arg "Decision_tree.train: prebinned shape mismatch";
        pb
    | None -> prebin x
  in
  let idx =
    match sample with
    | Some s -> s
    | None -> Array.init x.Fmat.n Fun.id
  in
  let s = make_scratch ~n_classes ~d ~rows:(Array.length idx) in
  let data = x.Fmat.data in
  let rec grow (idx : int array) (depth : int) : node =
    let pure =
      Array.length idx > 0
      && Array.for_all (fun i -> ys.(i) = ys.(idx.(0))) idx
    in
    if
      pure || depth >= params.max_depth
      || Array.length idx < params.min_samples_split
    then Leaf (majority ~n_classes ys idx)
    else begin
      Option.iter
        (fun k -> sample_features s rng ~k ~d)
        params.features_per_split;
      match best_split ~n_classes ~pb ~s x ys idx with
      | None -> Leaf (majority ~n_classes ys idx)
      | Some (feature, threshold) ->
          let m = Array.length idx in
          let nl = ref 0 in
          for t = 0 to m - 1 do
            if data.((idx.(t) * d) + feature) <= threshold then incr nl
          done;
          if !nl = 0 || !nl = m then Leaf (majority ~n_classes ys idx)
          else begin
            let left_idx = Array.make !nl 0 in
            let right_idx = Array.make (m - !nl) 0 in
            let li = ref 0 and ri = ref 0 in
            for t = 0 to m - 1 do
              let i = idx.(t) in
              if data.((i * d) + feature) <= threshold then begin
                left_idx.(!li) <- i;
                incr li
              end
              else begin
                right_idx.(!ri) <- i;
                incr ri
              end
            done;
            Split
              {
                feature;
                threshold;
                left = grow left_idx (depth + 1);
                right = grow right_idx (depth + 1);
              }
          end
    end
  in
  { root = grow idx 0; n_classes }

let predict (t : t) (x : float array) : int =
  let rec go = function
    | Leaf c -> c
    | Split { feature; threshold; left; right } ->
        if x.(feature) <= threshold then go left else go right
  in
  go t.root

let rec node_count = function
  | Leaf _ -> 1
  | Split { left; right; _ } -> 1 + node_count left + node_count right

let size_bytes (t : t) : int = node_count t.root * 40

(* -- snapshots -------------------------------------------------------------- *)

module Bin = Yali_util.Bin

(* trees are at most [max_depth] (default 24) deep, so plain recursion is
   safe on both sides *)
let rec node_to_bin b = function
  | Leaf c ->
      Bin.w_u8 b 0;
      Bin.w_u32 b c
  | Split { feature; threshold; left; right } ->
      Bin.w_u8 b 1;
      Bin.w_u32 b feature;
      Bin.w_f64 b threshold;
      node_to_bin b left;
      node_to_bin b right

(* the depth guard keeps a corrupt input from overflowing the stack: no
   genuine tree is remotely this deep (train caps depth at [max_depth]);
   a leaf class outside [0, n_classes) would index past a forest's vote
   array *)
let rec node_of_bin ~n_classes ?(depth = 0) r =
  if depth > 512 then Bin.fail r "tree deeper than 512";
  match Bin.r_u8 r with
  | 0 ->
      let c = Bin.r_u32 r in
      if c >= n_classes then
        Bin.fail r (Printf.sprintf "leaf class %d of %d" c n_classes);
      Leaf c
  | 1 ->
      let feature = Bin.r_u32 r in
      let threshold = Bin.r_f64 r in
      let left = node_of_bin ~n_classes ~depth:(depth + 1) r in
      let right = node_of_bin ~n_classes ~depth:(depth + 1) r in
      Split { feature; threshold; left; right }
  | n -> Bin.fail r (Printf.sprintf "bad tree-node tag %d" n)

let to_bin b (t : t) =
  Bin.w_u32 b t.n_classes;
  node_to_bin b t.root

let of_bin r : t =
  let n_classes = Bin.r_u32 r in
  let root = node_of_bin ~n_classes r in
  { root; n_classes }
