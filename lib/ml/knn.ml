(** k-nearest-neighbour classification over standardised features (the only
    deterministic model in the arena — the paper notes it is the one model
    with no randomly initialised parameters).

    Distances use the expansion [‖a−b‖² = ‖a‖² − 2a·b + ‖b‖²] with the
    per-row training norms precomputed at [train] time, so a query costs one
    dot product per training row over the contiguous {!Fmat} storage; the
    sweep is chunked over the pool and the k nearest are kept with a partial
    selection instead of a full sort.  See the interface for the exact
    tie-breaking rule and the float caveat of the expansion. *)

type t = {
  k : int;
  scaler : Features.scaler;
  x : Fmat.t;  (** standardised training points *)
  norms : float array;  (** per-row squared norms of [x] *)
  ys : int array;
  n_classes : int;
}

let train ?(k = 5) ~(n_classes : int) (x : Fmat.t) (ys : int array) : t =
  let scaler, x = Features.fit_transform_fmat x in
  let norms = Array.init x.Fmat.n (Fmat.sq_norm_row x) in
  { k; scaler; x; norms; ys; n_classes }

let input_dim (t : t) = Features.scaler_dim t.scaler

(** Per-class neighbour vote counts of a (raw, unstandardised) query, as
    floats. *)
let margins (t : t) (q : float array) : float array =
  let q = Features.transform t.scaler q in
  let qn =
    let acc = ref 0.0 in
    Array.iter (fun v -> acc := !acc +. (v *. v)) q;
    !acc
  in
  let n = t.x.Fmat.n in
  let k = min t.k n in
  (* distance sweep: cache-blocked chunks over the contiguous rows (it
     stays inline under an outer parallel loop, e.g. the arena's challenge
     sweep); each chunk writes only its own slots *)
  let dists = Array.make n 0.0 in
  Yali_exec.Pool.parallel_for_chunks ~min_chunk:512 n (fun lo hi ->
      for i = lo to hi - 1 do
        dists.(i) <- qn -. (2.0 *. Fmat.dot_row_vec t.x i q) +. t.norms.(i)
      done);
  (* partial selection of the k nearest under the total (distance, row)
     order: scanning rows in ascending index and requiring a strictly
     smaller distance to displace the incumbent worst realises the
     lowest-index-wins tie rule *)
  let bd = Array.make (max 1 k) infinity in
  let bi = Array.make (max 1 k) 0 in
  let filled = ref 0 in
  for i = 0 to n - 1 do
    let di = dists.(i) in
    if !filled < k then begin
      let p = ref !filled in
      while !p > 0 && di < bd.(!p - 1) do
        bd.(!p) <- bd.(!p - 1);
        bi.(!p) <- bi.(!p - 1);
        decr p
      done;
      bd.(!p) <- di;
      bi.(!p) <- i;
      incr filled
    end
    else if k > 0 && di < bd.(k - 1) then begin
      let p = ref (k - 1) in
      while !p > 0 && di < bd.(!p - 1) do
        bd.(!p) <- bd.(!p - 1);
        bi.(!p) <- bi.(!p - 1);
        decr p
      done;
      bd.(!p) <- di;
      bi.(!p) <- i
    end
  done;
  let votes = Array.make t.n_classes 0.0 in
  for q = 0 to !filled - 1 do
    let y = t.ys.(bi.(q)) in
    votes.(y) <- votes.(y) +. 1.0
  done;
  votes

let size_bytes (t : t) : int =
  Features.bytes_of_fmat t.x + (8 * Array.length t.ys)

(* The snapshot stores the standardised training matrix itself: k-NN's
   "weights" are the training set, exactly as held in memory. *)

module Bin = Yali_util.Bin

let to_bin b (t : t) =
  Bin.w_u32 b t.k;
  Features.scaler_to_bin b t.scaler;
  Fmat.to_bin b t.x;
  Bin.w_floats b t.norms;
  Bin.w_ints b t.ys;
  Bin.w_u32 b t.n_classes

let of_bin r : t =
  let k = Bin.r_u32 r in
  let scaler = Features.scaler_of_bin r in
  let x = Fmat.of_bin r in
  let norms = Bin.r_floats r in
  let ys = Bin.r_ints r in
  let n_classes = Bin.r_u32 r in
  if Array.length norms <> x.Fmat.n || Array.length ys <> x.Fmat.n then
    Bin.fail r "knn shape mismatch";
  if Features.scaler_dim scaler <> x.Fmat.d then
    Bin.fail r "knn scaler/training-set width mismatch";
  if Array.exists (fun y -> y < 0 || y >= n_classes) ys then
    Bin.fail r "knn label outside its classes";
  { k; scaler; x; norms; ys; n_classes }
