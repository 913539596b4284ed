(** Feature preprocessing shared by the distance- and gradient-based models:
    per-feature standardisation (zero mean, unit variance) fitted on the
    training set and replayed on challenges. *)

type scaler = { means : float array; stds : float array }

let fit (xs : float array array) : scaler =
  match Array.length xs with
  | 0 -> { means = [||]; stds = [||] }
  | n ->
      let d = Array.length xs.(0) in
      let means = Array.make d 0.0 and stds = Array.make d 0.0 in
      Array.iter (fun x -> Array.iteri (fun j v -> means.(j) <- means.(j) +. v) x) xs;
      for j = 0 to d - 1 do
        means.(j) <- means.(j) /. float_of_int n
      done;
      Array.iter
        (fun x ->
          Array.iteri
            (fun j v -> stds.(j) <- stds.(j) +. ((v -. means.(j)) ** 2.0))
            x)
        xs;
      for j = 0 to d - 1 do
        stds.(j) <- sqrt (stds.(j) /. float_of_int n);
        if stds.(j) < 1e-9 then stds.(j) <- 1.0
      done;
      { means; stds }

let scaler_dim (s : scaler) : int = Array.length s.means

let transform (s : scaler) (x : float array) : float array =
  Array.mapi (fun j v -> (v -. s.means.(j)) /. s.stds.(j)) x

let fit_transform (xs : float array array) : scaler * float array array =
  let s = fit xs in
  (s, Array.map (transform s) xs)

(** Fit over streamed blocks.  Blocks arrive in row order and each pass
    accumulates samples-outer / features-inner exactly as {!fit} does over
    rows, so the fitted parameters are bit-identical to it at any
    [block_rows]. *)
let fit_stream ?block_rows (src : Fblock.source) : scaler =
  let n = Fblock.rows src and d = Fblock.dim src in
  if n = 0 then { means = [||]; stds = [||] }
  else begin
    let means = Array.make d 0.0 and stds = Array.make d 0.0 in
    Fblock.iter_blocks ?block_rows src (fun _lo block ->
        let data = block.Fmat.data in
        for i = 0 to block.Fmat.n - 1 do
          let base = i * d in
          for j = 0 to d - 1 do
            means.(j) <- means.(j) +. data.(base + j)
          done
        done);
    for j = 0 to d - 1 do
      means.(j) <- means.(j) /. float_of_int n
    done;
    Fblock.iter_blocks ?block_rows src (fun _lo block ->
        let data = block.Fmat.data in
        for i = 0 to block.Fmat.n - 1 do
          let base = i * d in
          for j = 0 to d - 1 do
            stds.(j) <- stds.(j) +. ((data.(base + j) -. means.(j)) ** 2.0)
          done
        done);
    for j = 0 to d - 1 do
      stds.(j) <- sqrt (stds.(j) /. float_of_int n);
      if stds.(j) < 1e-9 then stds.(j) <- 1.0
    done;
    { means; stds }
  end

let transform_fmat_inplace (s : scaler) (x : Fmat.t) : unit =
  let n = x.Fmat.n and d = x.Fmat.d and data = x.Fmat.data in
  for i = 0 to n - 1 do
    let base = i * d in
    for j = 0 to d - 1 do
      data.(base + j) <- (data.(base + j) -. s.means.(j)) /. s.stds.(j)
    done
  done

(** The block walk of the SGD trainers (DESIGN.md §12): fit the scaler,
    then for every epoch visit each block in row order, standardised, with
    its persistent sample order shuffled in place at the start of the
    visit.  A source that is one block is read and standardised once. *)
let sgd_epochs ?block_rows (src : Fblock.source) (rng : Yali_util.Rng.t)
    ~(epochs : int) (f : int -> lo:int -> Fmat.t -> int array -> unit) :
    scaler =
  let scaler = fit_stream ?block_rows src in
  let orders =
    Array.map
      (fun bn -> Array.init bn Fun.id)
      (Fblock.block_sizes ?block_rows src)
  in
  let each_block =
    Fblock.prepared ?block_rows src (fun block ->
        transform_fmat_inplace scaler block;
        block)
  in
  for epoch = 0 to epochs - 1 do
    each_block (fun k lo block ->
        Yali_util.Rng.shuffle_in_place rng orders.(k);
        f epoch ~lo block orders.(k))
  done;
  scaler

(** Fit on [x] and return a standardised copy ([x] itself is left intact:
    callers share one embedded matrix across several models). *)
let fit_transform_fmat (x : Fmat.t) : scaler * Fmat.t =
  let s = fit_stream (Fblock.Mem x) in
  let y = Fmat.copy x in
  transform_fmat_inplace s y;
  (s, y)

(** Same footprint estimate for a flat matrix: one header, no per-row
    overhead — the memory argument for the contiguous layout. *)
let bytes_of_fmat (x : Fmat.t) : int = (8 * x.Fmat.n * x.Fmat.d) + 24

module Bin = Yali_util.Bin

let scaler_to_bin b (s : scaler) =
  Bin.w_floats b s.means;
  Bin.w_floats b s.stds

let scaler_of_bin r : scaler =
  let means = Bin.r_floats r in
  let stds = Bin.r_floats r in
  if Array.length means <> Array.length stds then
    Bin.fail r "scaler with mismatched means/stds";
  { means; stds }
