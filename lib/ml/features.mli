(** Feature preprocessing shared by the distance- and gradient-based
    models: per-feature standardisation fitted on the training set. *)

type scaler

(** Fit means and standard deviations (constant features get unit scale). *)
val fit : float array array -> scaler

(** The number of features a scaler was fitted on (0 when fitted on no
    rows). *)
val scaler_dim : scaler -> int

val transform : scaler -> float array -> float array
val fit_transform : float array array -> scaler * float array array

(** Fit over streamed blocks.  Bit-identical to {!fit} on the source's
    rows at any [block_rows] (same accumulation order). *)
val fit_stream : ?block_rows:int -> Fblock.source -> scaler

(** Standardise a flat matrix in place. *)
val transform_fmat_inplace : scaler -> Fmat.t -> unit

(** [sgd_epochs ?block_rows src rng ~epochs f] is the one block walk of
    the minibatch and per-sample SGD trainers (DESIGN.md §12).  It fits the
    scaler with {!fit_stream}, then for each epoch visits every block in
    row order, standardised, and calls [f epoch ~lo block order]: [lo] is
    the block's first row, [order] its sample order, which persists across
    epochs and is shuffled in place with [rng] just before the call.  A
    source that is one block is read and standardised once.  Returns the
    scaler.  The fit draws nothing from [rng], so a trainer that draws its
    initial weights first consumes [rng] as if it had fitted before. *)
val sgd_epochs :
  ?block_rows:int ->
  Fblock.source ->
  Yali_util.Rng.t ->
  epochs:int ->
  (int -> lo:int -> Fmat.t -> int array -> unit) ->
  scaler

(** Fit and return a standardised {e copy} (the input is left intact, so
    one embedded matrix can be shared across models). *)
val fit_transform_fmat : Fmat.t -> scaler * Fmat.t

(** Footprint of a flat matrix (one block, no per-row headers). *)
val bytes_of_fmat : Fmat.t -> int

(** Serialise a fitted scaler bit-exactly (model snapshots). *)
val scaler_to_bin : Buffer.t -> scaler -> unit

(** @raise Yali_util.Bin.Corrupt on malformed input *)
val scaler_of_bin : Yali_util.Bin.r -> scaler
