(** Dense row-major matrices: the one matrix type of the numeric kernels,
    for feature matrices and model weights alike.

    An [n x d] matrix is one contiguous row-major [float array] (row [i]'s
    column [j] lives at [i * d + j]) instead of an array of row pointers.
    Training kernels iterate it with unit stride and the whole matrix is
    one heap block — the layout that histogram tree learners, blocked
    distance kernels and the neural window kernels depend on (DESIGN.md
    §8). *)

type t = {
  n : int;  (** rows (samples of a feature matrix) *)
  d : int;  (** columns (features of a feature matrix) *)
  data : float array;  (** row-major, length [n * d] *)
}

(** [create n d] is an [n x d] matrix of zeros. *)
val create : int -> int -> t

(** Uninitialised storage (no zero-fill) for results that are fully
    overwritten before being read.  Callers must write every cell. *)
val create_uninit : int -> int -> t

(** [init n d f] fills position [(i, j)] with [f i j]. *)
val init : int -> int -> (int -> int -> float) -> t

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

(** Pack an array of equal-length rows.  @raise Invalid_argument on ragged
    input. *)
val of_rows : float array array -> t

(** Unpack to an array of fresh rows (test/debug helper). *)
val to_rows : t -> float array array

(** [of_fn ~n f] packs the [n] rows [f 0 .. f (n-1)]; the width is taken
    from [f 0].  @raise Invalid_argument when a row's length differs. *)
val of_fn : n:int -> (int -> float array) -> t

(** {!of_fn} with rows [1..n-1] computed on the {!Yali_exec.Pool} ([f] must
    be pure; each task writes only its own row, so the result is
    bit-identical at any [jobs]).  This is how embedding pipelines emit
    straight into matrix rows without an intermediate [float array array]. *)
val parallel_of_fn : n:int -> (int -> float array) -> t

(** [of_rows_into dst rows] overwrites [dst] from [rows], one blit per row
    and no intermediate allocation — the minibatch-assembly path of the
    batched neural trainers.  @raise Invalid_argument on shape mismatch. *)
val of_rows_into : t -> float array array -> unit

(** [gather_rows_into dst src idx ~lo ~len] blits rows
    [src[idx.(lo)] .. src[idx.(lo + len - 1)]] into [dst] — minibatch
    assembly from a shuffled index order, one blit per row.
    @raise Invalid_argument on shape mismatch or an out-of-range slice. *)
val gather_rows_into : t -> t -> int array -> lo:int -> len:int -> unit

(** Fresh copy of row [i] (allocates; prefer {!row_into} in loops). *)
val row_copy : t -> int -> float array

(** [row_into m i dst] blits row [i] into [dst] without allocating.
    @raise Invalid_argument when [Array.length dst <> m.d]. *)
val row_into : t -> int -> float array -> unit

(** [set_row m i src] overwrites row [i] from [src]. *)
val set_row : t -> int -> float array -> unit

(** [dot_row_vec m i v] is the dot product of row [i] with [v], accumulated
    in ascending column order. *)
val dot_row_vec : t -> int -> float array -> float

(** [sq_norm_row m i] is [‖row i‖²], accumulated in ascending column
    order. *)
val sq_norm_row : t -> int -> float

val copy : t -> t

(** The i-k-j product: each output cell is one chain from [0.0] over
    ascending [k] that skips the terms whose left factor is [0.0] or
    [-0.0].  The frozen reference trainers run it, and the oracles hold
    {!Nn}'s window kernels to it bit for bit.
    @raise Invalid_argument on dimension mismatch *)
val matmul_naive : t -> t -> t

val transpose : t -> t
val map : (float -> float) -> t -> t

(** @raise Invalid_argument on dimension mismatch *)
val add : t -> t -> t

val scale : float -> t -> t

(** In-place [y += a * x].  @raise Invalid_argument on dimension mismatch *)
val axpy : a:float -> t -> t -> unit

(** [mv_into m x ~off y] adds the product of [m] and the [m.d] entries of
    [x] from [off] into [y]: [y.(i)] becomes its start value plus
    [m(i, j) *. x.(off + j)] summed in ascending column order, one chain
    per row.  Four rows run side by side; no allocation.
    @raise Invalid_argument when [x] is too short or [y] has fewer than
    [m.n] entries. *)
val mv_into : t -> float array -> off:int -> float array -> unit

(** Matrix–vector product into a fresh array: {!mv_into} from zeros.
    @raise Invalid_argument on dimension mismatch *)
val mv : t -> float array -> float array

(** Gaussian random matrix with the given standard deviation, drawn in
    row-major order. *)
val random : Yali_util.Rng.t -> int -> int -> scale:float -> t

(** First-maximum index of a score vector: a later entry displaces the
    best only when strictly greater, so ties break to the lowest index. *)
val argmax : float array -> int

(** Serialise shape and element bits (model snapshots; bit-exact). *)
val to_bin : Buffer.t -> t -> unit

(** @raise Yali_util.Bin.Corrupt on malformed input *)
val of_bin : Yali_util.Bin.r -> t
