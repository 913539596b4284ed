(** Dense row-major matrices: the only numeric kernel the framework needs. *)

type t = { rows : int; cols : int; data : float array }

val create : int -> int -> t

(** Uninitialised storage (no zero-fill) for results that are fully
    overwritten before being read.  Callers must write every cell. *)
val create_uninit : int -> int -> t
val init : int -> int -> (int -> int -> float) -> t
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val of_rows : float array array -> t

(** Copy of row [i] (allocates; prefer {!row_into} in loops). *)
val row : t -> int -> float array

(** [row_into m i dst] blits row [i] into [dst] without allocating.
    @raise Invalid_argument when [Array.length dst <> cols]. *)
val row_into : t -> int -> float array -> unit

val copy : t -> t

(** Cache-tiled product.  Bit-identical to {!matmul_naive}: tiling only
    reorders work across output cells, never the per-cell accumulation
    order.  @raise Invalid_argument on dimension mismatch *)
val matmul : t -> t -> t

(** The untiled i-k-j reference kernel (for differential tests and the
    kernel benchmarks).  @raise Invalid_argument on dimension mismatch *)
val matmul_naive : t -> t -> t

(** [matmul_bias ~bias a b]: like {!matmul} but row [i] of the result is
    seeded from [bias] before accumulating, matching the summation order of
    a per-sample [bias.(j) + Σ_k a_ik b_kj] loop.
    @raise Invalid_argument on dimension mismatch *)
val matmul_bias : bias:float array -> t -> t -> t

val transpose : t -> t
val map : (float -> float) -> t -> t

(** @raise Invalid_argument on dimension mismatch *)
val add : t -> t -> t

val scale : float -> t -> t

(** In-place [y += a * x].  @raise Invalid_argument on dimension mismatch *)
val axpy : a:float -> t -> t -> unit

(** Matrix–vector product.  @raise Invalid_argument on dimension mismatch *)
val mv : t -> float array -> float array

(** Vector–matrix product [v^T M]. *)
val vm : float array -> t -> float array

(** Gaussian random matrix with the given standard deviation. *)
val random : Yali_util.Rng.t -> int -> int -> scale:float -> t

val pp : Format.formatter -> t -> unit

(** Serialise shape and element bits (model snapshots; bit-exact). *)
val to_bin : Buffer.t -> t -> unit

(** @raise Yali_util.Bin.Corrupt on malformed input *)
val of_bin : Yali_util.Bin.r -> t
