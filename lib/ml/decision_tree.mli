(** CART decision trees with Gini impurity and optional per-split random
    feature subsampling ({!Random_forest}'s building block).

    Training runs over a flat {!Fmat} matrix with histogram-based split
    finding: one global presort per feature assigns every sample a one-byte
    bucket code (buckets are {e exact distinct values}, up to 256 per
    feature), and each node finds its best threshold from per-bucket class
    counts instead of re-sorting its samples per candidate feature.
    Thresholds, gains and the grown tree are bit-identical to the classic
    per-node sort-and-sweep (see DESIGN.md §8); features with more than 256
    distinct values use an exact per-node sweep instead.

    {b Tie-break} (total, order-invariant): the winning split maximises
    [(gain, -feature_index, -threshold)] lexicographically — highest gain
    first, then the lowest feature index, then the lowest threshold — so
    the tree does not depend on the order in which candidate features are
    enumerated. *)

type node =
  | Leaf of int  (** predicted class *)
  | Split of { feature : int; threshold : float; left : node; right : node }

type t = { root : node; n_classes : int }

type params = {
  max_depth : int;
  min_samples_split : int;
  features_per_split : int option;  (** [None] = all features *)
}

val default_params : params

(** The reusable global binning of a dataset (the per-feature presort).
    Build it once with {!prebin} and share it across every tree trained on
    the same matrix — it is read-only after construction, so concurrent
    trainings may share one. *)
type prebinned

(** @raise Invalid_argument via {!train} when shapes mismatch. *)
val prebin : Fmat.t -> prebinned

(** [train ?params ?prebinned ?sample rng ~n_classes x ys] grows a tree on
    the rows of [x] listed in [sample] (default: all rows, in order;
    duplicated indices express bootstrap resampling without copying rows).
    [prebinned] must come from {!prebin} on this same [x].
    @raise Invalid_argument when [prebinned] was built for another shape. *)
val train :
  ?params:params ->
  ?prebinned:prebinned ->
  ?sample:int array ->
  Yali_util.Rng.t ->
  n_classes:int ->
  Fmat.t ->
  int array ->
  t

(** The class of the leaf a feature vector reaches. *)
val predict : t -> float array -> int

val node_count : node -> int
val size_bytes : t -> int

(** Serialise a grown tree bit-exactly (thresholds as IEEE-754 bits). *)
val to_bin : Buffer.t -> t -> unit

(** @raise Yali_util.Bin.Corrupt on malformed input, including a leaf
    class outside [[0, n_classes)] *)
val of_bin : Yali_util.Bin.r -> t
