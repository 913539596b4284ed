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

(** The split-finding buffers of one tree at a time: class histograms
    for up to 256 buckets, per-class counts, the feature sample and the
    constant-feature marks.  A tree leaves them as it found them, so one
    scratch can grow any number of trees in turn, each the same tree a
    fresh scratch grows; it must not be shared by concurrent trainings. *)
type scratch

(** [make_scratch ~n_classes ~d ~rows] fits trees over [d] features and
    [n_classes] classes whose sample has at most [rows] entries. *)
val make_scratch : n_classes:int -> d:int -> rows:int -> scratch

(** [train ?params ?prebinned ?sample ?scratch rng ~n_classes x ys] grows
    a tree on the rows of [x] listed in [sample] (default: all rows, in
    order; duplicated indices express bootstrap resampling without copying
    rows).  [prebinned] must come from {!prebin} on this same [x];
    [scratch] (default: a fresh one) is reused as is, which saves its
    allocation when one caller grows many trees.
    Every input is checked before the scratch is touched, so a scratch
    stays reusable after a refusal.
    @raise Invalid_argument unless [ys] has one label in [[0, n_classes)]
    per row of [x], every [sample] index is a row of [x], [prebinned] was
    built for [x]'s shape and [scratch] was made for [n_classes], [x]'s
    width and at least the sample's length. *)
val train :
  ?params:params ->
  ?prebinned:prebinned ->
  ?sample:int array ->
  ?scratch:scratch ->
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
