(** k-nearest-neighbour classification over standardised features.

    Training precomputes the squared norm of every (standardised) training
    row; prediction expands [‖a−b‖² = ‖a‖² − 2a·b + ‖b‖²] so the distance
    sweep is one contiguous dot product per training row.  The expansion
    evaluates the same distances up to float rounding — exact equality with
    the subtract-square-accumulate form is not guaranteed, but the ordering
    of non-tied neighbours is unaffected at the scale of standardised
    features.

    {b Tie-break} (total, documented): neighbours are ordered by
    [(distance, training_row_index)] lexicographically — when two training
    points are exactly equidistant from the query, the one with the lower
    training-row index wins the slot.  A voting tie between classes resolves
    to the lowest class id ({!Model.argmax}'s first maximum). *)

type t

(** [train ?k ~n_classes x ys] standardises [x] and stores it (plus per-row
    squared norms). *)
val train : ?k:int -> n_classes:int -> Fmat.t -> int array -> t

(** Per-class neighbour vote counts as floats, the model's one scorer
    ({!Model.restore} derives its predictions from them). *)
val margins : t -> float array -> float array

(** The width of the feature vectors it scores: its scaler's. *)
val input_dim : t -> int

(** Approximate heap footprint of the stored training set. *)
val size_bytes : t -> int

(** Serialise the trained model bit-exactly ({!Model.save}'s weights). *)
val to_bin : Buffer.t -> t -> unit

(** @raise Yali_util.Bin.Corrupt on malformed input *)
val of_bin : Yali_util.Bin.r -> t
