(** Linear support-vector machine: one-vs-rest hinge loss trained with an
    averaged Pegasos-style stochastic subgradient method. *)

type t

type params = { epochs : int; lambda : float; step_offset : float }

val default_params : params

(** Pegasos over feature blocks; the step counter and averaging window
    stay global.  Every source that is one block fits the same model. *)
val train :
  ?params:params ->
  ?block_rows:int ->
  Yali_util.Rng.t ->
  n_classes:int ->
  Fblock.source ->
  int array ->
  t

(** Reassembly from parts, for the frozen reference trainer
    ([Reference.Svm]): a scaler, the [n_classes x (d+1)] weights whose last
    column is the folded bias, and the class count. *)
val of_parts : scaler:Features.scaler -> weights:Fmat.t -> n_classes:int -> t

(** Per-class one-vs-rest scores, the model's one scorer
    ({!Model.restore} derives its predictions from them). *)
val margins : t -> float array -> float array

(** The width of the feature vectors it scores: its scaler's. *)
val input_dim : t -> int

val size_bytes : t -> int

(** Serialise the trained model bit-exactly ({!Model.save}'s weights). *)
val to_bin : Buffer.t -> t -> unit

(** @raise Yali_util.Bin.Corrupt on malformed input *)
val of_bin : Yali_util.Bin.r -> t
