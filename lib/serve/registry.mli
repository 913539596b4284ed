(** The versioned model registry: trained classifier snapshots persisted as
    weights under [<dir>/<kind>@<version>.ymdl], so a daemon can warm-load
    a model at startup instead of retraining (DESIGN.md §11).

    Each file is a metadata header (magic ["YREG"], format version, model
    kind, training recipe) wrapping a {!Yali_ml.Model.save} blob.  A loaded
    entry predicts bit-identically to the model that published it. *)

type meta = {
  kind : string;  (** model registry name: "rf", "svm", "knn", "lr", "mlp" *)
  version : int;  (** registry version tag, 1-based *)
  embedding : string;  (** embedding the model was trained over *)
  n_classes : int;
  dim : int;  (** feature dimension the model expects *)
  n_train : int;  (** training rows *)
  seed : int;  (** training seed (the recipe is reproducible) *)
  source : string;
      (** provenance: a {!Yali_corpus.Gen.spec} string for corpus-trained
          models, ["inline:..."] for {!train}'s synthetic recipe *)
}

type entry = { meta : meta; snapshot : Yali_ml.Model.snapshot }

val encode_entry : entry -> string

(** @raise Yali_util.Bin.Corrupt on bad magic, version skew, malformed
    payload, or a metadata kind or [dim] that contradicts the snapshot
    ({!Yali_ml.Model.fits_dim}) *)
val decode_entry : string -> entry

(** ["rf@3.ymdl"] *)
val file_name : kind:string -> version:int -> string

(** Parse a model spec: ["rf"] is (rf, latest), ["rf@3"] pins version 3. *)
val parse_spec : string -> (string * int option, string) result

(** Published versions of a kind, ascending; [] when none (or no dir). *)
val versions : dir:string -> string -> int list

val latest : dir:string -> string -> int option

(** The largest version tag, [2^32 - 1]: the metadata stores it as a u32. *)
val max_version : int

(** Write a snapshot into the registry.  [version] defaults to
    latest+1 (or 1); the stored metadata carries the assigned version.
    Returns (assigned version, path).  Creates [dir] when missing.
    @raise Invalid_argument, before writing anything, when the version
    lies outside [1..max_version]. *)
val publish :
  dir:string -> ?version:int -> meta:meta -> Yali_ml.Model.snapshot ->
  int * string

(** Resolve a spec ("rf", "rf@3") against the registry and load it.
    [Error] covers bad specs, unknown kinds/versions and corrupt files. *)
val load : dir:string -> string -> (entry, string) result

(** Train a fresh snapshot on the synthetic corpus — the same Game0
    modules and embedding matrix the arena would build — and return it
    with its recipe metadata (version 0 until {!publish} assigns one).
    [Error] for unknown model kinds, [per_class < 1], and [n_classes]
    outside the POJ problems ({!Yali_dataset.Poj.plan}). *)
val train :
  seed:int ->
  embedding:Yali_embeddings.Embedding.t ->
  kind:string ->
  n_classes:int ->
  per_class:int ->
  (entry, string) result
