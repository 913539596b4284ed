(** Embed a stored corpus into an on-disk {!Yali_ml.Fblock} feature file,
    shard-parallel: each pool task folds one shard through a private
    descriptor and writes its rows (disjoint by construction) through a
    private {!Yali_ml.Fblock.Pwrite} — deterministic at any [jobs], and
    never more than one module resident per task (DESIGN.md §12). *)

(** [to_file ~embedding r ~out] writes one feature row per corpus record
    (in record order) and returns the feature dimension. *)
val to_file :
  embedding:Yali_embeddings.Embedding.t -> Store.reader -> out:string -> int

(** Sequential in-memory embedding (test corpora, equivalence checks):
    the feature matrix and the label vector, in record order. *)
val to_fmat :
  embedding:Yali_embeddings.Embedding.t -> Store.reader ->
  Yali_ml.Fmat.t * int array
