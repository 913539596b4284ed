(** Out-of-core training from a stored corpus: embed (or reuse) the on-disk
    feature file, then stream it through {!Yali_ml.Model.train_snapshot}.
    The resulting registry entry records the corpus meta string as its
    provenance ([meta.source]), so a published model names the exact recipe
    that produced it (DESIGN.md §12). *)

(** Embed the corpus into its feature file ({!Store.features_file}) unless
    a valid one with the right shape is already there; the file path and
    feature dimension.  {!Gen.generate} deletes the feature files of the
    corpus it replaces, so one found here describes the current records. *)
val ensure_features :
  embedding:Yali_embeddings.Embedding.t -> Store.reader -> dir:string ->
  string * int

(** [train ~dir ~embedding ~kind ~seed ()] opens the corpus at [dir] and
    trains [kind] out of core ([version 0] until published).  [block_rows]
    caps the feature rows resident at once.  [Error] covers a missing,
    corrupt or empty corpus, unknown model kinds and [block_rows < 1]. *)
val train :
  dir:string ->
  embedding:Yali_embeddings.Embedding.t ->
  kind:string ->
  seed:int ->
  ?block_rows:int ->
  unit ->
  (Yali_serve.Registry.entry, string) result
