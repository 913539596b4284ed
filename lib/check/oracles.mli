(** Invariant oracles beside translation validation, packaged as {!Prop}
    properties so the smoke and deep tiers run them at different depths.

    The families:
    - {!kernels}: the rewritten numeric kernels against the frozen
      pre-rewrite implementations in {!Yali_ml.Reference} (decision tree,
      forest, k-NN, svm snapshots byte for byte), the neural window
      kernels against a per-sample loop and against [Fmat.matmul_naive] of
      an explicit im2col, Dgcnn's three graph-convolution products on the
      window kernels against [Fmat.matmul_naive] and explicit transposes
      (zeros, [-0.0] and non-finite cells planted in the operands, bits
      compared), and Fmat layout laws;
    - {!metrics}: axioms of {!Yali_ml.Metrics} — bounds, confusion-matrix
      row sums, and division-by-zero guards (every statistic is a defined
      finite number, never [nan], on degenerate inputs);
    - {!exec}: {!Yali_exec.Pool} determinism at arbitrary [--jobs];
    - {!engines}: the {!Yali_vm.Vm} against the frozen reference
      interpreter — each generated program is pushed through every
      registered entry ({!Passdb.all}) and both must produce
      bit-identical outcomes (steps and cost included) with identical
      [Trap]/[Out_of_fuel] classification;
    - {!ir}: the {!Yali_ir.Dominance} tree against dominance computed by
      deletion ([a] dominates [b] iff deleting [a] cuts [b] off from the
      entry), on every function of each generated program through every
      registered entry, for every pair of reachable blocks; each idom must
      be the strict dominator that every other one dominates; and, on the
      same functions, each reachable block's dominance frontier against
      its definition over that deletion relation, and {!Yali_ir.Loops}'
      natural loops (headers, latches, bodies, sizes and nesting depths)
      against theirs;
    - {!serve}: the {!Yali_serve.Codec} binary format — each generated
      program, through every registered entry, must survive
      encode/decode with full structural identity and print bit-identically
      under {!Yali_ir.Pp}, and re-encode to the identical blob; plus
      {!Yali_serve.Wire} message round-trips;
    - {!corpus}: the {!Yali_corpus} streaming layer — a generated sharded
      store must replay {!Yali_corpus.Gen.materialize} record for record;
      each model's one trainer must produce byte-identical
      {!Yali_ml.Model.save} blobs from the on-disk feature file read as one
      block and from the in-memory matrix; and feature standardisation must
      be blocking-invariant bit for bit against the row-array fit
      (DESIGN.md §12). *)

val kernels : Prop.t list
val metrics : Prop.t list
val exec : Prop.t list
val engines : Prop.t list
val ir : Prop.t list
val serve : Prop.t list
val corpus : Prop.t list

(** The kernelized neural tier (DESIGN.md §15): [Nn.train_batch] and the
    cnn/dgcnn minibatch trainers against the frozen naive implementations
    in {!Yali_ml.Reference} (losses, input gradients and weights bit for
    bit, compared as [Int64.bits_of_float]; the dgcnn's graphs carry exact
    [0.0] and [-0.0] node features), and weight invariance under
    [--jobs]. *)
val nn : Prop.t list

(** {!Yali_adapt}: the [adapt/search-determinism] oracle — the same seed
    at any [--jobs] must yield an identical report (pass sequences and
    Pareto front, structural identity), and every front must be
    well-formed (cost-sorted, no dominated points, anchored by the
    identity evader at cost 1.0). *)
val adapt : Prop.t list

(** All families, in the order above. *)
val all : Prop.t list
