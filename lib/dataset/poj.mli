(** Dataset assembly: balanced training/test splits over the 104 problem
    classes, in the shape the games consume. *)

type labelled = { src : Yali_minic.Ast.program; label : int }

type split = { train : labelled array; test : labelled array }

(** {1 Index-based sampling plans}

    A plan fixes the whole split — class subset, per-sample rng streams,
    output permutations — without generating any program: sample streams
    are derived by index ({!Yali_util.Rng.split_ix}), so any slot can be
    produced in isolation, in any order, on any domain.  The streaming
    corpus writer ({!Yali_corpus}) and the materialised {!make} path both
    go through a plan and therefore share one generation order bit for
    bit. *)

(** One labelled program generator (a problem class under its split-local
    label). *)
type generator = {
  g_label : int;
  g_gen : Yali_util.Rng.t -> Yali_minic.Ast.program;
}

type plan

(** Plan a balanced split over an explicit generator array (used by
    {!Genprog2} and any future corpus). *)
val plan_of :
  gens:generator array ->
  Yali_util.Rng.t ->
  train_per_class:int ->
  test_per_class:int ->
  plan

(** Plan a balanced split over the first [n_classes] POJ problems, or a
    random class subset when [shuffle_classes] is set.
    @raise Invalid_argument when [n_classes] is outside [1..104], naming
    the limit *)
val plan :
  ?shuffle_classes:bool ->
  Yali_util.Rng.t ->
  n_classes:int ->
  train_per_class:int ->
  test_per_class:int ->
  plan

val train_size : plan -> int
val test_size : plan -> int

(** [train_sample p j] generates slot [j] of the (already shuffled) training
    side — pure in [j]: equal slots give structurally equal programs. *)
val train_sample : plan -> int -> labelled

val test_sample : plan -> int -> labelled

(** Materialise both sides of a plan ([make] is [realize] of [plan]). *)
val realize : plan -> split

(** Build a balanced split over the first [n_classes] problems, or a random
    class subset when [shuffle_classes] is set (the paper's RQ1 draws 32 of
    104 at random).  Labels are re-indexed 0..n_classes-1.
    @raise Invalid_argument as {!plan} *)
val make :
  ?shuffle_classes:bool ->
  Yali_util.Rng.t ->
  n_classes:int ->
  train_per_class:int ->
  test_per_class:int ->
  split

val labels : labelled array -> int array
