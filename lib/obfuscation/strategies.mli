(** The four search strategies from Zhang et al. (2021) for combining the
    base source transformations into an evading sequence.  [mcmc], [drlsg]
    and [ga] score candidates by the Euclidean distance between opcode
    histograms of the lowered original and transformed programs — the
    paper's own evasion metric (Figure 10).  Each candidate is lowered
    once; one structurally equal to the program it was applied to is not
    lowered and gets that program's distance.  [rs] lowers its one
    candidate only to check that it lowers. *)

(** Random search: a random subset, each transformation at most once. *)
val rs :
  ?max_len:int ->
  Yali_util.Rng.t -> Yali_minic.Ast.program -> Yali_minic.Ast.program

(** Markov-chain Monte Carlo over sequences (Metropolis acceptance on the
    distance objective). *)
val mcmc :
  ?iterations:int ->
  ?max_len:int ->
  Yali_util.Rng.t -> Yali_minic.Ast.program -> Yali_minic.Ast.program

(** Greedy distance-maximising sequence generation — the role the Deep-RL
    sequence generator plays in Zhang et al. *)
val drlsg :
  ?max_len:int ->
  Yali_util.Rng.t -> Yali_minic.Ast.program -> Yali_minic.Ast.program

(** Genetic algorithm: tournament selection, one-point crossover, point
    mutation. *)
val ga :
  ?population:int ->
  ?generations:int ->
  ?max_len:int ->
  Yali_util.Rng.t -> Yali_minic.Ast.program -> Yali_minic.Ast.program

type strategy = {
  sname : string;
  run : Yali_util.Rng.t -> Yali_minic.Ast.program -> Yali_minic.Ast.program;
}

(** [rs], [mcmc], [drlsg], [ga]. *)
val all : strategy list

val find : string -> strategy option
