(** Sequence-space search with the classifier in the loop: the rs / hill /
    mcmc / ga strategies of {!Yali_obfuscation.Strategies}, ported to
    {!Seqspace} under the cost-priced {!Fitness}.

    Proposals are drawn sequentially on the calling domain.  Every
    evaluation gets a fresh copy of the search's one evaluation rng
    ({!eval_rng}), so an eval is a pure function of its sequence: a memo
    local to one {!run} call answers repeats, each round's unseen
    sequences are evaluated through {!Yali_exec.Pool.parallel_array_map},
    and their results enter the memo in batch order on the calling
    domain — so the search result is bit-identical at any [--jobs]. *)

type algo = Rs | Hill | Mcmc | Ga

val all : algo list
val algo_to_string : algo -> string
val algo_of_string : string -> algo option

type outcome = {
  o_base : Fitness.eval;  (** the empty sequence (the passive evader) *)
  o_best : Fitness.eval;
  o_evals : Fitness.eval list;  (** every evaluation, in proposal order *)
}

(** The evaluation rng of a search started from [rng] ([Rng.split] of it,
    which {!run} draws before any proposal); [rng] is not advanced. *)
val eval_rng : Yali_util.Rng.t -> Yali_util.Rng.t

(** Run the strategy until [budget] evaluations are spent (the empty
    sequence is always evaluated first and counts).  [batch] sets the
    parallel evaluation width — and the chain count for [Mcmc], the
    population for [Ga].  [eval_fn] runs once per distinct sequence, on a
    fresh copy of [eval_rng rng]; a repeated proposal reuses that eval
    but still counts against the budget and still appears in [o_evals]. *)
val run :
  algo ->
  budget:int ->
  batch:int ->
  max_len:int ->
  Yali_util.Rng.t ->
  (Yali_util.Rng.t -> Seqspace.seq -> Fitness.eval) ->
  outcome
