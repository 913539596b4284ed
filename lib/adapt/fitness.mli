(** Cost-priced, classifier-in-the-loop fitness: a candidate sequence is
    scored by the evasion rate it achieves over a fixed challenge set,
    tie-broken by the classifier's margin gap, and charged [lambda] per
    unit of abstract-cost multiplier above 1 (DESIGN.md §14). *)

(** A held-out program with its label, seeded input vectors, baseline
    observations and baseline abstract cost. *)
type challenge = {
  ch_module : Yali_ir.Irmod.t;
  ch_label : int;
  ch_inputs : int64 list array;
  ch_base : (int64 list * float list * string) array;
  ch_base_cost : float;
}

(** Seeded input vectors: vector [i] is derived from [split_ix rng i], and
    [rng] is not advanced.  Translation validation ([Check.Tv]) runs every
    entry checked on one program on the same vectors. *)
val inputs_for :
  Yali_util.Rng.t -> vectors:int -> len:int -> int64 list array

(** Prepare a challenge: run the baseline on its seeded vectors, record
    observations and mean cost.  [Error] when the baseline itself traps or
    runs out of fuel. *)
val challenge :
  ?fuel:int ->
  ?vectors:int ->
  Yali_util.Rng.t ->
  label:int ->
  Yali_ir.Irmod.t ->
  (challenge, string) result

type eval = {
  e_seq : Seqspace.seq;
  e_evasion : float;  (** fraction of challenges misclassified *)
  e_cost : float;  (** mean cost multiplier vs the baselines *)
  e_gap : float;  (** mean normalised margin gap (best rival − true) *)
  e_fitness : float;
}

(** The sentinel for behaviour-breaking candidates: [e_fitness] is
    [neg_infinity], [e_cost] is [infinity] (never on a front). *)
val rejected : Seqspace.seq -> eval

(** Score one sequence: challenge [i] is transformed under
    [split_ix rng i], re-run against its baseline observations (any
    divergence rejects the whole candidate), cost-priced against the
    baseline cost, and pushed through [oracle] for per-class scores.
    Pure in (rng state, seq), and [rng] is not advanced: under one
    search's evaluation rng ({!Search.eval_rng}) an eval is a pure
    function of its sequence, safe to fan out over {!Yali_exec.Pool} and
    to replay from a front point's printed sequence. *)
val evaluate :
  oracle:(Yali_ir.Irmod.t -> float array) ->
  lambda:float ->
  fuel:int ->
  challenge array ->
  Yali_util.Rng.t ->
  Seqspace.seq ->
  eval
