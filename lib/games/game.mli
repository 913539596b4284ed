(** The game framework of the paper's Section 2, as code: Definition 2.3
    (algorithm classification), Definition 2.4 (adversarial game), and the
    four resource assignments of Figure 1. *)

(** A classifier names the problem class it believes a challenge solves
    (Definition 2.3). *)
type classifier = Yali_ir.Irmod.t -> int

(** An evader builds the challenge module from a source solution
    (Definition 2.4, step 1). *)
type evader = Yali_util.Rng.t -> Yali_minic.Ast.program -> Yali_ir.Irmod.t

(** The resources of a game: how the classifier builds IR from its share of
    the dataset, how the evader builds challenges, and what the classifier
    applies to an incoming challenge before classifying. *)
type setup = {
  game_name : string;
  train_tx : Yali_util.Rng.t -> Yali_minic.Ast.program -> Yali_ir.Irmod.t;
  challenge_tx : Yali_util.Rng.t -> Yali_minic.Ast.program -> Yali_ir.Irmod.t;
  normalize : Yali_ir.Irmod.t -> Yali_ir.Irmod.t;
}

(** Plain [-O0] lowering: the passive evader,
    {!Yali_obfuscation.Evader.none}'s [apply]. *)
val passive : evader

(** Game0 (symmetric): no transformation on either side. *)
val game0 : setup

(** Game1 (asymmetric): the evader transforms; the classifier is unaware. *)
val game1 : Yali_obfuscation.Evader.t -> setup

(** Game2 (symmetric): both players hold the same one-way transformation. *)
val game2 : Yali_obfuscation.Evader.t -> setup

(** Game3 (asymmetric): the classifier holds an optimizer used as a
    normalizer (default [-O3]) against an unknown evader. *)
val game3 :
  ?normalizer:(Yali_ir.Irmod.t -> Yali_ir.Irmod.t) ->
  Yali_obfuscation.Evader.t ->
  setup

(** Definition 2.4's outcome: accuracy against a threshold [K]. *)
type verdict = { accuracy : float; classifier_wins : bool }

(** Play a challenge set against a classifier; the classifier wins when its
    accuracy exceeds [threshold]. *)
val play :
  classifier:classifier ->
  threshold:float ->
  (Yali_ir.Irmod.t * int) list ->
  verdict
