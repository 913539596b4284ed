(** The game framework of Section 2, as code.

    Definition 2.1 (programming problem), Definition 2.3 (algorithm
    classification) and Definition 2.4 (adversarial game) map onto the types
    below; the four games of Figure 1 are the four ways of assigning
    transformation resources to the two players. *)

open Yali_minic
module Rng = Yali_util.Rng
module Irmod = Yali_ir.Irmod

(** A classifier takes a challenge module and names a problem class
    (Definition 2.3: the index of the problem it believes the challenge
    solves). *)
type classifier = Irmod.t -> int

(** An evader turns a solution into an equivalent program handed to the
    classifier (Definition 2.4, step 1).  Evaders receive source programs —
    they own the build pipeline of the challenge, as in the paper where the
    evader compiles with O-LLVM. *)
type evader = Rng.t -> Ast.program -> Irmod.t

(** The resources of the four games (paper, Figure 1):

    - [train_tx]: how the classifier builds IR from its 0.8 share of the
      dataset (Game2 obfuscates it; Game3 normalizes it);
    - [challenge_tx]: how the evader builds the challenge from its 0.2 share;
    - [normalize]: what the classifier applies to an incoming challenge
      before classifying (identity except in Game3). *)
type setup = {
  game_name : string;
  train_tx : Rng.t -> Ast.program -> Irmod.t;
  challenge_tx : Rng.t -> Ast.program -> Irmod.t;
  normalize : Irmod.t -> Irmod.t;
}

let passive : evader = Yali_obfuscation.Evader.none.apply

(** Game0 (symmetric): no transformation on either side. *)
let game0 : setup =
  {
    game_name = "game0";
    train_tx = passive;
    challenge_tx = passive;
    normalize = Fun.id;
  }

(** Game1 (asymmetric): the evader transforms; the classifier trains on
    plain programs and is unaware of the transformation. *)
let game1 (e : Yali_obfuscation.Evader.t) : setup =
  {
    game_name = "game1-" ^ e.ename;
    train_tx = passive;
    challenge_tx = e.apply;
    normalize = Fun.id;
  }

(** Game2 (symmetric): both players hold the same one-way transformation;
    the classifier trains on transformed samples. *)
let game2 (e : Yali_obfuscation.Evader.t) : setup =
  {
    game_name = "game2-" ^ e.ename;
    train_tx = e.apply;
    challenge_tx = e.apply;
    normalize = Fun.id;
  }

(** Game3 (asymmetric): the evader holds an unknown transformation; the
    classifier holds an optimizer used as a normalizer on both its training
    set and incoming challenges. *)
let game3 ?(normalizer = Yali_transforms.Pipeline.o3)
    (e : Yali_obfuscation.Evader.t) : setup =
  {
    game_name = "game3-" ^ e.ename;
    train_tx = (fun rng p -> normalizer (passive rng p));
    challenge_tx = e.apply;
    normalize = normalizer;
  }

(** Definition 2.4, verbatim: play a set of challenges against a classifier
    and decide the game against an accuracy threshold [K]. *)
type verdict = { accuracy : float; classifier_wins : bool }

let play ~(classifier : classifier) ~(threshold : float)
    (challenges : (Irmod.t * int) list) : verdict =
  let hits =
    List.fold_left
      (fun acc (challenge, truth) ->
        if classifier challenge = truth then acc + 1 else acc)
      0 challenges
  in
  let accuracy =
    float_of_int hits /. float_of_int (max 1 (List.length challenges))
  in
  { accuracy; classifier_wins = accuracy > threshold }
