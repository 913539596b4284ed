(** Tests for the game framework: Definition 2.4, the four setups, the
    arena, obfuscator discovery, the malware experiment and the antivirus
    ensemble. *)

open Helpers
module G = Yali.Games
module Rng = Yali.Rng
module Ir = Yali.Ir

let test_play_threshold () =
  let classifier (_ : Ir.Irmod.t) = 1 in
  let m = lower (parse "int main() { return 0; }") in
  let challenges = [ (m, 1); (m, 1); (m, 0); (m, 1) ] in
  let v = G.Game.play ~classifier ~threshold:0.5 challenges in
  Alcotest.(check bool) "75% beats K=0.5" true v.classifier_wins;
  Alcotest.(check bool) "accuracy 0.75" true (approx v.accuracy 0.75);
  let v' = G.Game.play ~classifier ~threshold:0.9 challenges in
  Alcotest.(check bool) "75% loses K=0.9" false v'.classifier_wins

let test_setups_shape () =
  let e = Yali.Obfuscation.Evader.fla in
  Alcotest.(check string) "game0" "game0" G.Game.game0.game_name;
  Alcotest.(check string) "game1" "game1-fla" (G.Game.game1 e).game_name;
  Alcotest.(check string) "game2" "game2-fla" (G.Game.game2 e).game_name;
  Alcotest.(check string) "game3" "game3-fla" (G.Game.game3 e).game_name

let test_game0_transforms_nothing () =
  let p = dataset_program 3 in
  let rng = Rng.make 1 in
  let m = G.Game.game0.train_tx rng p in
  Alcotest.(check int) "plain lowering" (Ir.Irmod.instr_count (lower p))
    (Ir.Irmod.instr_count m)

let test_game3_normalizes_challenges () =
  let setup = G.Game.game3 Yali.Obfuscation.Evader.sub in
  let p = dataset_program 5 in
  let challenge = setup.normalize (setup.challenge_tx (Rng.make 2) p) in
  let unnormalized = setup.challenge_tx (Rng.make 2) p in
  Alcotest.(check bool) "normalization shrinks the obfuscated challenge" true
    (Ir.Irmod.instr_count challenge < Ir.Irmod.instr_count unnormalized)

(* -- arena ---------------------------------------------------------------- *)

let small_split seed =
  Yali.Dataset.Poj.make (Rng.make seed) ~n_classes:6 ~train_per_class:12
    ~test_per_class:4

let test_arena_game0_beats_random () =
  let split = small_split 1 in
  let r =
    G.Arena.run_flat (Rng.make 2) ~n_classes:6
      Yali.Embeddings.Embedding.histogram Yali.Ml.Model.rf G.Game.game0 split
  in
  Alcotest.(check bool)
    (Printf.sprintf "accuracy %.2f beats random (0.17)" r.accuracy)
    true (r.accuracy > 0.5);
  Alcotest.(check int) "test count" 24 r.n_test;
  Alcotest.(check bool) "model has a size" true (r.model_bytes > 0)

let test_arena_game2_recovers () =
  (* the paper's §4.3 finding: knowing the obfuscator restores accuracy.
     The finding is an expectation, not a per-seed certainty; this seed
     shows a solid margin under the index-based Poj sampling plan. *)
  let split = small_split 8 in
  let evader = Yali.Obfuscation.Evader.fla in
  let g1 =
    G.Arena.run_flat (Rng.make 4) ~n_classes:6
      Yali.Embeddings.Embedding.histogram Yali.Ml.Model.rf (G.Game.game1 evader)
      split
  in
  let g2 =
    G.Arena.run_flat (Rng.make 4) ~n_classes:6
      Yali.Embeddings.Embedding.histogram Yali.Ml.Model.rf (G.Game.game2 evader)
      split
  in
  Alcotest.(check bool)
    (Printf.sprintf "game2 (%.2f) ≥ game1 (%.2f)" g2.accuracy g1.accuracy)
    true
    (g2.accuracy >= g1.accuracy)

let test_arena_graph_model_runs () =
  let split =
    Yali.Dataset.Poj.make (Rng.make 9) ~n_classes:3 ~train_per_class:8
      ~test_per_class:3
  in
  let r =
    G.Arena.run_graph (Rng.make 5) ~n_classes:3
      Yali.Embeddings.Embedding.cfg_compact G.Game.game0 split
  in
  (* a pure function of its seeds: 9 challenges, so the accuracy is a
     ninth *)
  Alcotest.(check int) "challenge count" 9 r.n_test;
  Alcotest.(check bool)
    (Printf.sprintf "cfg_compact/dgcnn pinned at 2/9 (got %.6f)" r.accuracy)
    true
    (approx r.accuracy (2.0 /. 9.0))

let test_game1_grid_regression () =
  (* a pinned evader×model corner of the Game 1 arena grid (fig. 7's
     shape): every cell is a pure function of its seeds, so these exact
     accuracies are a regression net over the whole train/embed/play
     pipeline — including the adaptive evaders' shared baselines.  12 test
     challenges, so every accuracy is a twelfth. *)
  let split =
    Yali.Dataset.Poj.make (Rng.make 21) ~n_classes:4 ~train_per_class:8
      ~test_per_class:3
  in
  let evader name =
    match Yali.Obfuscation.Evader.find name with
    | Some e -> e
    | None -> Alcotest.failf "no evader %s" name
  in
  let model name = Option.get (Yali.Ml.Model.find_flat name) in
  List.iter
    (fun (ename, mname, twelfths) ->
      let r =
        G.Arena.run_flat (Rng.make 6) ~n_classes:4
          Yali.Embeddings.Embedding.histogram (model mname)
          (G.Game.game1 (evader ename))
          split
      in
      Alcotest.(check int) (ename ^ "/" ^ mname ^ " challenge count") 12
        r.n_test;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s pinned at %d/12 (got %.6f)" ename mname
           twelfths r.accuracy)
        true
        (approx r.accuracy (float_of_int twelfths /. 12.0)))
    [
      ("sub", "rf", 7); ("sub", "knn", 6); ("sub", "lr", 10);
      ("fla", "rf", 8); ("fla", "knn", 8); ("fla", "lr", 9);
      ("bcf", "rf", 7); ("bcf", "knn", 2); ("bcf", "lr", 3);
      ("sub", "svm", 8); ("fla", "svm", 6); ("bcf", "svm", 3);
      ("sub", "mlp", 5); ("fla", "mlp", 9); ("bcf", "mlp", 3);
      ("sub", "cnn", 6); ("fla", "cnn", 6); ("bcf", "cnn", 3);
    ]

(* -- obfuscator discovery (RQ7) ------------------------------------------- *)

let test_discover_ten_transformers () =
  Alcotest.(check int) "ten classes (§4.7)" 10 G.Discover.n_transformers

let test_discover_runs_and_beats_random () =
  let r = G.Discover.run ~per_transformer:10 (Rng.make 3) G.Discover.Dataset1 in
  Alcotest.(check bool)
    (Printf.sprintf "accuracy %.2f above random (0.1)" r.accuracy)
    true (r.accuracy > 0.1)

let test_discover_dataset3_confounded () =
  (* dataset3 ties transformer to problem class: accuracy shoots up *)
  let r1 = G.Discover.run ~per_transformer:12 (Rng.make 5) G.Discover.Dataset1 in
  let r3 = G.Discover.run ~per_transformer:12 (Rng.make 5) G.Discover.Dataset3 in
  Alcotest.(check bool)
    (Printf.sprintf "dataset3 (%.2f) > dataset1 (%.2f)" r3.accuracy r1.accuracy)
    true
    (r3.accuracy > r1.accuracy)

(* -- malware (RQ8) -------------------------------------------------------- *)

let test_malware_curve_shape () =
  let points = G.Malware.run ~seed_n:8 ~challenge_n:3 (Rng.make 7) Yali.Ml.Model.rf in
  Alcotest.(check int) "seven growth points" 7 (List.length points);
  (* pinned: each point adds one 16-sample suite copy, and every
     transformer's 6 challenges are classified correctly at every point *)
  List.iteri
    (fun k (p : G.Malware.curve_point) ->
      Alcotest.(check int) (Printf.sprintf "point %d n_train" (k + 1))
        (16 * (k + 1)) p.n_train;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "point %d hits per transformer" (k + 1))
        (List.map
           (fun t -> (t, 6))
           [ "O0"; "O1"; "O2"; "O3"; "fla"; "bcf"; "sub" ])
        (List.map
           (fun (c : G.Malware.challenge_result) -> (c.tname, c.hits))
           p.per_challenge))
    points;
  let first = List.hd points and last = List.nth points 6 in
  Alcotest.(check bool) "training set grows" true (last.n_train > first.n_train);
  Alcotest.(check bool)
    (Printf.sprintf "accuracy improves or stays (%.2f -> %.2f)"
       first.total_accuracy last.total_accuracy)
    true
    (last.total_accuracy >= first.total_accuracy -. 0.05);
  Alcotest.(check bool)
    (Printf.sprintf "full training set is accurate (%.2f)" last.total_accuracy)
    true (last.total_accuracy > 0.8)

(* -- antivirus (fig. 16) --------------------------------------------------- *)

let build_av seed =
  let rng = Rng.make seed in
  let malware =
    List.init 16 (fun _ -> lower (Yali.Dataset.Mirai.generate_malware (Rng.split rng)))
  in
  let benign =
    List.init 16 (fun _ -> lower (Yali.Dataset.Mirai.generate_benign (Rng.split rng)))
  in
  G.Antivirus.build rng ~malware ~benign

let test_av_detects_plain_malware () =
  let av = build_av 11 in
  let fresh = lower (Yali.Dataset.Mirai.generate_malware (Rng.make 999)) in
  let generic, _family = G.Antivirus.detections av fresh in
  Alcotest.(check bool) "several engines fire" true (generic >= 2)

let test_av_spares_benign () =
  let av = build_av 11 in
  let fresh = lower (Yali.Dataset.Mirai.generate_benign (Rng.make 999)) in
  let generic, _ = G.Antivirus.detections av fresh in
  Alcotest.(check bool) "at most one engine fires" true (generic <= 1)

let test_av_degrades_under_obfuscation () =
  let av = build_av 13 in
  let challenges plain =
    List.init 8 (fun k ->
        let m = lower (Yali.Dataset.Mirai.generate_malware (Rng.make (500 + k))) in
        let m = if plain then m else Yali.Obfuscation.Fla.run (Rng.make k) m in
        (m, 1))
    @ List.init 8 (fun k ->
          (lower (Yali.Dataset.Mirai.generate_benign (Rng.make (800 + k))), 0))
  in
  let plain_acc, _ = G.Antivirus.best_accuracy av (challenges true) in
  let obf_acc, _ = G.Antivirus.best_accuracy av (challenges false) in
  Alcotest.(check bool)
    (Printf.sprintf "plain (%.2f) ≥ obfuscated (%.2f)" plain_acc obf_acc)
    true
    (plain_acc >= obf_acc)

let test_av_family_stricter_than_generic () =
  let av = build_av 17 in
  let m = lower (Yali.Dataset.Mirai.generate_malware (Rng.make 1234)) in
  let generic, family = G.Antivirus.detections av m in
  Alcotest.(check bool) "family votes ≤ generic votes" true (family <= generic)

let suite =
  [
    Alcotest.test_case "play threshold (def 2.4)" `Quick test_play_threshold;
    Alcotest.test_case "setup names" `Quick test_setups_shape;
    Alcotest.test_case "game0 identity" `Quick test_game0_transforms_nothing;
    Alcotest.test_case "game3 normalizes" `Quick test_game3_normalizes_challenges;
    Alcotest.test_case "arena game0 beats random" `Slow test_arena_game0_beats_random;
    Alcotest.test_case "arena game2 recovers" `Slow test_arena_game2_recovers;
    Alcotest.test_case "arena graph model" `Slow test_arena_graph_model_runs;
    Alcotest.test_case "game1 grid regression" `Slow test_game1_grid_regression;
    Alcotest.test_case "discover: ten transformers" `Quick
      test_discover_ten_transformers;
    Alcotest.test_case "discover beats random" `Slow
      test_discover_runs_and_beats_random;
    Alcotest.test_case "discover dataset3 confounded" `Slow
      test_discover_dataset3_confounded;
    Alcotest.test_case "malware curve" `Slow test_malware_curve_shape;
    Alcotest.test_case "av detects malware" `Slow test_av_detects_plain_malware;
    Alcotest.test_case "av spares benign" `Slow test_av_spares_benign;
    Alcotest.test_case "av degrades under obfuscation" `Slow
      test_av_degrades_under_obfuscation;
    Alcotest.test_case "av family stricter" `Slow test_av_family_stricter_than_generic;
  ]
