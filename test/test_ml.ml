(** Tests for the machine-learning substrate: matrix kernel, metrics, and
    all seven models (each must learn a simple separable task). *)

open Helpers
module Ml = Yali.Ml
module Rng = Yali.Rng
module M = Ml.Fmat

(* -- matrix --------------------------------------------------------------- *)

let test_matmul () =
  let a = M.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = M.of_rows [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = M.matmul_naive a b in
  Alcotest.(check bool) "2x2 product" true
    (M.get c 0 0 = 19. && M.get c 0 1 = 22. && M.get c 1 0 = 43. && M.get c 1 1 = 50.)

let test_matmul_dims () =
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Fmat.matmul_naive: dimension mismatch") (fun () ->
      ignore (M.matmul_naive (M.create 2 3) (M.create 2 3)))

let test_transpose_involution =
  qtest ~count:30 "transpose involutive" (fun seed ->
      let rng = Rng.make seed in
      let m = M.random rng 3 5 ~scale:1.0 in
      M.transpose (M.transpose m) = m)

let test_mv () =
  let m = M.of_rows [| [| 1.; 0.; 2. |]; [| 0.; 3.; 0. |] |] in
  Alcotest.(check bool) "mv" true (M.mv m [| 1.; 1.; 1. |] = [| 3.; 3. |]);
  (* five rows: one four-row block and a tail, each from its start value,
     reading the vector from an offset *)
  let m = M.init 5 2 (fun i j -> float_of_int ((10 * i) + j)) in
  let y = [| 1.; 2.; 3.; 4.; 5. |] in
  M.mv_into m [| 9.; 1.; 2.; 9. |] ~off:1 y;
  Alcotest.(check bool) "mv_into" true (y = [| 3.; 34.; 65.; 96.; 127. |]);
  Alcotest.check_raises "short vector"
    (Invalid_argument "Fmat.mv_into: dimension mismatch") (fun () ->
      M.mv_into m [| 1.; 2. |] ~off:1 y)

let test_matmul_assoc =
  qtest ~count:20 "matmul associative" (fun seed ->
      let rng = Rng.make seed in
      let a = M.random rng 2 3 ~scale:1.0 in
      let b = M.random rng 3 4 ~scale:1.0 in
      let c = M.random rng 4 2 ~scale:1.0 in
      let l = M.matmul_naive (M.matmul_naive a b) c
      and r = M.matmul_naive a (M.matmul_naive b c) in
      Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) l.data r.data)

let test_axpy () =
  let x = M.of_rows [| [| 1.; 2. |] |] in
  let y = M.of_rows [| [| 10.; 20. |] |] in
  M.axpy ~a:2.0 x y;
  Alcotest.(check bool) "y += 2x" true (y.data = [| 12.; 24. |])

(* -- metrics -------------------------------------------------------------- *)

let test_accuracy () =
  Alcotest.(check bool) "3/4" true
    (approx (Ml.Metrics.accuracy [| 0; 1; 2; 0 |] [| 0; 1; 2; 1 |]) 0.75)

let test_confusion_and_f1 () =
  let c = Ml.Metrics.confusion ~n_classes:2 [| 0; 0; 1; 1 |] [| 0; 1; 1; 1 |] in
  Alcotest.(check int) "tp class1" 2 c.counts.(1).(1);
  Alcotest.(check int) "fp class1" 1 c.counts.(0).(1);
  let p, r, f1 = Ml.Metrics.precision_recall_f1 c 1 in
  Alcotest.(check bool) "precision 2/3" true (approx p (2.0 /. 3.0));
  Alcotest.(check bool) "recall 1" true (approx r 1.0);
  Alcotest.(check bool) "f1 = 0.8" true (approx f1 0.8)

let test_f1_equals_accuracy_on_balanced () =
  (* the paper's Figure 12 point: on balanced data, accuracy ≈ macro F1 *)
  let truth = Array.init 100 (fun i -> i mod 4) in
  let pred = Array.map (fun t -> t) truth in
  let c = Ml.Metrics.confusion ~n_classes:4 truth pred in
  Alcotest.(check bool) "perfect: both 1.0" true
    (approx (Ml.Metrics.accuracy truth pred) (Ml.Metrics.macro_f1 c))

let test_boxplot () =
  let bp = Ml.Metrics.boxplot [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check bool) "median" true (approx bp.median 3.0);
  Alcotest.(check bool) "min/max" true (bp.bp_min = 1.0 && bp.bp_max = 5.0);
  Alcotest.(check bool) "mean" true (approx bp.bp_mean 3.0)

let test_welch_t () =
  let t = Ml.Metrics.welch_t [ 1.; 1.1; 0.9; 1.0 ] [ 2.; 2.1; 1.9; 2.0 ] in
  Alcotest.(check bool) "clearly significant" true (Float.abs t > 5.0)

(* -- metrics edge cases: degenerate inputs stay defined, never nan -------- *)

let test_metrics_empty_predictions () =
  Alcotest.(check bool) "accuracy of nothing is 0, not nan" true
    (approx (Ml.Metrics.accuracy [||] [||]) 0.0);
  let c = Ml.Metrics.confusion ~n_classes:3 [||] [||] in
  Alcotest.(check int) "empty confusion sums to 0" 0
    (Array.fold_left (fun a row -> Array.fold_left ( + ) a row) 0 c.counts);
  Alcotest.(check bool) "macro f1 of empty confusion defined" true
    (Float.is_finite (Ml.Metrics.macro_f1 c));
  let p, r, f1 = Ml.Metrics.precision_recall_f1 c 0 in
  Alcotest.(check bool) "p/r/f1 of absent class are 0" true
    (p = 0.0 && r = 0.0 && f1 = 0.0)

let test_metrics_single_class () =
  (* all mass on one class: the other rows/columns are empty, and their
     per-class scores must come back 0, not 0/0 *)
  let truth = [| 0; 0; 0; 0 |] and pred = [| 0; 0; 0; 0 |] in
  let c = Ml.Metrics.confusion ~n_classes:1 truth pred in
  Alcotest.(check int) "1x1 confusion" 4 c.counts.(0).(0);
  let p, r, f1 = Ml.Metrics.precision_recall_f1 c 0 in
  Alcotest.(check bool) "perfect single class" true
    (approx p 1.0 && approx r 1.0 && approx f1 1.0);
  Alcotest.(check bool) "macro f1 = 1" true (approx (Ml.Metrics.macro_f1 c) 1.0);
  (* same labels scored against a wider class universe *)
  let c3 = Ml.Metrics.confusion ~n_classes:3 truth pred in
  let p2, r2, f2 = Ml.Metrics.precision_recall_f1 c3 2 in
  Alcotest.(check bool) "unused class: zeros, not nan" true
    (p2 = 0.0 && r2 = 0.0 && f2 = 0.0);
  Alcotest.(check bool) "macro f1 finite with unused classes" true
    (Float.is_finite (Ml.Metrics.macro_f1 c3))

let test_metrics_out_of_range_labels_ignored () =
  let c = Ml.Metrics.confusion ~n_classes:2 [| 0; 5; -1; 1 |] [| 0; 0; 0; 7 |] in
  Alcotest.(check int) "only in-range pairs counted" 1
    (Array.fold_left (fun a row -> Array.fold_left ( + ) a row) 0 c.counts)

let test_sample_stats_degenerate () =
  Alcotest.(check bool) "mean [] = 0" true (approx (Ml.Metrics.mean []) 0.0);
  Alcotest.(check bool) "stddev [] = 0" true (approx (Ml.Metrics.stddev []) 0.0);
  Alcotest.(check bool) "stddev [x] = 0" true
    (approx (Ml.Metrics.stddev [ 3.0 ]) 0.0);
  let bp = Ml.Metrics.boxplot [] in
  Alcotest.(check bool) "boxplot of [] all zero" true
    (bp.bp_min = 0.0 && bp.median = 0.0 && bp.bp_max = 0.0 && bp.bp_mean = 0.0);
  let bp1 = Ml.Metrics.boxplot [ 7.0 ] in
  Alcotest.(check bool) "boxplot of singleton collapses to it" true
    (approx bp1.bp_min 7.0 && approx bp1.q1 7.0 && approx bp1.median 7.0
    && approx bp1.q3 7.0 && approx bp1.bp_max 7.0);
  (* welch_t on too-small or zero-variance samples: defined, zero *)
  Alcotest.(check bool) "welch_t on singletons is 0" true
    (approx (Ml.Metrics.welch_t [ 1.0 ] [ 2.0 ]) 0.0);
  Alcotest.(check bool) "welch_t on constant samples is 0" true
    (approx (Ml.Metrics.welch_t [ 1.0; 1.0 ] [ 1.0; 1.0 ]) 0.0)

(* -- features ------------------------------------------------------------- *)

let test_scaler () =
  let xs = [| [| 0.; 10. |]; [| 2.; 20. |]; [| 4.; 30. |] |] in
  let s, scaled = Ml.Features.fit_transform xs in
  ignore s;
  (* each column: zero mean *)
  let col j = Array.fold_left (fun a r -> a +. r.(j)) 0.0 scaled /. 3.0 in
  Alcotest.(check bool) "zero mean" true (approx ~eps:1e-9 (col 0) 0.0 && approx ~eps:1e-9 (col 1) 0.0)

let test_scaler_constant_feature () =
  (* constant features must not produce NaNs *)
  let xs = [| [| 5.; 1. |]; [| 5.; 2. |] |] in
  let _, scaled = Ml.Features.fit_transform xs in
  Alcotest.(check bool) "no NaNs" true
    (Array.for_all (fun r -> Array.for_all (fun x -> Float.is_finite x) r) scaled)

(* -- toy learning problems ------------------------------------------------- *)

(* well-separated gaussian blobs, one axis per class (so that the task is
   fair to one-vs-rest linear models too) *)
let blobs (rng : Rng.t) ~(n_classes : int) ~(n_per_class : int) ~(d : int) =
  assert (d >= n_classes);
  let xs = ref [] and ys = ref [] in
  for cls = 0 to n_classes - 1 do
    for _ = 1 to n_per_class do
      let x = Array.init d (fun k ->
          Rng.gaussian rng +. if k = cls then 6.0 else 0.0)
      in
      xs := x :: !xs;
      ys := cls :: !ys
    done
  done;
  (Array.of_list !xs, Array.of_list !ys)

let model_learns (model : Ml.Model.flat) () =
  let rng = Rng.make 99 in
  let xs, ys = blobs rng ~n_classes:3 ~n_per_class:40 ~d:8 in
  let test_xs, test_ys = blobs (Rng.make 123) ~n_classes:3 ~n_per_class:15 ~d:8 in
  let trained =
    model.ftrain (Rng.make 7) ~n_classes:3 (Ml.Fmat.of_rows xs) ys
  in
  let pred = Array.map trained.predict test_xs in
  let acc = Ml.Metrics.accuracy test_ys pred in
  if acc < 0.9 then
    Alcotest.failf "%s only reached %.2f on separable blobs" model.fname acc;
  (* the batched path must agree with per-vector prediction *)
  let bpred = trained.predict_batch (Ml.Fmat.of_rows test_xs) in
  if bpred <> pred then
    Alcotest.failf "%s: predict_batch disagrees with predict" model.fname

let model_tests =
  List.map
    (fun (m : Ml.Model.flat) ->
      Alcotest.test_case (m.fname ^ " learns blobs") `Slow (model_learns m))
    Ml.Model.all_flat

let test_models_deterministic () =
  let xs, ys = blobs (Rng.make 5) ~n_classes:2 ~n_per_class:20 ~d:4 in
  let xs = Ml.Fmat.of_rows xs in
  let train () =
    let t = Ml.Model.rf.ftrain (Rng.make 11) ~n_classes:2 xs ys in
    Array.init 10 (fun k -> t.predict (Array.make 4 (float_of_int k)))
  in
  Alcotest.(check bool) "same seed, same predictions" true (train () = train ())

let test_knn_exact_on_training_points () =
  let xs = Ml.Fmat.of_rows [| [| 0.; 0. |]; [| 10.; 10. |] |] in
  let ys = [| 0; 1 |] in
  let t =
    Ml.Model.restore (Ml.Model.S_knn (Ml.Knn.train ~k:1 ~n_classes:2 xs ys))
  in
  Alcotest.(check int) "near 0" 0 (t.predict [| 0.5; 0.1 |]);
  Alcotest.(check int) "near 1" 1 (t.predict [| 9.5; 9.9 |])

let test_decision_tree_pure_leaf () =
  let xs = Ml.Fmat.of_rows [| [| 0. |]; [| 1. |]; [| 10. |]; [| 11. |] |] in
  let ys = [| 0; 0; 1; 1 |] in
  let t = Ml.Decision_tree.train (Rng.make 1) ~n_classes:2 xs ys in
  Alcotest.(check int) "left" 0 (Ml.Decision_tree.predict t [| -1.0 |]);
  Alcotest.(check int) "right" 1 (Ml.Decision_tree.predict t [| 20.0 |]);
  Alcotest.(check bool) "small tree" true (Ml.Decision_tree.node_count t.root <= 3)

(* [train] reads bucket codes unchecked, so it must refuse rows that do
   not exist: unchecked, labels for four rows of a two-row matrix grow a
   tree from labels alone, and a sample of rows 2 and 3 reads past the
   codes. *)
let test_decision_tree_rejects_missing_rows () =
  let x = Ml.Fmat.of_rows [| [| 0. |]; [| 1. |] |] in
  let train ?sample ys () =
    ignore (Ml.Decision_tree.train ?sample (Rng.make 1) ~n_classes:2 x ys)
  in
  let bad_sample = Invalid_argument "Decision_tree.train: sample index out of range" in
  Alcotest.check_raises "four labels for two rows"
    (Invalid_argument "Decision_tree.train: labels and rows differ in number")
    (train ~sample:[| 3; 3 |] [| 0; 1; 1; 0 |]);
  Alcotest.check_raises "rows 2 and 3 of two" bad_sample
    (train ~sample:[| 2; 3 |] [| 0; 1 |]);
  Alcotest.check_raises "row -1" bad_sample (train ~sample:[| -1; 0 |] [| 0; 1 |]);
  let bad_label = Invalid_argument "Decision_tree.train: label outside [0, n_classes)" in
  Alcotest.check_raises "label 2 of 2 classes" bad_label (train [| 0; 2 |]);
  Alcotest.check_raises "label -1" bad_label (train [| -1; 1 |])

(* One scratch grows tree after tree, with and without a feature sample,
   each byte for byte the tree a fresh scratch grows; a scratch made for
   another class count, width or a shorter sample is refused. *)
let test_decision_tree_scratch_reuse () =
  let rng = Rng.make 3 in
  let n = 80 and d = 12 and n_classes = 6 in
  let xs, ys = Yali.Check.Oracles.histogram_rows rng ~n ~d ~n_classes in
  let x = Ml.Fmat.of_rows xs in
  let bytes t =
    let b = Buffer.create 256 in
    Ml.Decision_tree.to_bin b t;
    Buffer.contents b
  in
  let scratch = Ml.Decision_tree.make_scratch ~n_classes ~d ~rows:n in
  for seed = 1 to 24 do
    let params =
      { Ml.Decision_tree.default_params with
        features_per_split = (if seed mod 3 = 0 then None else Some 4) }
    in
    let sample = Array.init (n - (seed mod 5)) (fun _ -> Rng.int rng n) in
    let grow ?scratch () =
      bytes (Ml.Decision_tree.train ~params ~sample ?scratch (Rng.make seed) ~n_classes x ys)
    in
    Alcotest.(check string) (Printf.sprintf "tree %d" seed) (grow ()) (grow ~scratch ())
  done;
  let misfit = Invalid_argument "Decision_tree.train: scratch does not fit" in
  List.iter
    (fun (what, scratch) ->
      Alcotest.check_raises what misfit (fun () ->
          ignore (Ml.Decision_tree.train ~scratch (Rng.make 1) ~n_classes x ys)))
    [
      ("classes", Ml.Decision_tree.make_scratch ~n_classes:(n_classes + 1) ~d ~rows:n);
      ("width", Ml.Decision_tree.make_scratch ~n_classes ~d:(d - 1) ~rows:n);
      ("rows", Ml.Decision_tree.make_scratch ~n_classes ~d ~rows:(n - 1));
    ]

(* -- snapshot margins ------------------------------------------------------- *)

(* predict v = argmax (margins v) = predict_batch [v], whatever v holds *)
let check_scorer_agrees name s v =
  let t = Ml.Model.restore s in
  let p = t.Ml.Model.predict v in
  Alcotest.(check int)
    (name ^ ": argmax margins = predict")
    p
    (Ml.Model.argmax (Ml.Model.margins s v));
  Alcotest.(check int)
    (name ^ ": predict_batch = predict")
    p
    (t.predict_batch (Ml.Fmat.of_rows [| v |])).(0)

let test_margins_agree_with_predict () =
  (* argmax over Model.margins must reproduce predict and predict_batch bit
     for bit, on training rows, novel points and vectors holding NaN and
     infinities, for every snapshot kind *)
  let xs, ys = blobs (Rng.make 31) ~n_classes:3 ~n_per_class:25 ~d:6 in
  let fx = Ml.Fblock.Mem (Ml.Fmat.of_rows xs) in
  let novel, _ = blobs (Rng.make 207) ~n_classes:3 ~n_per_class:10 ~d:6 in
  let with_at v j x =
    let v = Array.copy v in
    v.(j) <- x;
    v
  in
  let non_finite =
    [|
      Array.make 6 Float.nan;
      Array.make 6 Float.infinity;
      Array.make 6 Float.neg_infinity;
      with_at novel.(0) 2 Float.nan;
      with_at novel.(1) 0 Float.infinity;
      with_at novel.(2) 5 Float.neg_infinity;
      with_at (with_at novel.(3) 1 Float.infinity) 4 Float.neg_infinity;
    |]
  in
  List.iter
    (fun kind ->
      let s =
        Option.get (Ml.Model.train_snapshot kind (Rng.make 13) ~n_classes:3 fx ys)
      in
      Array.iter
        (fun v ->
          let m = Ml.Model.margins s v in
          Alcotest.(check int) (kind ^ ": one score per class") 3
            (Array.length m);
          Alcotest.(check bool) (kind ^ ": scores finite") true
            (Array.for_all Float.is_finite m);
          check_scorer_agrees kind s v)
        (Array.append xs novel);
      Array.iter (check_scorer_agrees (kind ^ " (non-finite)") s) non_finite)
    Ml.Model.snapshot_kinds;
  (* a 2-class svm with identity scaling whose scores on [inf; inf] are
     [inf - inf; inf + inf] = [nan; inf] *)
  let s =
    Ml.Model.load
      (model_blob 1 (* svm *) (fun b ->
           Ml.Features.scaler_to_bin b (Ml.Features.fit [| [| 0.; 0. |] |]);
           Ml.Fmat.to_bin b
             (Ml.Fmat.of_rows [| [| 1.; -1.; 0. |]; [| 1.; 1.; 0. |] |]);
           Yali.Util.Bin.w_u32 b 2))
  in
  let v = [| Float.infinity; Float.infinity |] in
  let m = Ml.Model.margins s v in
  Alcotest.(check bool) "svm blob: margins [nan; inf]" true
    (Float.is_nan m.(0) && m.(1) = Float.infinity);
  check_scorer_agrees "svm blob" s v

let test_margins_survive_save_load () =
  let xs, ys = blobs (Rng.make 41) ~n_classes:2 ~n_per_class:20 ~d:4 in
  let fx = Ml.Fblock.Mem (Ml.Fmat.of_rows xs) in
  List.iter
    (fun kind ->
      let s =
        Option.get (Ml.Model.train_snapshot kind (Rng.make 19) ~n_classes:2 fx ys)
      in
      let s' = Ml.Model.load (Ml.Model.save s) in
      Array.iter
        (fun v ->
          Alcotest.(check bool)
            (kind ^ ": margins bit-identical after save/load")
            true
            (Ml.Model.margins s v = Ml.Model.margins s' v))
        xs)
    Ml.Model.snapshot_kinds

let test_argmax_first_maximum () =
  Alcotest.(check int) "plain max" 2 (Ml.Model.argmax [| 0.; 1.; 5.; 3. |]);
  Alcotest.(check int) "tie breaks to the lowest index" 1
    (Ml.Model.argmax [| 0.; 4.; 4.; 4. |]);
  Alcotest.(check int) "singleton" 0 (Ml.Model.argmax [| -7.0 |])

let test_model_registry () =
  Alcotest.(check int) "six flat models (paper §3.2)" 6
    (List.length Ml.Model.all_flat);
  List.iter
    (fun n -> Alcotest.(check bool) n true (Ml.Model.find_flat n <> None))
    [ "rf"; "svm"; "knn"; "lr"; "mlp"; "cnn" ]

(* -- dgcnn on graphs ------------------------------------------------------- *)

let test_dgcnn_learns_graph_sizes () =
  (* two classes of graphs: short chains vs long chains with distinct
     feature patterns — dgcnn must separate them *)
  let mk_graph ~(n : int) ~(flavor : int) : Yali.Embeddings.Graph.t =
    let feats =
      Array.init n (fun k ->
          Array.init 4 (fun j -> if (k + j + flavor) mod 2 = 0 then 1.0 else 0.0))
    in
    let edges = List.init (n - 1) (fun k -> (k, k + 1, Yali.Embeddings.Graph.Control)) in
    { node_feats = feats; edges; feat_dim = 4 }
  in
  let rng = Rng.make 3 in
  let graphs = ref [] and ys = ref [] in
  for _ = 1 to 30 do
    graphs := mk_graph ~n:(4 + Rng.int rng 3) ~flavor:0 :: !graphs;
    ys := 0 :: !ys;
    graphs := mk_graph ~n:(9 + Rng.int rng 3) ~flavor:1 :: !graphs;
    ys := 1 :: !ys
  done;
  let trained =
    Ml.Model.dgcnn.gtrain (Rng.make 17) ~n_classes:2 ~feat_dim:4
      (Array.of_list !graphs) (Array.of_list !ys)
  in
  let correct = ref 0 in
  for k = 0 to 9 do
    if trained.gpredict (mk_graph ~n:(4 + (k mod 3)) ~flavor:0) = 0 then incr correct;
    if trained.gpredict (mk_graph ~n:(9 + (k mod 3)) ~flavor:1) = 1 then incr correct
  done;
  if !correct < 16 then
    Alcotest.failf "dgcnn only got %d/20 on separable graphs" !correct

let test_dgcnn_handles_empty_graph () =
  let g = Yali.Embeddings.Graph.empty ~feat_dim:4 in
  let trained =
    Ml.Model.dgcnn.gtrain (Rng.make 1) ~n_classes:2 ~feat_dim:4
      [| g; { g with node_feats = [| [| 1.; 1.; 1.; 1. |] |] } |] [| 0; 1 |]
  in
  (* prediction on an empty graph must not crash *)
  let c = trained.gpredict g in
  Alcotest.(check bool) "class in range" true (c = 0 || c = 1)

let suite =
  [
    Alcotest.test_case "matmul" `Quick test_matmul;
    Alcotest.test_case "matmul dims" `Quick test_matmul_dims;
    test_transpose_involution;
    Alcotest.test_case "mv and mv_into" `Quick test_mv;
    test_matmul_assoc;
    Alcotest.test_case "axpy" `Quick test_axpy;
    Alcotest.test_case "accuracy" `Quick test_accuracy;
    Alcotest.test_case "confusion and f1" `Quick test_confusion_and_f1;
    Alcotest.test_case "f1 = accuracy on balanced" `Quick
      test_f1_equals_accuracy_on_balanced;
    Alcotest.test_case "boxplot" `Quick test_boxplot;
    Alcotest.test_case "welch t" `Quick test_welch_t;
    Alcotest.test_case "metrics: empty predictions" `Quick
      test_metrics_empty_predictions;
    Alcotest.test_case "metrics: single class" `Quick test_metrics_single_class;
    Alcotest.test_case "metrics: out-of-range labels" `Quick
      test_metrics_out_of_range_labels_ignored;
    Alcotest.test_case "metrics: degenerate samples defined" `Quick
      test_sample_stats_degenerate;
    Alcotest.test_case "scaler" `Quick test_scaler;
    Alcotest.test_case "scaler constant feature" `Quick test_scaler_constant_feature;
  ]
  @ model_tests
  @ [
      Alcotest.test_case "models deterministic" `Quick test_models_deterministic;
      Alcotest.test_case "knn on training points" `Quick
        test_knn_exact_on_training_points;
      Alcotest.test_case "decision tree pure leaves" `Quick
        test_decision_tree_pure_leaf;
      Alcotest.test_case "decision tree rejects missing rows" `Quick
        test_decision_tree_rejects_missing_rows;
      Alcotest.test_case "decision tree scratch reuse" `Quick
        test_decision_tree_scratch_reuse;
      Alcotest.test_case "margins agree with predict" `Quick
        test_margins_agree_with_predict;
      Alcotest.test_case "margins survive save/load" `Quick
        test_margins_survive_save_load;
      Alcotest.test_case "argmax first-maximum convention" `Quick
        test_argmax_first_maximum;
      Alcotest.test_case "model registry" `Quick test_model_registry;
      Alcotest.test_case "dgcnn learns" `Slow test_dgcnn_learns_graph_sizes;
      Alcotest.test_case "dgcnn empty graph" `Quick test_dgcnn_handles_empty_graph;
    ]
