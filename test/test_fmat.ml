(** Tests for the flat numeric-kernel layer (DESIGN.md §8): Fmat layout
    invariants, the dense forward kernel against a per-sample loop, the
    blocked distance identity, and differential properties pinning the
    rewritten tree/forest/knn/logreg/svm/mlp trainers to the frozen
    pre-rewrite reference implementations ({!Yali.Ml.Reference}): trees
    node for node, weights bit for bit. *)

open Helpers
module Ml = Yali.Ml
module Rng = Yali.Rng
module F = Ml.Fmat

(* -- layout ---------------------------------------------------------------- *)

let test_of_rows_roundtrip () =
  let rows = [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let m = F.of_rows rows in
  Alcotest.(check bool) "shape" true (m.F.n = 2 && m.F.d = 3);
  Alcotest.(check bool) "roundtrip" true (F.to_rows m = rows);
  Alcotest.(check bool) "get" true (F.get m 1 2 = 6.0)

let test_of_rows_ragged () =
  Alcotest.check_raises "ragged rows"
    (Invalid_argument "Fmat.of_rows: ragged rows") (fun () ->
      ignore (F.of_rows [| [| 1. |]; [| 1.; 2. |] |]))

let test_row_into () =
  let m = F.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let buf = Array.make 2 0.0 in
  F.row_into m 1 buf;
  Alcotest.(check bool) "row 1" true (buf = [| 3.; 4. |]);
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Fmat.row_into: width mismatch") (fun () ->
      F.row_into m 0 (Array.make 3 0.0))

(* An svm snapshot whose weights claim 2761311370 x 3340214413 = 2^63 + 2
   cells, which wraps to the 2 it carries: the shape must be checked by
   division, or the daemon's first predict would transpose a 2-cell
   matrix as if it were that large. *)
let test_snapshot_rejects_overflowing_shape () =
  let module Bin = Yali.Util.Bin in
  let n = 2_761_311_370 and d = 3_340_214_413 in
  let blob =
    model_blob 1 (* svm *) (fun b ->
        Ml.Features.scaler_to_bin b (Ml.Features.fit [| [| 0. |] |]);
        Bin.w_u32 b n;
        Bin.w_u32 b d;
        Bin.w_floats b [| 0.; 0. |];
        Bin.w_u32 b n (* n_classes, equal to the row count *))
  in
  match Ml.Model.load blob with
  | exception Bin.Corrupt _ -> ()
  | _ -> Alcotest.fail "snapshot with an overflowing weight shape loaded"

let test_parallel_of_fn_matches_sequential =
  qtest ~count:20 "parallel_of_fn = of_fn" (fun seed ->
      let rng = Rng.make seed in
      let n = 1 + Rng.int rng 40 and d = 1 + Rng.int rng 8 in
      let row i = Array.init d (fun j -> float_of_int ((i * d) + j + seed)) in
      F.parallel_of_fn ~n row = F.of_fn ~n row)

let test_dot_and_norm () =
  let m = F.of_rows [| [| 1.; 2.; 3. |] |] in
  Alcotest.(check bool) "dot" true (F.dot_row_vec m 0 [| 1.; 1.; 1. |] = 6.0);
  Alcotest.(check bool) "norm" true (F.sq_norm_row m 0 = 14.0)

(* -- dense forward kernel -------------------------------------------------- *)

(* The forward kernel's law: each output cell of a dense layer starts from
   its bias and adds its nonzero inputs in ascending order, as a
   per-sample loop does.  Inputs hold exact 0.0 and -0.0 cells (skipped)
   and non-finite ones (kept), biases are sometimes -0.0 (which an
   unskipped zero term would turn into 0.0), and bits are compared. *)
let test_win_forward_matches_loop =
  qtest ~count:20 "dense forward = per-sample loop (bitwise)" (fun seed ->
      let rng = Rng.make seed in
      let n = 1 + Rng.int rng 20
      and k = 1 + Rng.int rng 20
      and p = 1 + Rng.int rng 20 in
      let x =
        F.init n k (fun _ _ ->
            match Rng.int rng 12 with
            | 0 | 1 -> 0.0
            | 2 | 3 -> -0.0
            | 4 -> [| Float.nan; Float.infinity; Float.neg_infinity |].(Rng.int rng 3)
            | _ -> Rng.gaussian rng)
      in
      let g =
        Option.get (Ml.Nn.win_of (Ml.Nn.dense rng ~d_in:k ~d_out:p) ~in_w:k)
      in
      Array.iteri
        (fun j _ -> g.b.(j) <- (if j mod 3 = 0 then -0.0 else float_of_int j /. 7.0))
        g.b;
      let expected =
        F.init n p (fun i j ->
            let acc = ref g.b.(j) in
            for l = 0 to k - 1 do
              let v = F.get x i l in
              if v <> 0.0 then acc := !acc +. (v *. F.get g.w j l)
            done;
            !acc)
      in
      same_bits (Ml.Nn.win_forward g x).data expected.data)

(* -- distance identity ----------------------------------------------------- *)

let test_blocked_distance_close =
  qtest ~count:25 "norms + dot distance ~ subtract-square" (fun seed ->
      let rng = Rng.make seed in
      let n = 1 + Rng.int rng 60 and d = 1 + Rng.int rng 12 in
      let m =
        F.init n d (fun _ _ -> Rng.gaussian rng *. 3.0)
      in
      let q = Array.init d (fun _ -> Rng.gaussian rng *. 3.0) in
      let qn = Array.fold_left (fun a v -> a +. (v *. v)) 0.0 q in
      let ok = ref true in
      for i = 0 to n - 1 do
        let naive = ref 0.0 in
        for j = 0 to d - 1 do
          let dv = q.(j) -. F.get m i j in
          naive := !naive +. (dv *. dv)
        done;
        let blocked = qn -. (2.0 *. F.dot_row_vec m i q) +. F.sq_norm_row m i in
        if Float.abs (!naive -. blocked) > 1e-9 *. (1.0 +. !naive) then
          ok := false
      done;
      !ok)

(* -- scaler ---------------------------------------------------------------- *)

let test_fit_stream_bit_identical =
  qtest ~count:20 "fit_stream = fit (bitwise transform)" (fun seed ->
      let rng = Rng.make seed in
      let n = 1 + Rng.int rng 30 and d = 1 + Rng.int rng 8 in
      let rows =
        Array.init n (fun _ -> Array.init d (fun _ -> Rng.gaussian rng))
      in
      let s_rows = Ml.Features.fit rows in
      let s_fmat = Ml.Features.fit_stream (Ml.Fblock.Mem (F.of_rows rows)) in
      let probe = Array.init d (fun j -> float_of_int j -. 1.5) in
      Ml.Features.transform s_rows probe = Ml.Features.transform s_fmat probe)

(* -- differential model properties ----------------------------------------- *)

(* quantized count features (<= 256 distinct values per feature: the tree's
   histogram path) *)
let gen_counts (rng : Rng.t) ~(n : int) ~(d : int) ~(n_classes : int) =
  let xs = Array.init n (fun _ -> Array.make d 0.0) in
  let ys = Array.make n 0 in
  for i = 0 to n - 1 do
    let cls = Rng.int rng n_classes in
    ys.(i) <- cls;
    for j = 0 to d - 1 do
      let bump = if j mod n_classes = cls then 6 else 0 in
      xs.(i).(j) <- float_of_int (Rng.int rng 8 + bump)
    done
  done;
  (xs, ys)

(* continuous features (all-distinct values: for n > 256 this exercises the
   tree's exact wide-feature fallback) *)
let gen_gauss (rng : Rng.t) ~(n : int) ~(d : int) ~(n_classes : int) =
  let xs = Array.init n (fun _ -> Array.make d 0.0) in
  let ys = Array.make n 0 in
  for i = 0 to n - 1 do
    let cls = Rng.int rng n_classes in
    ys.(i) <- cls;
    for j = 0 to d - 1 do
      xs.(i).(j) <-
        Rng.gaussian rng +. (if j mod n_classes = cls then 4.0 else 0.0)
    done
  done;
  (xs, ys)

(* Up to 31 classes: deep nodes then hold only some of them, and the
   trainers' per-class loops run both four-row blocks and a tail. *)
let draw_classes (rng : Rng.t) = 2 + Rng.int rng 30

let test_tree_matches_reference_binned =
  qtest ~count:12 "tree = reference tree (histogram path)" (fun seed ->
      let rng = Rng.make (seed + 1) in
      let n_classes = draw_classes rng in
      let n = 20 + Rng.int rng 100 and d = 1 + Rng.int rng 10 in
      let xs, ys = gen_counts rng ~n ~d ~n_classes in
      let txs, _ = gen_counts rng ~n:40 ~d ~n_classes in
      let t_new =
        Ml.Decision_tree.train (Rng.make seed) ~n_classes (F.of_rows xs) ys
      in
      let t_ref =
        Ml.Reference.Decision_tree.train (Rng.make seed) ~n_classes xs ys
      in
      Ml.Reference.Decision_tree.same_tree t_new.root t_ref.root
      && Array.for_all
           (fun x ->
             Ml.Decision_tree.predict t_new x
             = Ml.Reference.Decision_tree.predict t_ref x)
           (Array.append xs txs))

let test_tree_matches_reference_wide =
  qtest ~count:4 "tree = reference tree (wide/exact path)" (fun seed ->
      let rng = Rng.make (seed + 2) in
      let n_classes = draw_classes rng in
      (* > 256 distinct values per continuous feature forces the per-node
         exact sweep *)
      let n = 280 and d = 4 in
      let xs, ys = gen_gauss rng ~n ~d ~n_classes in
      let txs, _ = gen_gauss rng ~n:50 ~d ~n_classes in
      let t_new =
        Ml.Decision_tree.train (Rng.make seed) ~n_classes (F.of_rows xs) ys
      in
      let t_ref =
        Ml.Reference.Decision_tree.train (Rng.make seed) ~n_classes xs ys
      in
      Ml.Reference.Decision_tree.same_tree t_new.root t_ref.root
      && Array.for_all
           (fun x ->
             Ml.Decision_tree.predict t_new x
             = Ml.Reference.Decision_tree.predict t_ref x)
           (Array.append xs txs))

let test_forest_matches_reference =
  qtest ~count:6 "forest = reference forest" (fun seed ->
      let rng = Rng.make (seed + 3) in
      let n_classes = draw_classes rng in
      let n = 30 + Rng.int rng 80 and d = 4 + Rng.int rng 8 in
      let xs, ys = gen_counts rng ~n ~d ~n_classes in
      let txs, _ = gen_counts rng ~n:40 ~d ~n_classes in
      let params = { Ml.Random_forest.n_trees = 8; max_depth = 10 } in
      let ref_params =
        { Ml.Reference.Random_forest.n_trees = 8; max_depth = 10 }
      in
      let f_new =
        Ml.Random_forest.train ~params (Rng.make seed) ~n_classes
          (Ml.Fblock.Mem (F.of_rows xs)) ys
      in
      let f_ref =
        Ml.Reference.Random_forest.train ~params:ref_params (Rng.make seed)
          ~n_classes xs ys
      in
      let t = Ml.Model.restore (Ml.Model.S_rf f_new) in
      let batch = t.predict_batch (F.of_rows txs) in
      Array.for_all2
        (fun (a : Ml.Decision_tree.t) (b : Ml.Reference.Decision_tree.t) ->
          Ml.Reference.Decision_tree.same_tree a.root b.root)
        (Ml.Random_forest.trees f_new) f_ref.trees
      && Array.for_all
           (fun x -> t.predict x = Ml.Reference.Random_forest.predict f_ref x)
           (Array.append xs txs)
      && batch = Array.map (Ml.Reference.Random_forest.predict f_ref) txs)

let test_knn_matches_reference =
  qtest ~count:12 "knn = reference knn" (fun seed ->
      let rng = Rng.make (seed + 4) in
      let n_classes = 2 + Rng.int rng 3 in
      let n = 10 + Rng.int rng 120 and d = 1 + Rng.int rng 10 in
      (* continuous data: no exact distance ties, so the (documented)
         tie-break change cannot show through *)
      let xs, ys = gen_gauss rng ~n ~d ~n_classes in
      let txs, _ = gen_gauss rng ~n:30 ~d ~n_classes in
      let m_new = Ml.Knn.train ~n_classes (F.of_rows xs) ys in
      let m_ref = Ml.Reference.Knn.train ~n_classes xs ys in
      let t = Ml.Model.restore (Ml.Model.S_knn m_new) in
      Array.for_all
        (fun x -> t.predict x = Ml.Reference.Knn.predict m_ref x)
        txs)

let test_knn_index_tie_break () =
  (* two training points exactly equidistant from the query: with k=1 the
     lower training-row index must win *)
  let xs = F.of_rows [| [| 1.0 |]; [| -1.0 |]; [| 5.0 |]; [| -5.0 |] |] in
  let ys = [| 1; 0; 1; 0 |] in
  let t =
    Ml.Model.restore (Ml.Model.S_knn (Ml.Knn.train ~k:1 ~n_classes:2 xs ys))
  in
  Alcotest.(check int) "row 0 wins the tie" 1 (t.predict [| 0.0 |])

let test_logreg_matches_reference =
  qtest ~count:8 "logreg = reference logreg (bitwise training)" (fun seed ->
      let rng = Rng.make (seed + 5) in
      let n_classes = draw_classes rng in
      let n = 20 + Rng.int rng 60 and d = 2 + Rng.int rng 8 in
      let xs, ys = gen_gauss rng ~n ~d ~n_classes in
      let txs, _ = gen_gauss rng ~n:30 ~d ~n_classes in
      let params = { Ml.Logreg.epochs = 8; lr = 0.1; l2 = 1e-4; batch = 16 } in
      let ref_params =
        { Ml.Reference.Logreg.epochs = 8; lr = 0.1; l2 = 1e-4; batch = 16 }
      in
      let m_new =
        Ml.Logreg.train ~params (Rng.make seed) ~n_classes
          (Ml.Fblock.Mem (F.of_rows xs)) ys
      in
      let m_ref =
        Ml.Reference.Logreg.train ~params:ref_params (Rng.make seed)
          ~n_classes xs ys
      in
      let t = Ml.Model.restore (Ml.Model.S_lr m_new) in
      let batch = t.predict_batch (F.of_rows txs) in
      same_bits (Ml.Logreg.weights m_new).data m_ref.weights.data
      && same_bits (Ml.Logreg.bias m_new) m_ref.bias
      && Array.for_all
           (fun x -> t.predict x = Ml.Reference.Logreg.predict m_ref x)
           txs
      && batch = Array.map (Ml.Reference.Logreg.predict m_ref) txs)

(* Svm.train scores every class of a sample in one matrix-vector pass;
   the frozen loop reads each class's score just before its update.  Same
   snapshot bytes, in memory and in blocks. *)
let test_svm_matches_reference =
  qtest ~count:8 "svm = reference svm (bitwise training)" (fun seed ->
      let rng = Rng.make (seed + 9) in
      let n_classes = draw_classes rng in
      let n = 20 + Rng.int rng 60 and d = 2 + Rng.int rng 8 in
      let xs, ys = gen_gauss rng ~n ~d ~n_classes in
      let params = { Ml.Svm.default_params with epochs = 6 } in
      let src = Ml.Fblock.Mem (F.of_rows xs) in
      List.for_all
        (fun block_rows ->
          let save m = Ml.Model.save (Ml.Model.S_svm m) in
          save (Ml.Svm.train ~params ?block_rows (Rng.make seed) ~n_classes src ys)
          = save
              (Ml.Reference.Svm.train ~params ?block_rows (Rng.make seed)
                 ~n_classes src ys))
        [ None; Some (1 + (seed mod 9)) ])

let test_mlp_matches_reference =
  qtest ~count:8 "mlp = reference mlp (bitwise training)" (fun seed ->
      let rng = Rng.make (seed + 6) in
      let n_classes = draw_classes rng in
      let n = 20 + Rng.int rng 60 and d = 2 + Rng.int rng 8 in
      let xs, ys = gen_gauss rng ~n ~d ~n_classes in
      let params =
        { Ml.Mlp.hidden = 1 + Rng.int rng 20; epochs = 4; lr = 0.02 }
      in
      let m_new =
        Ml.Mlp.train ~params (Rng.make seed) ~n_classes
          (Ml.Fblock.Mem (F.of_rows xs)) ys
      in
      let m_ref =
        Ml.Reference.Mlp.train ~params (Rng.make seed) ~n_classes xs ys
      in
      let w_new = Ml.Cnn.dump_weights m_new
      and w_ref = Ml.Cnn.dump_weights m_ref in
      Array.length w_new = Array.length w_ref
      && Array.for_all2 same_bits w_new w_ref)

let suite =
  [
    Alcotest.test_case "of_rows roundtrip" `Quick test_of_rows_roundtrip;
    Alcotest.test_case "of_rows ragged" `Quick test_of_rows_ragged;
    Alcotest.test_case "row_into" `Quick test_row_into;
    Alcotest.test_case "snapshot with an overflowing shape rejected" `Quick
      test_snapshot_rejects_overflowing_shape;
    test_parallel_of_fn_matches_sequential;
    Alcotest.test_case "dot and norm" `Quick test_dot_and_norm;
    test_win_forward_matches_loop;
    test_blocked_distance_close;
    test_fit_stream_bit_identical;
    test_tree_matches_reference_binned;
    test_tree_matches_reference_wide;
    test_forest_matches_reference;
    test_knn_matches_reference;
    Alcotest.test_case "knn index tie-break" `Quick test_knn_index_tie_break;
    test_logreg_matches_reference;
    test_svm_matches_reference;
    test_mlp_matches_reference;
  ]
