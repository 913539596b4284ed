(** Differential tests for the kernelized neural tier (DESIGN.md §15): the
    minibatch trainers (Nn.train_batch, Cnn.train, Dgcnn.train) must produce
    weights bit-identical to the frozen naive implementations in
    {!Yali.Ml.Reference}, at any [--jobs]. *)

module Ml = Yali.Ml
module Rng = Yali.Rng
module Pool = Yali.Exec.Pool
module Graph = Yali.Embeddings.Graph
module F = Ml.Fmat

(* parameter dumps compared by their bits (DESIGN.md §15) *)
let weights =
  Alcotest.testable
    (Fmt.Dump.array (Fmt.Dump.array Fmt.float))
    (fun a b ->
      Array.length a = Array.length b && Array.for_all2 Helpers.same_bits a b)

(* well-separated gaussian blobs as an Fmat (same shape as test_ml's) *)
let blobs (rng : Rng.t) ~(n_classes : int) ~(n : int) ~(d : int) :
    F.t * int array =
  let x = F.create n d in
  let ys = Array.init n (fun i -> i mod n_classes) in
  for i = 0 to n - 1 do
    for k = 0 to d - 1 do
      x.F.data.((i * d) + k) <-
        Rng.gaussian rng +. (if k = ys.(i) then 6.0 else 0.0)
    done
  done;
  (x, ys)

let chain_graph ~(n : int) ~(flavor : int) : Graph.t =
  let feats =
    Array.init n (fun k ->
        Array.init 4 (fun j -> if (k + j + flavor) mod 2 = 0 then 1.0 else 0.0))
  in
  let edges = List.init (n - 1) (fun k -> (k, k + 1, Graph.Control)) in
  { Graph.node_feats = feats; edges; feat_dim = 4 }

let chain_graphs (rng : Rng.t) ~(n : int) : Graph.t array * int array =
  let graphs =
    Array.init n (fun i ->
        if i mod 2 = 0 then chain_graph ~n:(4 + Rng.int rng 3) ~flavor:0
        else chain_graph ~n:(9 + Rng.int rng 3) ~flavor:1)
  in
  (graphs, Array.init n (fun i -> i mod 2))

(* -- Fmat batch-assembly helpers ------------------------------------------- *)

let test_of_rows_into () =
  let rows = [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let dst = F.create 2 3 in
  F.of_rows_into dst rows;
  Alcotest.(check bool) "rows blitted" true (dst = F.of_rows rows);
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Fmat.of_rows_into: width mismatch") (fun () ->
      F.of_rows_into dst [| [| 1.; 2. |]; [| 3.; 4. |] |])

let test_gather_rows_into () =
  let src = F.of_rows [| [| 0.; 0. |]; [| 1.; 10. |]; [| 2.; 20. |] |] in
  let idx = [| 2; 0; 1 |] in
  let dst = F.create 2 2 in
  F.gather_rows_into dst src idx ~lo:0 ~len:2;
  Alcotest.(check bool) "gathered [2;0]" true
    (dst = F.of_rows [| [| 2.; 20. |]; [| 0.; 0. |] |]);
  F.gather_rows_into dst src idx ~lo:1 ~len:2;
  Alcotest.(check bool) "gathered [0;1]" true
    (dst = F.of_rows [| [| 0.; 0. |]; [| 1.; 10. |] |])

(* -- Nn.train_batch vs Reference.Nnb --------------------------------------- *)

(* The same net built twice from the same seed (identical init draws); a few
   minibatch steps on each side must agree on loss, input gradients, and
   every weight bit. *)
let nnb_differential ~(d : int) ~(n_classes : int) ~(batch : int)
    ~(seed : int) () =
  let build () = Ml.Cnn.build_net (Rng.make seed) ~d_in:d ~n_classes in
  let kernel = build () and naive = build () in
  let krng = Rng.make (seed + 1) and nrng = Rng.make (seed + 1) in
  let data_rng = Rng.make (seed + 2) in
  for step = 0 to 4 do
    let x, ys = blobs data_rng ~n_classes ~n:batch ~d in
    let lr = 0.01 /. (1.0 +. (0.1 *. float_of_int step)) in
    let kl, kdx = Ml.Nn.train_batch ~lr ~rng:krng kernel x ys in
    let nl, ndx = Ml.Reference.Nnb.train_batch ~lr ~rng:nrng naive x ys in
    Alcotest.(check int64) "loss identical" (Int64.bits_of_float nl)
      (Int64.bits_of_float kl);
    Alcotest.(check bool) "input grads identical" true
      (kdx.F.n = ndx.F.n && Helpers.same_bits kdx.F.data ndx.F.data)
  done;
  Alcotest.check weights "weights identical"
    (Ml.Nn.dump_weights naive) (Ml.Nn.dump_weights kernel)

(* -- cnn / dgcnn end-to-end differentials ----------------------------------- *)

let cnn_differential ~(d : int) () =
  let mk_data () = blobs (Rng.make 11) ~n_classes:3 ~n:70 ~d in
  let params = { Ml.Cnn.default_params with epochs = 3 } in
  let x, ys = mk_data () in
  let kernel =
    Ml.Cnn.train ~params (Rng.make 7) ~n_classes:3 (Ml.Fblock.Mem x) ys
  in
  let x, ys = mk_data () in
  let naive = Ml.Reference.Cnn.train ~params (Rng.make 7) ~n_classes:3 x ys in
  Alcotest.check weights "cnn weights identical"
    (Ml.Cnn.dump_weights naive) (Ml.Cnn.dump_weights kernel)

let test_cnn_kernel_vs_reference_dense () = cnn_differential ~d:8 ()
let test_cnn_kernel_vs_reference_conv () = cnn_differential ~d:24 ()

let dgcnn_differential () =
  let graphs, ys = chain_graphs (Rng.make 3) ~n:40 in
  let params = { Ml.Dgcnn.default_params with epochs = 2 } in
  let kernel =
    Ml.Dgcnn.train ~params (Rng.make 17) ~n_classes:2 ~feat_dim:4 graphs ys
  in
  let naive =
    Ml.Reference.Dgcnn.train ~params (Rng.make 17) ~n_classes:2 ~feat_dim:4
      graphs ys
  in
  Alcotest.check weights "dgcnn weights identical"
    (Ml.Dgcnn.dump_weights naive) (Ml.Dgcnn.dump_weights kernel)

(* -- jobs invariance -------------------------------------------------------- *)

let test_cnn_jobs_invariant () =
  let params = { Ml.Cnn.default_params with epochs = 3 } in
  let train jobs =
    Pool.with_jobs jobs (fun () ->
        let x, ys = blobs (Rng.make 11) ~n_classes:3 ~n:70 ~d:24 in
        Ml.Cnn.dump_weights
          (Ml.Cnn.train ~params (Rng.make 7) ~n_classes:3 (Ml.Fblock.Mem x) ys))
  in
  Alcotest.check weights "cnn --jobs 1 = --jobs 4" (train 1) (train 4)

let test_dgcnn_jobs_invariant () =
  let params = { Ml.Dgcnn.default_params with epochs = 2 } in
  let train jobs =
    Pool.with_jobs jobs (fun () ->
        let graphs, ys = chain_graphs (Rng.make 3) ~n:40 in
        Ml.Dgcnn.dump_weights
          (Ml.Dgcnn.train ~params (Rng.make 17) ~n_classes:2 ~feat_dim:4
             graphs ys))
  in
  Alcotest.check weights "dgcnn --jobs 1 = --jobs 4" (train 1) (train 4)

(* -- cnn snapshots ------------------------------------------------------------ *)

let test_cnn_snapshot_roundtrip () =
  let x, ys = blobs (Rng.make 11) ~n_classes:3 ~n:70 ~d:24 in
  let s =
    Option.get
      (Ml.Model.train_snapshot "cnn" (Rng.make 7) ~n_classes:3
         (Ml.Fblock.Mem x) ys)
  in
  let s' = Ml.Model.load (Ml.Model.save s) in
  Alcotest.(check string) "kind" "cnn" (Ml.Model.snapshot_kind s');
  let v = F.row_copy x 3 in
  Alcotest.(check bool) "margins survive save/load" true
    (Ml.Model.margins s v = Ml.Model.margins s' v);
  Alcotest.(check int) "predict survives save/load"
    ((Ml.Model.restore s).predict v)
    ((Ml.Model.restore s').predict v)

let suite =
  [
    Alcotest.test_case "of_rows_into" `Quick test_of_rows_into;
    Alcotest.test_case "gather_rows_into" `Quick test_gather_rows_into;
    Alcotest.test_case "train_batch = reference (dense, b=32)" `Quick
      (nnb_differential ~d:8 ~n_classes:3 ~batch:32 ~seed:41);
    Alcotest.test_case "train_batch = reference (dense, b=7)" `Quick
      (nnb_differential ~d:11 ~n_classes:4 ~batch:7 ~seed:42);
    Alcotest.test_case "train_batch = reference (conv, b=32)" `Quick
      (nnb_differential ~d:24 ~n_classes:3 ~batch:32 ~seed:43);
    Alcotest.test_case "train_batch = reference (conv, b=19)" `Quick
      (nnb_differential ~d:30 ~n_classes:5 ~batch:19 ~seed:44);
    Alcotest.test_case "train_batch = reference (conv, b=1)" `Quick
      (nnb_differential ~d:20 ~n_classes:2 ~batch:1 ~seed:45);
    Alcotest.test_case "cnn = reference (dense tail)" `Slow
      test_cnn_kernel_vs_reference_dense;
    Alcotest.test_case "cnn = reference (conv stack)" `Slow
      test_cnn_kernel_vs_reference_conv;
    Alcotest.test_case "dgcnn = reference" `Slow dgcnn_differential;
    Alcotest.test_case "cnn jobs-invariant" `Slow test_cnn_jobs_invariant;
    Alcotest.test_case "dgcnn jobs-invariant" `Slow test_dgcnn_jobs_invariant;
    Alcotest.test_case "cnn snapshot round-trip" `Quick
      test_cnn_snapshot_roundtrip;
  ]
