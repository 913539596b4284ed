(** Tests for the nine program embeddings. *)

open Helpers
module E = Yali.Embeddings
module Ir = Yali.Ir

let sample_module () =
  lower
    (parse
       "int f(int a) { return a * 2; }\n\
        int main() { int s = 0; for (int k = 0; k < 5; k = k + 1) { s = s + f(k); } print_int(s); return 0; }")

(* -- histogram ------------------------------------------------------------ *)

let test_histogram_dim () =
  Alcotest.(check int) "63 dimensions" 63 E.Histogram.dim;
  Alcotest.(check int) "matches module vector" 63
    (Array.length (E.Histogram.of_module (sample_module ())))

let test_histogram_counts () =
  let m = lower (parse "int main() { int a = read_int(); return a + a; }") in
  let h = E.Histogram.of_module m in
  let n op = h.(Ir.Opcode.index op) in
  Alcotest.(check bool) "one add" true (n Ir.Opcode.Add = 1.0);
  Alcotest.(check bool) "one call" true (n Ir.Opcode.Call = 1.0);
  Alcotest.(check bool) "one ret" true (n Ir.Opcode.Ret = 1.0);
  (* total = instruction count + terminators *)
  let total = Array.fold_left ( +. ) 0.0 h in
  Alcotest.(check bool) "total matches" true
    (int_of_float total = Ir.Irmod.instr_count m)

let test_histogram_normalized () =
  let h = E.Histogram.normalized_of_module (sample_module ()) in
  let total = Array.fold_left ( +. ) 0.0 h in
  Alcotest.(check bool) "sums to 1" true (approx ~eps:1e-9 total 1.0)

let test_euclidean_metric () =
  let a = [| 0.0; 3.0 |] and b = [| 4.0; 0.0 |] in
  Alcotest.(check bool) "3-4-5" true (approx (E.Histogram.euclidean a b) 5.0);
  Alcotest.(check bool) "identity" true (approx (E.Histogram.euclidean a a) 0.0);
  Alcotest.(check bool) "symmetry" true
    (approx (E.Histogram.euclidean a b) (E.Histogram.euclidean b a))

let test_histogram_invariant_under_renaming =
  qtest ~count:30 "histogram invariant under variable renaming" (fun seed ->
      let p = dataset_program seed in
      let tx = Option.get (Yali.Obfuscation.Source_tx.find "var_rename") in
      let p' = Yali.Obfuscation.Source_tx.apply_program tx (Yali.Rng.make seed) p in
      E.Histogram.of_module (lower p) = E.Histogram.of_module (lower p'))

(* [of_module] counts exactly the opcode list [Irmod.opcodes] gives: on
   every [Passdb] entry's output for generated programs, and on every
   evader's output for dataset programs. *)
let test_histogram_fold () =
  let same what m =
    if E.Histogram.of_module m <> E.Histogram.of_opcodes (Ir.Irmod.opcodes m)
    then Alcotest.failf "%s: histogram differs from the opcode list" what
  in
  for seed = 0 to 9 do
    let m = lower (Yali.Check.Gen.program (Rng.make seed)) in
    List.iteri
      (fun k (e : Yali.Check.Passdb.entry) ->
        same
          (Printf.sprintf "%s on generated program %d" e.ename seed)
          (Yali.Check.Passdb.apply e (Rng.split_ix (Rng.make seed) k) m))
      Yali.Check.Passdb.all
  done;
  let module Ev = Yali.Obfuscation.Evader in
  for seed = 0 to 3 do
    let p = dataset_program seed in
    List.iter
      (fun (e : Ev.t) ->
        same
          (Printf.sprintf "%s on dataset program %d" e.ename seed)
          (e.apply (Rng.make seed) p))
      Ev.(all @ [ ga; mem2reg ])
  done

(* -- milepost ------------------------------------------------------------- *)

let test_milepost_dim () =
  Alcotest.(check int) "56 features" 56 E.Milepost.dim;
  Alcotest.(check int) "vector length" 56
    (Array.length (E.Milepost.of_module (sample_module ())))

let test_milepost_counts_blocks () =
  let m = sample_module () in
  let v = E.Milepost.of_module m in
  let n_blocks =
    List.fold_left (fun acc (f : Ir.Func.t) -> acc + List.length f.blocks) 0 m.funcs
  in
  Alcotest.(check bool) "feature 0 is block count" true
    (int_of_float v.(0) = n_blocks)

(* -- ir2vec --------------------------------------------------------------- *)

let test_ir2vec_deterministic () =
  let m = sample_module () in
  Alcotest.(check bool) "same module, same vector" true
    (E.Ir2vec.of_module m = E.Ir2vec.of_module m)

let test_ir2vec_dim () =
  Alcotest.(check int) "configured dimension" E.Ir2vec.dim
    (Array.length (E.Ir2vec.of_module (sample_module ())))

let test_ir2vec_additive () =
  (* program vector = sum of function vectors *)
  let m = sample_module () in
  let total = E.Ir2vec.of_module m in
  let by_func =
    List.fold_left
      (fun acc f ->
        let fv = E.Ir2vec.of_func f in
        Array.mapi (fun i x -> x +. fv.(i)) acc)
      (Array.make E.Ir2vec.dim 0.0) m.funcs
  in
  Alcotest.(check bool) "additive composition" true
    (Array.for_all2 (fun a b -> approx ~eps:1e-9 a b) total by_func)

(* -- graphs --------------------------------------------------------------- *)

let test_cfg_graph_shape () =
  let m = sample_module () in
  let g = E.Graphs.cfg m in
  Alcotest.(check int) "one node per instruction+terminator"
    (Ir.Irmod.instr_count m) (E.Graph.node_count g);
  Alcotest.(check bool) "only control edges" true
    (List.for_all (fun (_, _, t) -> t = E.Graph.Control) g.edges)

let test_cdfg_adds_data_edges () =
  let m = sample_module () in
  let cfg = E.Graphs.cfg m and cdfg = E.Graphs.cdfg m in
  Alcotest.(check bool) "cdfg has more edges" true
    (E.Graph.edge_count cdfg > E.Graph.edge_count cfg);
  Alcotest.(check bool) "data edges present" true
    (List.exists (fun (_, _, t) -> t = E.Graph.Data) cdfg.edges)

let test_cdfg_plus_adds_call_edges () =
  let m = sample_module () in
  let g = E.Graphs.cdfg_plus m in
  Alcotest.(check bool) "call edge to callee" true
    (List.exists (fun (_, _, t) -> t = E.Graph.Call) g.edges);
  Alcotest.(check bool) "memory edges present" true
    (List.exists (fun (_, _, t) -> t = E.Graph.Memory) g.edges)

let test_compact_graphs_are_smaller () =
  let m = sample_module () in
  let full = E.Graphs.cfg m and compact = E.Graphs.cfg_compact m in
  Alcotest.(check bool) "block nodes fewer than instr nodes" true
    (E.Graph.node_count compact < E.Graph.node_count full);
  (* compact node features are per-block opcode histograms *)
  Alcotest.(check int) "feature dim 63" 63 compact.feat_dim

let test_compact_features_sum_to_block_sizes () =
  let m = sample_module () in
  let g = E.Graphs.cfg_compact m in
  let feat_total =
    Array.fold_left
      (fun acc row -> acc +. Array.fold_left ( +. ) 0.0 row)
      0.0 g.node_feats
  in
  Alcotest.(check bool) "histograms cover every instruction" true
    (int_of_float feat_total = Ir.Irmod.instr_count m)

let test_programl_value_nodes () =
  let m = sample_module () in
  let instr_nodes = Ir.Irmod.instr_count m in
  let g = E.Graphs.programl m in
  Alcotest.(check bool) "extra value nodes" true
    (E.Graph.node_count g > instr_nodes);
  Alcotest.(check int) "feature dim 64 (opcodes + is-value)" 64 g.feat_dim

let test_graph_to_flat_shape () =
  let g = E.Graphs.cfg (sample_module ()) in
  let v = E.Graph.to_flat g in
  Alcotest.(check int) "2d+4 summary" ((2 * g.feat_dim) + 4) (Array.length v)

(* -- registry ------------------------------------------------------------- *)

let test_registry_has_nine () =
  Alcotest.(check int) "nine embeddings (paper fig. 3)" 9
    (List.length E.Embedding.all);
  List.iter
    (fun name ->
      Alcotest.(check bool) name true (E.Embedding.find name <> None))
    [ "cfg"; "cfg_compact"; "cdfg"; "cdfg_compact"; "cdfg_plus"; "programl";
      "ir2vec"; "milepost"; "histogram" ]

(* -- inst2vec (extension) -------------------------------------------------- *)

let test_inst2vec_dim_and_determinism () =
  let m = sample_module () in
  Alcotest.(check int) "dimension" E.Inst2vec.dim
    (Array.length (E.Inst2vec.of_module m));
  Alcotest.(check bool) "deterministic" true
    (E.Inst2vec.of_module m = E.Inst2vec.of_module m)

let test_inst2vec_statement_sensitivity () =
  (* unlike the opcode histogram, inst2vec distinguishes statements with the
     same opcode but different operand shapes *)
  let m1 = lower (parse "int main() { int a = read_int(); return a + a; }") in
  let m2 = lower (parse "int main() { int a = read_int(); return a + 1; }") in
  Alcotest.(check bool) "var+var differs from var+const" true
    (E.Inst2vec.of_module m1 <> E.Inst2vec.of_module m2)

let test_inst2vec_not_in_paper_nine () =
  Alcotest.(check bool) "extension is outside Embedding.all" true
    (not (List.exists (fun (e : E.Embedding.t) -> e.name = "inst2vec") E.Embedding.all));
  Alcotest.(check string) "named" "inst2vec" E.Inst2vec.embedding.name

let test_inst2vec_classifies =
  qtest ~count:2 "inst2vec supports classification" (fun seed ->
      let rng = Yali.Rng.make (seed + 60) in
      let split =
        Yali.Dataset.Poj.make rng ~n_classes:6 ~train_per_class:10
          ~test_per_class:4
      in
      let r =
        Yali.Games.Arena.run_flat (Yali.Rng.make 3) ~n_classes:6
          E.Inst2vec.embedding Yali.Ml.Model.rf Yali.Games.Game.game0 split
      in
      r.accuracy > 0.5)

let test_registry_flatten_all =
  qtest ~count:10 "every embedding flattens every program" (fun seed ->
      let m = lower (dataset_program seed) in
      List.for_all
        (fun e -> Array.length (E.Embedding.to_flat e m) > 0)
        E.Embedding.all)

let suite =
  [
    Alcotest.test_case "histogram dim" `Quick test_histogram_dim;
    Alcotest.test_case "histogram counts" `Quick test_histogram_counts;
    Alcotest.test_case "histogram normalized" `Quick test_histogram_normalized;
    Alcotest.test_case "euclidean metric" `Quick test_euclidean_metric;
    test_histogram_invariant_under_renaming;
    Alcotest.test_case "histogram fold equals opcode list" `Quick
      test_histogram_fold;
    Alcotest.test_case "milepost dim" `Quick test_milepost_dim;
    Alcotest.test_case "milepost block count" `Quick test_milepost_counts_blocks;
    Alcotest.test_case "ir2vec deterministic" `Quick test_ir2vec_deterministic;
    Alcotest.test_case "ir2vec dim" `Quick test_ir2vec_dim;
    Alcotest.test_case "ir2vec additive" `Quick test_ir2vec_additive;
    Alcotest.test_case "cfg graph shape" `Quick test_cfg_graph_shape;
    Alcotest.test_case "cdfg data edges" `Quick test_cdfg_adds_data_edges;
    Alcotest.test_case "cdfg+ call/mem edges" `Quick test_cdfg_plus_adds_call_edges;
    Alcotest.test_case "compact graphs smaller" `Quick test_compact_graphs_are_smaller;
    Alcotest.test_case "compact features total" `Quick
      test_compact_features_sum_to_block_sizes;
    Alcotest.test_case "programl value nodes" `Quick test_programl_value_nodes;
    Alcotest.test_case "graph flatten shape" `Quick test_graph_to_flat_shape;
    Alcotest.test_case "registry of nine" `Quick test_registry_has_nine;
    Alcotest.test_case "inst2vec dim + determinism" `Quick
      test_inst2vec_dim_and_determinism;
    Alcotest.test_case "inst2vec statement sensitivity" `Quick
      test_inst2vec_statement_sensitivity;
    Alcotest.test_case "inst2vec is an extension" `Quick
      test_inst2vec_not_in_paper_nine;
    test_inst2vec_classifies;
    test_registry_flatten_all;
  ]
