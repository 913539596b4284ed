(** Tests for the evaders: O-LLVM-style IR passes, source transformations
    and search strategies.  The central property throughout: evasion must
    preserve observable behaviour (Definition 2.4 requires evaders to be
    semantics-preserving). *)

open Helpers
module Ir = Yali.Ir
module Ob = Yali.Obfuscation
module Op = Ir.Opcode
module Rng = Yali.Rng

let opcount (m : Ir.Irmod.t) (op : Op.t) =
  List.length (List.filter (( = ) op) (Ir.Irmod.opcodes m))

(* -- instruction substitution --------------------------------------------- *)

let test_sub_grows_code =
  qtest ~count:30 "sub grows arithmetic code" (fun seed ->
      let m = lower (dataset_program seed) in
      let m' = Ob.Sub.run (Rng.make seed) m in
      Ir.Irmod.instr_count m' >= Ir.Irmod.instr_count m)

let test_sub_preserves =
  qtest ~count:50 "sub preserves behaviour" (fun seed ->
      preserves_behaviour (Ob.Sub.run (Rng.make seed)) seed)

let test_sub_rounds_compound () =
  let m = lower (parse "int main() { int a = read_int(); return a + a; }") in
  let one = Ob.Sub.run ~rounds:1 (Rng.make 1) m in
  let three = Ob.Sub.run ~rounds:3 (Rng.make 1) m in
  Alcotest.(check bool) "more rounds, more code" true
    (Ir.Irmod.instr_count three >= Ir.Irmod.instr_count one)

(* -- bogus control flow --------------------------------------------------- *)

let test_bcf_adds_blocks_and_globals () =
  let m = lower (parse "int main() { int a = read_int(); if (a > 0) { print_int(a); } return a; }") in
  let m' = Ob.Bcf.run ~probability:1.0 (Rng.make 3) m in
  Alcotest.(check bool) "globals added" true
    (Ir.Irmod.find_global m' Ob.Bcf.x_global <> None
    && Ir.Irmod.find_global m' Ob.Bcf.y_global <> None);
  let f = Ir.Irmod.find_func_exn m' "main" in
  let f0 = Ir.Irmod.find_func_exn m "main" in
  Alcotest.(check bool) "blocks multiplied" true
    (List.length f.blocks > List.length f0.blocks);
  (* opaque predicates read memory: srem + loads appear *)
  Alcotest.(check bool) "opaque predicate present" true (opcount m' Op.SRem >= 1)

let test_bcf_preserves =
  qtest ~count:50 "bcf preserves behaviour" (fun seed ->
      preserves_behaviour (Ob.Bcf.run ~probability:1.0 (Rng.make seed)) seed)

let test_bcf_skips_ssa () =
  (* bcf requires phi-free code; a mem2reg'd function passes through *)
  let m = Yali.Transforms.Mem2reg.run
      (lower (parse "int main() { int s = 0; for (int k = 0; k < read_int(); k = k + 1) { s = s + k; } return s; }"))
  in
  let m' = Ob.Bcf.run ~probability:1.0 (Rng.make 1) m in
  let f = Ir.Irmod.find_func_exn m "main" and f' = Ir.Irmod.find_func_exn m' "main" in
  Alcotest.(check int) "untouched" (List.length f.blocks) (List.length f'.blocks)

(* -- control-flow flattening ---------------------------------------------- *)

let test_fla_builds_dispatcher () =
  let m = lower (parse "int main() { int a = read_int(); if (a > 0) { print_int(1); } else { print_int(2); } return 0; }") in
  let m' = Ob.Fla.run (Rng.make 4) m in
  let f = Ir.Irmod.find_func_exn m' "main" in
  Alcotest.(check bool) "has dispatcher block" true
    (List.exists (fun (b : Ir.Block.t) -> b.label = "fla.dispatch") f.blocks);
  (* every non-ret block routes through the dispatcher *)
  let switches = opcount m' Op.Switch in
  Alcotest.(check bool) "dispatcher switch present" true (switches >= 1)

let test_fla_histogram_stability () =
  (* the paper's observation: flattening barely changes the opcode mix
     (relative to its size) — specifically, arithmetic opcodes survive *)
  let m = lower (dataset_program 17) in
  let m' = Ob.Fla.run (Rng.make 17) m in
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Op.to_string op ^ " count preserved")
        true
        (opcount m' op >= opcount m op))
    [ Op.Add; Op.Mul; Op.SDiv; Op.ICmp ]

let test_fla_preserves =
  qtest ~count:50 "fla preserves behaviour" (fun seed ->
      preserves_behaviour (Ob.Fla.run (Rng.make seed)) seed)

(* Flattening flattened code lowers the first dispatcher's switch and adds
   a second dispatcher, which must not reuse the first one's label. *)
let test_fla_twice_preserves =
  qtest ~count:30 "fla on flattened code verifies and preserves behaviour"
    (fun seed ->
      let m = lower (Yali.Check.Gen.program (Rng.make seed)) in
      let m' = Ob.Fla.run (Rng.make (seed + 1)) (Ob.Fla.run (Rng.make seed) m) in
      let input = fuzz_input seed in
      Ir.Verify.check_module m' = []
      && Ir.Interp.equal_behaviour
           (Ir.Interp.run ~fuel:2_000_000 m input)
           (Ir.Interp.run ~fuel:(256 * 2_000_000) m' input))

let test_fla_lower_switches_preserves =
  qtest ~count:30 "switch lowering preserves behaviour" (fun seed ->
      preserves_behaviour
        (Ir.Irmod.map_funcs Ob.Fla.lower_switches)
        seed)

(* -- combined ollvm ------------------------------------------------------- *)

let test_ollvm_preserves =
  qtest ~count:40 "ollvm (sub+fla+bcf) preserves behaviour" (fun seed ->
      preserves_behaviour (Ob.Ollvm.run (Rng.make seed)) seed)

let test_ollvm_slows_down =
  qtest ~count:20 "ollvm increases dynamic cost" (fun seed ->
      let m = lower (dataset_program seed) in
      let input = fuzz_input seed in
      let base = Ir.Interp.run ~fuel:4_000_000 m input in
      let o = Ir.Interp.run ~fuel:40_000_000 (Ob.Ollvm.run (Rng.make seed) m) input in
      o.cost >= base.cost)

(* -- the fifteen source transformations ----------------------------------- *)

let source_tx_tests =
  List.map
    (fun (tx : Ob.Source_tx.t) ->
      qtest ~count:30
        (Printf.sprintf "source tx %s preserves behaviour" tx.txname)
        (source_preserves_behaviour (fun rng p ->
             Ob.Source_tx.apply_program tx rng p)))
    Ob.Source_tx.all

let test_fifteen_transformations () =
  Alcotest.(check int) "exactly 15, as in Zhang et al." 15
    (List.length Ob.Source_tx.all)

let test_source_tx_find () =
  Alcotest.(check bool) "find existing" true
    (Ob.Source_tx.find "for_to_while" <> None);
  Alcotest.(check bool) "find missing" true (Ob.Source_tx.find "nope" = None)

let test_for_to_while_shape () =
  let p = parse "int main() { int s = 0; for (int k = 0; k < 5; k = k + 1) { s = s + k; } return s; }" in
  let tx = Option.get (Ob.Source_tx.find "for_to_while") in
  let p' = Ob.Source_tx.apply_program tx (Rng.make 1) p in
  let printed = Yali.Minic.Pp.program_to_string p' in
  Alcotest.(check bool) "no for remains" false (contains_substring printed "for (");
  Alcotest.(check bool) "while appears" true (contains_substring printed "while (")

(* -- strategies ----------------------------------------------------------- *)

let strategy_tests =
  List.map
    (fun (s : Ob.Strategies.strategy) ->
      qtest ~count:12
        (Printf.sprintf "strategy %s preserves behaviour" s.sname)
        (source_preserves_behaviour s.run))
    Ob.Strategies.all

let print_program = Yali.Minic.Pp.program_to_string

let strategy_determinism_tests =
  List.map
    (fun (s : Ob.Strategies.strategy) ->
      qtest ~count:6
        (Printf.sprintf "strategy %s is seed-deterministic" s.sname)
        (fun seed ->
          let p = dataset_program seed in
          print_program (s.run (Rng.make seed) p)
          = print_program (s.run (Rng.make seed) p)))
    Ob.Strategies.all

let strategy_verify_tests =
  List.map
    (fun (s : Ob.Strategies.strategy) ->
      qtest ~count:6
        (Printf.sprintf "strategy %s output lowers and verifies" s.sname)
        (fun seed ->
          let p' = s.run (Rng.make seed) (dataset_program seed) in
          Ir.Verify.check_module (lower p') = []))
    Ob.Strategies.all

let test_strategies_respect_max_len () =
  let p = dataset_program 29 in
  (* max_len 0 forbids every greedy step: drlsg must return p untouched *)
  Alcotest.(check string) "drlsg max_len:0 is the identity"
    (print_program p)
    (print_program (Ob.Strategies.drlsg ~max_len:0 (Rng.make 3) p));
  (* the greedy paths of two budgets share their prefix (same seed), so a
     longer budget can only move further from the original *)
  let h0 = Yali.Embeddings.Histogram.of_module (lower p) in
  let dist q =
    Yali.Embeddings.Histogram.euclidean h0
      (Yali.Embeddings.Histogram.of_module (lower q))
  in
  let d2 = dist (Ob.Strategies.drlsg ~max_len:2 (Rng.make 3) p) in
  let d8 = dist (Ob.Strategies.drlsg ~max_len:8 (Rng.make 3) p) in
  Alcotest.(check bool) "longer drlsg budget never loses distance" true
    (d8 >= d2);
  (* every strategy survives a length-1 cap and still emits a program that
     lowers and verifies *)
  List.iter
    (fun (name, p') ->
      Alcotest.(check bool) (name ^ " verifies under max_len:1") true
        (Ir.Verify.check_module (lower p') = []))
    [
      ("rs", Ob.Strategies.rs ~max_len:1 (Rng.make 5) p);
      ("mcmc", Ob.Strategies.mcmc ~iterations:4 ~max_len:1 (Rng.make 5) p);
      ("drlsg", Ob.Strategies.drlsg ~max_len:1 (Rng.make 5) p);
      ("ga", Ob.Strategies.ga ~population:4 ~generations:2 ~max_len:1 (Rng.make 5) p);
    ]

(* drlsg's first step against a brute-force oracle: with a one-step
   budget it must reach exactly the largest distance among the fifteen
   single-transformation candidates, which the test applies and lowers
   itself under the same [Rng.split] order. *)
let test_drlsg_distance () =
  let module H = Yali.Embeddings.Histogram in
  List.iter
    (fun seed ->
      let p = dataset_program seed in
      let h0 = H.of_module (lower p) in
      let dist q = H.euclidean h0 (H.of_module (lower q)) in
      let rng = Rng.make 5 in
      let best =
        List.fold_left
          (fun acc tx ->
            let q = Ob.Source_tx.apply_program tx (Rng.split rng) p in
            Float.max acc (dist q))
          neg_infinity Ob.Source_tx.all
      in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "program %d: one step reaches the best candidate" seed)
        best
        (dist (Ob.Strategies.drlsg ~max_len:1 (Rng.make 5) p));
      if seed = 23 then
        Alcotest.(check bool) "program 23 moves away from the original" true
          (dist (Ob.Strategies.drlsg (Rng.make 5) p) > 0.0))
    [ 0; 7; 23; 41; 58; 96; 103; 150 ]

(* Every source strategy at its default parameters on the 24 test programs
   of a seeded Poj split: one MD5 of the printed outputs and one of the
   matching evader's module digests per strategy.  A change to how
   candidates are scored or chosen shows here first. *)
let test_strategies_pin () =
  let split =
    Yali.Dataset.Poj.make (Rng.make 11) ~n_classes:24 ~train_per_class:0
      ~test_per_class:1
  in
  let digests =
    List.map
      (fun (s : Ob.Strategies.strategy) ->
        let e = Option.get (Ob.Evader.find s.sname) in
        let printed = Buffer.create (1 lsl 16) in
        let modules = Buffer.create 1024 in
        Array.iteri
          (fun i (l : Yali.Dataset.Poj.labelled) ->
            let rng () = Rng.split_ix (Rng.make 11) i in
            Buffer.add_string printed (print_program (s.run (rng ()) l.src));
            Buffer.add_string modules
              (Yali.Embeddings.Embedding.digest (e.apply (rng ()) l.src)))
          split.test;
        let md5 b = Digest.to_hex (Digest.string (Buffer.contents b)) in
        (s.sname, (md5 printed, md5 modules)))
      Ob.Strategies.all
  in
  Alcotest.(check (list (pair string (pair string string))))
    "printed programs, evader modules"
    [
      ( "rs",
        ("af5daed812f9853a60a8de11075ebaf9", "db87f4ae9a56b14350e569b7dde241ed")
      );
      ( "mcmc",
        ("7859d2b8c89d59d79f9b3914e81d3835", "f13d8a4c468d44e735b931a3ed813909")
      );
      ( "drlsg",
        ("cc51bf85743bd9ee903cef6bfb4694c8", "50c4f4a3a3caf972508c0fb6c222ca2b")
      );
      ( "ga",
        ("7bb28f4c458f8ef02c6dc3e3c25de2c1", "8e1fbf5c77b874d646bb2d93419f29e8")
      );
    ]
    digests

(* -- evader registry ------------------------------------------------------ *)

let test_evader_registry () =
  Alcotest.(check int) "8 active evaders (paper fig. 4 minus 'none')" 8
    (List.length Ob.Evader.active);
  List.iter
    (fun name ->
      Alcotest.(check bool) name true (Ob.Evader.find name <> None))
    [ "none"; "O3"; "ollvm"; "bcf"; "fla"; "sub"; "rs"; "mcmc"; "drlsg"; "ga"; "mem2reg" ]

let evader_semantic_tests =
  List.map
    (fun (e : Ob.Evader.t) ->
      qtest ~count:10
        (Printf.sprintf "evader %s preserves behaviour" e.ename)
        (fun seed ->
          let p = dataset_program seed in
          let input = fuzz_input seed in
          let base = Ir.Interp.run ~fuel:4_000_000 (lower p) input in
          let m = e.apply (Rng.make seed) p in
          let o = Ir.Interp.run ~fuel:40_000_000 m input in
          Ir.Interp.equal_behaviour base o))
    Ob.Evader.all

(* A [break] in a case leaves the switch; rewritten to an if-chain it would
   leave the enclosing loop (641 became 321), so such a switch is skipped *)
let test_ifchain_keeps_case_break () =
  let src =
    "int main() { int s = 0; int i; for (i = 0; i < 6; i = i + 1) { \
     switch (i % 3) { case 0: { if (i > 2) { break; } s = s + 1; } \
     default: { s = s + 10; } } s = s + 100; } print_int(s); return 0; }"
  in
  let p = parse src in
  let tx = Option.get (Ob.Source_tx.find "switch_to_ifchain") in
  let run p = outputs (Ir.Interp.run (lower p) []) in
  Alcotest.(check (list int)) "original" [ 641 ] (run p);
  Alcotest.(check (list int)) "transformed" [ 641 ]
    (run (Ob.Source_tx.apply_program tx (Rng.make 1) p))

(* A continue in a switch continues the loop around it, so the loop
   rewrites that move a for-loop's step must see it as a jump *)
let test_loop_rewrites_see_switch_continue () =
  let src =
    "int main() { int s = 0; int i; for (i = 0; i < 6; i = i + 1) { \
     switch (i % 2) { case 0: { s = s + 1; continue; } \
     default: { s = s + 10; } } s = s + 100; } print_int(s); return 0; }"
  in
  let p = parse src in
  let run p = outputs (Ir.Interp.run ~fuel:100_000 (lower p) []) in
  List.iter
    (fun tx ->
      let tx = Option.get (Ob.Source_tx.find tx) in
      Alcotest.(check (list int)) tx.Ob.Source_tx.txname [ 333 ]
        (run (Ob.Source_tx.apply_program tx (Rng.make 1) p)))
    [ "for_to_while"; "while_to_dowhile"; "loop_peel"; "wrap_dowhile0" ]

(* Game3's normaliser: -O3 of every active evader's challenges and of the
   plain training programs, on the 24 test programs of a seeded Poj split.
   Held to the printed modules, so a change to lowering or an O3 pass shows
   here. *)
let test_game3_normaliser_pin () =
  let split =
    Yali.Dataset.Poj.make (Rng.make 5) ~n_classes:24 ~train_per_class:0
      ~test_per_class:1
  in
  let o3 = Yali.Transforms.Pipeline.o3 in
  let digest apply =
    let buf = Buffer.create (1 lsl 16) in
    Array.iteri
      (fun i (l : Yali.Dataset.Poj.labelled) ->
        Buffer.add_string buf
          (Ir.Pp.module_to_string
             (o3 (apply (Rng.split_ix (Rng.make 5) i) l.src))))
      split.test;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  let rows =
    ("train", digest (fun _ p -> lower p))
    :: List.map
         (fun (e : Ob.Evader.t) -> (e.ename, digest e.apply))
         Ob.Evader.active
  in
  Alcotest.(check (list (pair string string))) "o3 of each side"
    [
      ("train", "32d3a19bfcb126d52e74046431d5b919");
      ("O3", "32d3a19bfcb126d52e74046431d5b919");
      ("ollvm", "7d1411e902d56802a24802a25e580355");
      ("bcf", "b8df3c17c36a174e62ae084bd55179fc");
      ("fla", "41fe20d4db93c0dd225813c17afafcfe");
      ("sub", "0ff886a76b04e29a8122543759dcadd3");
      ("rs", "e260bd3f0ec40c7999400b5eeda82e78");
      ("mcmc", "344bb8a22afab737a3852f8f45201385");
      ("drlsg", "1a39b1256e7c97039abfb899a7b49a44");
    ]
    rows

let suite =
  [
    test_sub_grows_code;
    test_sub_preserves;
    Alcotest.test_case "sub rounds compound" `Quick test_sub_rounds_compound;
    Alcotest.test_case "bcf structure" `Quick test_bcf_adds_blocks_and_globals;
    test_bcf_preserves;
    Alcotest.test_case "bcf skips SSA functions" `Quick test_bcf_skips_ssa;
    Alcotest.test_case "fla dispatcher" `Quick test_fla_builds_dispatcher;
    Alcotest.test_case "fla keeps arithmetic mix" `Quick test_fla_histogram_stability;
    test_fla_preserves;
    test_fla_twice_preserves;
    test_fla_lower_switches_preserves;
    test_ollvm_preserves;
    test_ollvm_slows_down;
    Alcotest.test_case "fifteen transformations" `Quick test_fifteen_transformations;
    Alcotest.test_case "source tx registry" `Quick test_source_tx_find;
    Alcotest.test_case "for→while shape" `Quick test_for_to_while_shape;
  ]
  @ source_tx_tests
  @ strategy_tests
  @ strategy_determinism_tests
  @ strategy_verify_tests
  @ [
      Alcotest.test_case "strategies respect max_len" `Slow
        test_strategies_respect_max_len;
      Alcotest.test_case "drlsg distance" `Slow test_drlsg_distance;
      Alcotest.test_case "source strategies pin" `Slow test_strategies_pin;
      Alcotest.test_case "switch to if-chain keeps a case's break" `Quick
        test_ifchain_keeps_case_break;
      Alcotest.test_case "loop rewrites see a continue in a switch" `Quick
        test_loop_rewrites_see_switch_continue;
      Alcotest.test_case "game3 normaliser pin" `Slow test_game3_normaliser_pin;
      Alcotest.test_case "evader registry" `Quick test_evader_registry;
    ]
  @ evader_semantic_tests
