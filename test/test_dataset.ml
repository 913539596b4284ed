(** Tests for the synthetic corpora: POJ-style problems, MIRAI suite,
    benchmark-game kernels. *)

open Helpers
module D = Yali.Dataset
module Rng = Yali.Rng
module Ir = Yali.Ir

let test_104_problems () =
  Alcotest.(check int) "POJ-104 shape" 104 D.Genprog.count;
  let names = List.map (fun (p : D.Genprog.problem) -> p.pname) D.Genprog.all in
  Alcotest.(check int) "names unique" 104 (List.length (List.sort_uniq compare names))

let test_problem_lookup () =
  Alcotest.(check bool) "find gcd" true (D.Genprog.find_by_name "gcd" <> None);
  Alcotest.(check bool) "pid assignment" true
    ((D.Genprog.nth 0).pid = 0 && (D.Genprog.nth 103).pid = 103)

(* every problem is exercised at least once across the qcheck runs because
   seeds are mapped seed -> problem (seed mod 104) *)
let test_generators_safe =
  qtest ~count:208 "every generator lowers, verifies and terminates"
    (fun seed ->
      let m = lower (dataset_program seed) in
      Ir.Verify.check_module m = []
      && (Ir.Interp.run ~fuel:4_000_000 m (fuzz_input seed)).steps > 0)

let test_samples_vary () =
  (* two samples of the same class should usually differ (different authors) *)
  let p = Option.get (D.Genprog.find_by_name "bubble_sort") in
  let distinct = ref 0 in
  for seed = 0 to 9 do
    let a = p.generate (Rng.make seed) in
    let b = p.generate (Rng.make (seed + 1000)) in
    if a <> b then incr distinct
  done;
  Alcotest.(check bool) "most sample pairs differ" true (!distinct >= 8)

let test_samples_solve_same_problem () =
  (* different samples of one class agree on observable behaviour up to
     formatting: sum_array samples must print the same sum *)
  let p = Option.get (D.Genprog.find_by_name "sum_array") in
  let input = [ 3L; 10L; 20L; 30L ] (* n=3+1? clamped; same stream for both *) in
  let run sample_seed =
    let m = lower (p.generate (Rng.make sample_seed)) in
    (Ir.Interp.run m input).output
  in
  Alcotest.(check bool) "same answer across samples" true (run 1 = run 2 && run 2 = run 3)

let test_split_balanced () =
  let split =
    D.Poj.make (Rng.make 4) ~n_classes:10 ~train_per_class:5 ~test_per_class:2
  in
  Alcotest.(check int) "train size" 50 (Array.length split.train);
  Alcotest.(check int) "test size" 20 (Array.length split.test);
  let count_label arr l =
    Array.fold_left (fun a (s : D.Poj.labelled) -> if s.label = l then a + 1 else a) 0 arr
  in
  for l = 0 to 9 do
    Alcotest.(check int) "balanced train" 5 (count_label split.train l);
    Alcotest.(check int) "balanced test" 2 (count_label split.test l)
  done

let test_split_shuffled_classes () =
  let s1 = D.Poj.make ~shuffle_classes:true (Rng.make 1) ~n_classes:5 ~train_per_class:1 ~test_per_class:1 in
  Alcotest.(check int) "requested size" 5 (Array.length s1.train)

(* A class count outside the POJ problems is rejected, naming the limit,
   instead of silently truncated to the problems there are. *)
let test_plan_rejects_class_count () =
  List.iter
    (fun n_classes ->
      match
        D.Poj.plan (Rng.make 1) ~n_classes ~train_per_class:1 ~test_per_class:0
      with
      | _ -> Alcotest.failf "n_classes %d accepted" n_classes
      | exception Invalid_argument msg ->
          Alcotest.(check bool) ("names the limit: " ^ msg) true
            (contains_substring msg "104"))
    [ 0; 105; 200 ];
  Alcotest.(check int) "104 classes still plan" 104
    (D.Poj.train_size
       (D.Poj.plan (Rng.make 1) ~n_classes:104 ~train_per_class:1
          ~test_per_class:0))

(* -- mirai ---------------------------------------------------------------- *)

let test_mirai_structure () =
  let m = lower (D.Mirai.generate_malware (Rng.make 8)) in
  List.iter
    (fun fname ->
      Alcotest.(check bool) ("has " ^ fname) true (Ir.Irmod.find_func m fname <> None))
    [ "scan_targets"; "kill_rivals"; "attack_udp"; "attack_syn"; "c2_loop"; "main" ]

let test_mirai_runs =
  qtest ~count:20 "malware variants verify and run" (fun seed ->
      let m = lower (D.Mirai.generate_malware (Rng.make seed)) in
      Ir.Verify.check_module m = []
      && (Ir.Interp.run ~fuel:4_000_000 m (fuzz_input seed)).steps > 0)

let test_benign_runs =
  qtest ~count:20 "benign samples verify and run" (fun seed ->
      let m = lower (D.Mirai.generate_benign (Rng.make seed)) in
      Ir.Verify.check_module m = []
      && (Ir.Interp.run ~fuel:4_000_000 m (fuzz_input seed)).steps > 0)

let test_seed_suite_balance () =
  let suite = D.Mirai.seed_suite (Rng.make 2) ~n:10 in
  Alcotest.(check int) "20 samples" 20 (List.length suite);
  Alcotest.(check int) "10 positives" 10
    (List.length (List.filter (fun (_, l) -> l = 1) suite))

let test_malware_distinguishable_from_benign () =
  (* sanity: histogram embedding separates the two families reasonably *)
  let suite = D.Mirai.seed_suite (Rng.make 5) ~n:12 in
  let xs =
    Array.of_list
      (List.map (fun (p, _) -> Yali.Embeddings.Histogram.of_module (lower p)) suite)
  in
  let ys = Array.of_list (List.map snd suite) in
  let trained =
    Yali.Ml.Model.rf.ftrain (Rng.make 1) ~n_classes:2
      (Yali.Ml.Fmat.of_rows xs) ys
  in
  let fresh = D.Mirai.seed_suite (Rng.make 77) ~n:6 in
  let hits =
    List.fold_left
      (fun acc (p, l) ->
        if trained.predict (Yali.Embeddings.Histogram.of_module (lower p)) = l then acc + 1
        else acc)
      0 fresh
  in
  Alcotest.(check bool) "at least 10/12" true (hits >= 10)

(* -- the second (recursion-heavy) corpus ----------------------------------- *)

let test_genprog2_shape () =
  Alcotest.(check int) "sixteen classes" 16 D.Genprog2.count;
  let names = List.map (fun (p : D.Genprog2.problem) -> p.pname) D.Genprog2.all in
  Alcotest.(check int) "names unique" 16 (List.length (List.sort_uniq compare names))

let test_genprog2_safe =
  qtest ~count:64 "second-corpus generators lower, verify and terminate"
    (fun seed ->
      let seed = abs seed in
      let p = List.nth D.Genprog2.all (seed mod D.Genprog2.count) in
      let m = lower (p.generate (Rng.make (seed / 16))) in
      Ir.Verify.check_module m = []
      && (Ir.Interp.run ~fuel:8_000_000 m (fuzz_input seed)).steps > 0)

let test_genprog2_is_call_heavy () =
  (* the point of the corpus: call-dominated opcode mixes *)
  let frac_of gen n =
    let calls = ref 0 and total = ref 0 in
    for k = 0 to n - 1 do
      let m = lower (gen k) in
      List.iter
        (fun op ->
          incr total;
          if op = Ir.Opcode.Call then incr calls)
        (Ir.Irmod.opcodes m)
    done;
    float_of_int !calls /. float_of_int !total
  in
  let f2 =
    frac_of
      (fun k ->
        (List.nth D.Genprog2.all (k mod 16)).generate (Rng.make k))
      32
  in
  let f1 =
    frac_of (fun k -> (D.Genprog.nth (k mod 104)).generate (Rng.make k)) 32
  in
  Alcotest.(check bool)
    (Printf.sprintf "corpus2 call fraction %.3f > corpus1 %.3f" f2 f1)
    true (f2 > f1)

let test_genprog2_split () =
  let split =
    D.Genprog2.make_split (Rng.make 4) ~train_per_class:3 ~test_per_class:1
  in
  Alcotest.(check int) "train" (16 * 3) (Array.length split.train);
  Alcotest.(check int) "test" 16 (Array.length split.test)

(* -- benchgame ------------------------------------------------------------ *)

let test_benchgame_sixteen () =
  Alcotest.(check int) "sixteen kernels (fig. 13)" 16 (List.length D.Benchgame.all);
  let names = List.map fst D.Benchgame.all in
  Alcotest.(check bool) "ary3 and matrix present (named in the paper)" true
    (List.mem "ary3" names && List.mem "matrix" names)

let test_benchgame_kernels_run () =
  List.iter
    (fun (name, prog) ->
      let m = lower prog in
      (match Ir.Verify.check_module m with
      | [] -> ()
      | e :: _ -> Alcotest.failf "%s: %a" name Ir.Verify.pp_error e);
      let o = Ir.Interp.run ~fuel:40_000_000 m [] in
      Alcotest.(check bool) (name ^ " produces output") true
        (o.output <> [] || o.foutput <> []))
    D.Benchgame.all

let test_benchgame_deterministic () =
  let name, prog = List.hd D.Benchgame.all in
  let run () = (Ir.Interp.run ~fuel:40_000_000 (lower prog) []).output in
  Alcotest.(check bool) (name ^ " deterministic") true (run () = run ())

let suite =
  [
    Alcotest.test_case "104 problems" `Quick test_104_problems;
    Alcotest.test_case "problem lookup" `Quick test_problem_lookup;
    test_generators_safe;
    Alcotest.test_case "samples vary" `Quick test_samples_vary;
    Alcotest.test_case "samples solve same problem" `Quick
      test_samples_solve_same_problem;
    Alcotest.test_case "balanced split" `Quick test_split_balanced;
    Alcotest.test_case "shuffled classes" `Quick test_split_shuffled_classes;
    Alcotest.test_case "plan rejects classes outside 1..104" `Quick
      test_plan_rejects_class_count;
    Alcotest.test_case "mirai structure" `Quick test_mirai_structure;
    test_mirai_runs;
    test_benign_runs;
    Alcotest.test_case "seed suite balance" `Quick test_seed_suite_balance;
    Alcotest.test_case "malware separable" `Slow
      test_malware_distinguishable_from_benign;
    Alcotest.test_case "genprog2 shape" `Quick test_genprog2_shape;
    test_genprog2_safe;
    Alcotest.test_case "genprog2 call-heavy" `Slow test_genprog2_is_call_heavy;
    Alcotest.test_case "genprog2 split" `Quick test_genprog2_split;
    Alcotest.test_case "benchgame sixteen" `Quick test_benchgame_sixteen;
    Alcotest.test_case "benchgame kernels run" `Slow test_benchgame_kernels_run;
    Alcotest.test_case "benchgame deterministic" `Slow test_benchgame_deterministic;
  ]
