(** End-to-end integration tests: miniature versions of the paper's headline
    experiments, asserting the qualitative findings rather than point
    estimates. *)

open Helpers
module G = Yali.Games
module Rng = Yali.Rng
module E = Yali.Embeddings

let n_classes = 8

let split seed =
  Yali.Dataset.Poj.make (Rng.make seed) ~n_classes ~train_per_class:14
    ~test_per_class:5

let run_game setup seed =
  (G.Arena.run_flat (Rng.make (seed + 100)) ~n_classes
     E.Embedding.histogram Yali.Ml.Model.rf setup (split seed))
    .accuracy

let test_game1_ollvm_hurts () =
  (* §4.3: the combined O-LLVM evader must hurt an unaware classifier *)
  let base = run_game G.Game.game0 1 in
  let evaded = run_game (G.Game.game1 Yali.Obfuscation.Evader.ollvm) 1 in
  Alcotest.(check bool)
    (Printf.sprintf "game1-ollvm (%.2f) < game0 (%.2f)" evaded base)
    true (evaded < base)

let test_game2_restores () =
  (* §4.3: knowledge of the obfuscator restores near-game0 accuracy *)
  let g1 = run_game (G.Game.game1 Yali.Obfuscation.Evader.ollvm) 2 in
  let g2 = run_game (G.Game.game2 Yali.Obfuscation.Evader.ollvm) 2 in
  Alcotest.(check bool)
    (Printf.sprintf "game2 (%.2f) > game1 (%.2f)" g2 g1)
    true (g2 > g1)

let test_game3_normalization_kills_source_tricks () =
  (* §4.4: O3 normalization reverts Zhang-style source obfuscation *)
  let g1 = run_game (G.Game.game1 Yali.Obfuscation.Evader.rs) 3 in
  let g3 = run_game (G.Game.game3 Yali.Obfuscation.Evader.rs) 3 in
  Alcotest.(check bool)
    (Printf.sprintf "game3-rs (%.2f) ≥ game1-rs (%.2f) - 0.05" g3 g1)
    true
    (g3 >= g1 -. 0.05)

let test_bcf_resists_normalization () =
  (* §4.4: bogus control flow survives the O3 normalizer — the normalized
     challenge still carries the opaque-predicate machinery *)
  let p = dataset_program 42 in
  let m_plain = Yali.Transforms.Pipeline.o3 (lower p) in
  let m_bcf =
    Yali.Transforms.Pipeline.o3
      (Yali.Obfuscation.Bcf.run ~probability:1.0 (Rng.make 1) (lower p))
  in
  Alcotest.(check bool) "bcf code stays bigger after O3" true
    (Yali.Ir.Irmod.instr_count m_bcf > Yali.Ir.Irmod.instr_count m_plain)

let test_drlsg_dissolves_under_ssa () =
  (* §4.3/§4.4: SSA conversion plus optimization reverts most of drlsg's
     effect — the O3-normalized evaded program sits far closer (in histogram
     space) to the O3'd original than the un-normalized one does *)
  let p = dataset_program 55 in
  let h_plain = E.Histogram.of_module (Yali.Transforms.Pipeline.o3 (lower p)) in
  let evaded = lower (Yali.Obfuscation.Strategies.drlsg (Rng.make 5) p) in
  let d_raw =
    E.Histogram.euclidean
      (E.Histogram.of_module (lower p))
      (E.Histogram.of_module evaded)
  in
  let d_norm =
    E.Histogram.euclidean h_plain
      (E.Histogram.of_module (Yali.Transforms.Pipeline.o3 evaded))
  in
  Alcotest.(check bool)
    (Printf.sprintf "normalized distance %.1f < raw distance %.1f" d_norm d_raw)
    true (d_norm < d_raw)

let test_histogram_distance_ranking () =
  (* Figure 10: ollvm and O3 move histograms further than fla/sub do *)
  let avg_distance (e : Yali.Obfuscation.Evader.t) =
    let ds =
      List.init 10 (fun k ->
          let p = dataset_program (k * 13) in
          let h0 = E.Histogram.of_module (lower p) in
          let h1 = E.Histogram.of_module (e.apply (Rng.make k) p) in
          E.Histogram.euclidean h0 h1)
    in
    List.fold_left ( +. ) 0.0 ds /. 10.0
  in
  let d_ollvm = avg_distance Yali.Obfuscation.Evader.ollvm in
  let d_fla = avg_distance Yali.Obfuscation.Evader.fla in
  Alcotest.(check bool)
    (Printf.sprintf "ollvm (%.1f) moves further than fla (%.1f)" d_ollvm d_fla)
    true (d_ollvm > d_fla)

let test_optimizer_vs_obfuscator_speed () =
  (* §4.6: optimized code is faster than obfuscated code, always *)
  let name, prog = List.nth Yali.Dataset.Benchgame.all 2 in
  ignore name;
  let m0 = lower prog in
  let o0 = Yali.Ir.Interp.run ~fuel:40_000_000 m0 [] in
  let o3 = Yali.Ir.Interp.run ~fuel:40_000_000 (Yali.Transforms.Pipeline.o3 m0) [] in
  let obf =
    Yali.Ir.Interp.run ~fuel:200_000_000
      (Yali.Obfuscation.Ollvm.run (Rng.make 1) m0)
      []
  in
  Alcotest.(check bool) "O3 faster than O0" true (o3.cost < o0.cost);
  Alcotest.(check bool) "ollvm slower than O0" true (obf.cost > o0.cost)

let test_full_cli_style_pipeline () =
  (* parse → obfuscate → optimize → classify smoke chain via the umbrella
     API, as a user of the library would write it *)
  let src = "int main() { int n = read_int(); int s = 0; for (int k = 0; k < n; k = k + 1) { s = s + k * k; } print_int(s); return s; }" in
  let m = Yali.compile ~optimize:Yali.Transforms.Pipeline.O2 src in
  let out = Yali.run m [ 5L ] in
  Alcotest.(check bool) "0+1+4+9+16 = 30" true
    (out.output = [ 30L ])

(* The built [yali] binary: a bad command line exits 2 whether cmdliner
   (an unknown option or command, an ill-typed value, a missing file) or
   a flag check rejects it, and [--help] exits 0.  A rejected
   [corpus gen] leaves no [--out] directory behind. *)
let test_cli_exit_codes () =
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat Filename.parent_dir_name "bin/yali_cli.exe")
  in
  let exit_code args =
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid =
      Unix.create_process exe (Array.of_list (exe :: args)) null null null
    in
    Unix.close null;
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | _ -> Alcotest.failf "%s killed by a signal" (String.concat " " args)
  in
  let missing = Filename.concat (Sys.getcwd ()) "no-such-program.c" in
  List.iter
    (fun (args, want) ->
      Alcotest.(check int) (String.concat " " args) want (exit_code args))
    [
      ([ "adapt"; "--budget"; "x" ], 2);
      ([ "adapt"; "--bogus" ], 2);
      ([ "run"; missing ], 2);
      ([ "no-such-command" ], 2);
      ([ "adapt"; "--lambda"; "-1" ], 2);
      ([ "adapt"; "--lambda=-1" ], 2);
      ([ "play"; "--threshold"; "nan" ], 2);
      ([ "play"; "--threshold=-1" ], 2);
      ([ "--help=plain" ], 0);
    ];
  Yali.Util.Fs.with_temp_dir "cli-test" (fun dir ->
      (* every program runs on the VM: no command takes --engine *)
      let prog = Filename.concat dir "p.c" in
      Out_channel.with_open_text prog (fun oc ->
          output_string oc "int main() { return 0; }");
      List.iter
        (fun (args, want) ->
          Alcotest.(check int) (String.concat " " args) want (exit_code args))
        [
          ([ "run"; prog ], 0);
          ([ "run"; "--engine"; "native"; prog ], 2);
          ([ "run"; "--engine=ref"; prog ], 2);
          ([ "check"; "--engine=vm"; "--per-pass=0" ], 2);
        ];
      let out = Filename.concat dir "corpus" in
      List.iter
        (fun flag ->
          let args = [ "corpus"; "gen"; flag; "--out"; out ] in
          Alcotest.(check int) (String.concat " " args) 2 (exit_code args);
          Alcotest.(check bool) "no --out directory" false
            (Sys.file_exists out))
        [ "--per-class=0"; "--per-class=-1"; "--records-per-shard=0" ];
      (* version 0 names no loadable file, and the metadata stores a u32:
         both are refused before training *)
      let reg = Filename.concat dir "reg" in
      List.iter
        (fun flag ->
          let args = [ "train"; flag; "--registry"; reg ] in
          Alcotest.(check int) (String.concat " " args) 2 (exit_code args);
          let written =
            match Sys.readdir reg with
            | exception Sys_error _ -> []
            | files ->
                List.filter
                  (fun f -> Filename.check_suffix f ".ymdl")
                  (Array.to_list files)
          in
          Alcotest.(check (list string)) "no .ymdl written" [] written)
        [ "--version=0"; "--version=-3"; "--version=4294967296" ])

let suite =
  [
    Alcotest.test_case "game1: ollvm hurts" `Slow test_game1_ollvm_hurts;
    Alcotest.test_case "game2: knowledge restores" `Slow test_game2_restores;
    Alcotest.test_case "game3: normalization beats source tricks" `Slow
      test_game3_normalization_kills_source_tricks;
    Alcotest.test_case "bcf resists O3" `Quick test_bcf_resists_normalization;
    Alcotest.test_case "drlsg dissolves under SSA" `Slow
      test_drlsg_dissolves_under_ssa;
    Alcotest.test_case "fig10 distance ranking" `Slow test_histogram_distance_ranking;
    Alcotest.test_case "optimizer vs obfuscator speed" `Slow
      test_optimizer_vs_obfuscator_speed;
    Alcotest.test_case "umbrella API pipeline" `Quick test_full_cli_style_pipeline;
    Alcotest.test_case "cli exit codes" `Quick test_cli_exit_codes;
  ]
