(** The figure harness: regenerates every table and figure of the paper's
    evaluation (Figures 5-16) on the synthetic corpus, plus a Bechamel
    micro-benchmark suite for the framework's own moving parts.

    Usage:
      dune exec bench/main.exe                 # all figures
      dune exec bench/main.exe -- fig8 fig13   # selected figures
      dune exec bench/main.exe -- --quick all  # smaller workloads
      dune exec bench/main.exe -- micro        # bechamel suite
      dune exec bench/main.exe -- kernels      # Fmat vs pre-rewrite kernels
      dune exec bench/main.exe -- interp       # VM vs reference interpreter
      dune exec bench/main.exe -- serve        # classification daemon under
                                               #   load -> BENCH_serve.json
      dune exec bench/main.exe -- corpus       # paper-scale streaming corpus
                                               #   + out-of-core training under
                                               #   an RSS cap (--rss-cap-mb N,
                                               #   default 2048); --quick drops
                                               #   104x500 to 104x50
                                               #   -> BENCH_corpus.json
      dune exec bench/main.exe -- nn           # kernelized minibatch neural
                                               #   trainers vs the frozen
                                               #   naive reference: speedup
                                               #   gate + bit-identity
                                               #   -> BENCH_nn.json

    Execution-runtime knobs (lib/exec):
      --engine vm|ref (or --engine=E)          # which execution engine the
                                               #   figures run on (lib/vm
                                               #   switchboard; default vm,
                                               #   outcomes are bit-identical)
      --jobs N (or --jobs=N, or YALI_JOBS)     # worker domains; default
                                               #   Domain.recommended_domain_count
      --telemetry out.json (or --telemetry=F)  # dump the runtime's JSON report:
                                               #   tasks, steals, cache hit
                                               #   rates, per-phase wall time
      --json BENCH_quick.json (or --json=F)    # machine-readable run summary
                                               #   (per-target wall seconds);
                                               #   CI uploads these as the
                                               #   perf-trajectory artifact
    Results are bit-identical at any --jobs setting: per-task RNG streams
    are pre-derived and the caches only memoise pure functions.

    Workloads are scaled down from the paper's (which take ~19 days); the
    shapes — who wins, by what factor, where the crossovers are — are the
    reproduction target.  See EXPERIMENTS.md for the recorded outputs. *)

module Rng = Yali.Rng
module E = Yali.Embeddings
module Ml = Yali.Ml
module G = Yali.Games
module Ob = Yali.Obfuscation
module Ir = Yali.Ir

let quick = ref false
let rounds_override = ref None

let scale n = if !quick then max 1 (n / 2) else n
let rounds default = Option.value !rounds_override ~default

let header fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') s (String.make 78 '='))
    fmt

let mean_std xs = (Ml.Metrics.mean xs, Ml.Metrics.stddev xs)

(* ------------------------------------------------------------------ *)
(* shared machinery                                                    *)
(* ------------------------------------------------------------------ *)

(* materialize (embedded) datasets once per setup and reuse across models;
   embeddings land directly in flat feature matrices — no intermediate
   row-array dataset is ever built *)
type prepared = {
  xs_train : Ml.Fmat.t;
  ys_train : int array;
  xs_test : Ml.Fmat.t;
  ys_test : int array;
}

let prepare (rng : Rng.t) (setup : G.Game.setup) (embedding : E.Embedding.t)
    (split : Yali.Dataset.Poj.split) : prepared =
  let train_mods, test_mods = G.Arena.build_modules rng setup split in
  let embed mods =
    Ml.Fmat.parallel_of_fn ~n:(Array.length mods) (fun i ->
        E.Embedding.to_flat embedding (fst mods.(i)))
  in
  {
    xs_train = embed train_mods;
    ys_train = Array.map snd train_mods;
    xs_test = embed test_mods;
    ys_test = Array.map snd test_mods;
  }

let eval_model (rng : Rng.t) ~(n_classes : int) (model : Ml.Model.flat)
    (p : prepared) : float * float * int =
  let trained = model.ftrain rng ~n_classes p.xs_train p.ys_train in
  let pred = trained.predict_batch p.xs_test in
  let acc = Ml.Metrics.accuracy p.ys_test pred in
  let f1 =
    Ml.Metrics.macro_f1 (Ml.Metrics.confusion ~n_classes p.ys_test pred)
  in
  (acc, f1, trained.size_bytes)

let evaders_of_fig8 () : Ob.Evader.t list =
  [ Ob.Evader.o3; Ob.Evader.ollvm; Ob.Evader.bcf; Ob.Evader.fla;
    Ob.Evader.sub; Ob.Evader.rs; Ob.Evader.mcmc; Ob.Evader.drlsg ]

(* ------------------------------------------------------------------ *)
(* Figure 5: embeddings on Game0, 32 classes, neural model             *)
(* ------------------------------------------------------------------ *)

(* per-embedding fig5 results for the --json summary: name, accuracy
   mean/std, and train throughput (training rows per wall second through
   the batched neural trainer, mean over rounds) *)
let fig5_results : (string * float * float * float) list ref = ref []

let fig5 () =
  header "Figure 5: program embeddings on Game0 (32 classes, dgcnn/cnn)";
  let n_classes = 32 in
  let r = rounds 2 in
  Printf.printf "rounds=%d, train/class=%d, test/class=%d\n\n" r (scale 10)
    (scale 4);
  Printf.printf "%-14s %8s %8s %12s\n" "embedding" "mean" "std" "train-rows/s";
  List.iter
    (fun (e : E.Embedding.t) ->
      let results =
        List.init r (fun round ->
            let rng = Rng.make (1000 + round) in
            let split =
              Yali.Dataset.Poj.make ~shuffle_classes:true rng ~n_classes
                ~train_per_class:(scale 10) ~test_per_class:(scale 4)
            in
            G.Arena.run_neural (Rng.split rng) ~n_classes e G.Game.game0 split)
      in
      let accs = List.map (fun (res : G.Arena.result) -> res.accuracy) results in
      let rows_s =
        List.map
          (fun (res : G.Arena.result) ->
            float_of_int res.n_train /. Float.max res.train_seconds 1e-9)
          results
      in
      let m, s = mean_std accs in
      let tput = Ml.Metrics.mean rows_s in
      fig5_results := (e.name, m, s, tput) :: !fig5_results;
      Printf.printf "%-14s %8.4f %8.4f %12.1f\n%!" e.name m s tput)
    E.Embedding.all

(* ------------------------------------------------------------------ *)
(* Figure 6: embeddings on Games 1-3 (ollvm evader, O3 normalizer)     *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  header "Figure 6: embeddings on Games 1, 2, 3 (32 classes, ollvm evader)";
  let n_classes = 32 in
  let r = rounds 2 in
  let games =
    [
      ("game1", G.Game.game1 Ob.Evader.ollvm);
      ("game2", G.Game.game2 Ob.Evader.ollvm);
      ("game3", G.Game.game3 Ob.Evader.ollvm);
    ]
  in
  (* materialise the (expensively evaded) modules once per game and round,
     then share them across all nine embeddings *)
  let prepared =
    List.map
      (fun (gname, setup) ->
        ( gname,
          List.init r (fun round ->
              let rng = Rng.make (2000 + round) in
              let split =
                Yali.Dataset.Poj.make ~shuffle_classes:true rng ~n_classes
                  ~train_per_class:(scale 8) ~test_per_class:(scale 3)
              in
              let rng' = Rng.split rng in
              (G.Arena.build_modules (Rng.split rng') setup split, rng')) ))
      games
  in
  let eval_cell (e : E.Embedding.t) ((train_mods, test_mods), rng) =
    let rng = Rng.copy rng in
    if E.Embedding.is_flat e then begin
      let embed mods =
        Ml.Fmat.parallel_of_fn ~n:(Array.length mods) (fun i ->
            E.Embedding.to_flat e (fst mods.(i)))
      in
      let xs = embed train_mods in
      let ys = Array.map snd train_mods in
      let trained = Ml.Model.cnn.ftrain (Rng.split rng) ~n_classes xs ys in
      Ml.Metrics.accuracy (Array.map snd test_mods)
        (trained.predict_batch (embed test_mods))
    end
    else begin
      let embed m = E.Embedding.to_graph e m in
      let graphs = Array.map (fun (m, _) -> embed m) train_mods in
      let ys = Array.map snd train_mods in
      let feat_dim =
        if Array.length graphs = 0 then 1 else graphs.(0).E.Graph.feat_dim
      in
      let trained =
        Ml.Model.dgcnn.gtrain (Rng.split rng) ~n_classes ~feat_dim graphs ys
      in
      Ml.Metrics.accuracy (Array.map snd test_mods)
        (Array.map (fun (m, _) -> trained.gpredict (embed m)) test_mods)
    end
  in
  Printf.printf "%-14s %10s %10s %10s\n" "embedding" "game1" "game2" "game3";
  List.iter
    (fun (e : E.Embedding.t) ->
      Printf.printf "%-14s" e.name;
      List.iter
        (fun (_, per_round) ->
          let accs = List.map (eval_cell e) per_round in
          Printf.printf " %10.4f%!" (fst (mean_std accs)))
        prepared;
      print_newline ())
    E.Embedding.all

(* ------------------------------------------------------------------ *)
(* Figure 7: six models on Game0, 104 classes, histogram; + memory     *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  header "Figure 7: models on Game0 (104 classes, histogram embedding)";
  let n_classes = 104 in
  let r = rounds 3 in
  Printf.printf "rounds=%d, train/class=%d, test/class=%d\n\n" r (scale 20)
    (scale 5);
  Printf.printf "%-6s %8s %8s %12s %10s\n" "model" "acc" "std" "memory(KB)"
    "train(s)";
  List.iter
    (fun (model : Ml.Model.flat) ->
      let results =
        List.init r (fun round ->
            let rng = Rng.make (3000 + round) in
            let split =
              Yali.Dataset.Poj.make rng ~n_classes ~train_per_class:(scale 20)
                ~test_per_class:(scale 5)
            in
            let p = prepare (Rng.split rng) G.Game.game0 E.Embedding.histogram split in
            let t0 = Yali.Exec.Telemetry.clock () in
            let acc, _, bytes = eval_model (Rng.split rng) ~n_classes model p in
            (acc, bytes, Yali.Exec.Telemetry.clock () -. t0))
      in
      let accs = List.map (fun (a, _, _) -> a) results in
      let m, s = mean_std accs in
      let bytes = List.fold_left (fun a (_, b, _) -> max a b) 0 results in
      let time = Ml.Metrics.mean (List.map (fun (_, _, t) -> t) results) in
      Printf.printf "%-6s %8.4f %8.4f %12d %10.2f\n%!" model.fname m s
        (bytes / 1024) time)
    Ml.Model.all_flat

(* ------------------------------------------------------------------ *)
(* Figures 8, 9, 11: evaders x models on Games 1, 2, 3                 *)
(* ------------------------------------------------------------------ *)

let evader_model_grid ~(fig : string) ~(mk_setup : Ob.Evader.t -> G.Game.setup)
    ~(baseline_setup : G.Game.setup) () =
  let n_classes = scale 24 in
  let r = rounds 2 in
  let models = Ml.Model.all_flat in
  Printf.printf "rounds=%d, classes=%d, train/class=%d, test/class=%d\n\n" r
    n_classes (scale 10) (scale 4);
  Printf.printf "%-9s" "evader";
  List.iter (fun (m : Ml.Model.flat) -> Printf.printf " %8s" m.fname) models;
  print_newline ();
  let row name setup =
    Printf.printf "%-9s" name;
    (* prepare once per round, share across the six models *)
    let preps =
      List.init r (fun round ->
          let rng = Rng.make (Hashtbl.hash (fig, name, round)) in
          let split =
            Yali.Dataset.Poj.make rng ~n_classes ~train_per_class:(scale 10)
              ~test_per_class:(scale 4)
          in
          (prepare (Rng.split rng) setup E.Embedding.histogram split, Rng.split rng))
    in
    List.iter
      (fun (model : Ml.Model.flat) ->
        let accs =
          List.map
            (fun (p, rng) ->
              let acc, _, _ = eval_model (Rng.copy rng) ~n_classes model p in
              acc)
            preps
        in
        Printf.printf " %8.4f%!" (fst (mean_std accs)))
      models;
    print_newline ()
  in
  row "baseline" baseline_setup;
  List.iter (fun (e : Ob.Evader.t) -> row e.ename (mk_setup e)) (evaders_of_fig8 ())

let fig8 () =
  header "Figure 8: Game1 — evaders vs. unaware classifiers (histogram)";
  evader_model_grid ~fig:"fig8" ~mk_setup:G.Game.game1
    ~baseline_setup:G.Game.game0 ()

let fig9 () =
  header "Figure 9: Game2 — classifier knows the transformation";
  evader_model_grid ~fig:"fig9" ~mk_setup:G.Game.game2
    ~baseline_setup:G.Game.game0 ()

let fig11 () =
  header "Figure 11: Game3 — classifier normalizes with -O3";
  evader_model_grid ~fig:"fig11" ~mk_setup:G.Game.game3
    ~baseline_setup:(G.Game.game3 Ob.Evader.none) ()

(* ------------------------------------------------------------------ *)
(* Figure 10: histogram distance original vs. transformed              *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  header "Figure 10: Euclidean distance between original and transformed histograms";
  let n_programs = scale 40 in
  Printf.printf "programs=%d (one per class, cycling)\n\n" n_programs;
  Printf.printf "%-9s %10s %10s %10s\n" "evader" "mean" "q1" "q3";
  List.iter
    (fun (e : Ob.Evader.t) ->
      let ds =
        List.init n_programs (fun k ->
            let p = (Yali.Dataset.Genprog.nth (k mod 104)).generate (Rng.make k) in
            let h0 = E.Histogram.of_module (Yali.lower p) in
            let h1 = E.Histogram.of_module (e.apply (Rng.make (k + 7)) p) in
            E.Histogram.euclidean h0 h1)
      in
      let bp = Ml.Metrics.boxplot ds in
      Printf.printf "%-9s %10.2f %10.2f %10.2f\n%!" e.ename bp.bp_mean bp.q1
        bp.q3)
    (Ob.Evader.none :: evaders_of_fig8 ())

(* ------------------------------------------------------------------ *)
(* Figure 12: accuracy and F1 vs. number of classes                    *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  header "Figure 12: Game0 accuracy & F1 vs. class count (histogram)";
  let r = rounds 3 in
  Printf.printf "%-8s" "classes";
  List.iter
    (fun (m : Ml.Model.flat) -> Printf.printf " %8s-acc %8s-f1" m.fname m.fname)
    [ Ml.Model.rf; Ml.Model.knn; Ml.Model.mlp ];
  print_newline ();
  List.iter
    (fun n_classes ->
      Printf.printf "%-8d" n_classes;
      List.iter
        (fun (model : Ml.Model.flat) ->
          let accs, f1s =
            List.split
              (List.init r (fun round ->
                   let rng = Rng.make (4000 + (n_classes * 10) + round) in
                   let split =
                     Yali.Dataset.Poj.make rng ~n_classes
                       ~train_per_class:(scale 16) ~test_per_class:(scale 5)
                   in
                   let p =
                     prepare (Rng.split rng) G.Game.game0 E.Embedding.histogram
                       split
                   in
                   let acc, f1, _ = eval_model (Rng.split rng) ~n_classes model p in
                   (acc, f1)))
          in
          Printf.printf " %12.4f %11.4f%!" (fst (mean_std accs))
            (fst (mean_std f1s)))
        [ Ml.Model.rf; Ml.Model.knn; Ml.Model.mlp ];
      print_newline ())
    [ 4; 8; 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* Figure 13: runtime of optimized and obfuscated programs             *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  header "Figure 13: relative runtime (cost model), 16 benchmark-game kernels";
  Printf.printf "%-12s %12s %10s %10s\n" "kernel" "O0-cost" "O3" "ollvm";
  let speedups = ref [] and slowdowns = ref [] in
  List.iter
    (fun (name, m0) ->
      let base = Yali.Execution.run ~fuel:100_000_000 m0 [] in
      let o3 =
        Yali.Execution.run ~fuel:100_000_000 (Yali.Transforms.Pipeline.o3 m0) []
      in
      let obf =
        Yali.Execution.run ~fuel:1_000_000_000 (Ob.Ollvm.run (Rng.make 13) m0) []
      in
      let rel c = float_of_int c /. float_of_int base.cost in
      speedups := 1.0 /. rel o3.cost :: !speedups;
      slowdowns := rel obf.cost :: !slowdowns;
      Printf.printf "%-12s %12d %9.2fx %9.2fx\n%!" name base.cost (rel o3.cost)
        (rel obf.cost))
    (Yali.Dataset.Benchgame.modules ());
  let geomean xs =
    exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))
  in
  Printf.printf "\ngeomean O3 speedup: %.2fx   geomean ollvm slowdown: %.2fx\n"
    (geomean !speedups) (geomean !slowdowns)

(* ------------------------------------------------------------------ *)
(* Figure 14: detecting the obfuscator                                 *)
(* ------------------------------------------------------------------ *)

let fig14 () =
  header "Figure 14: obfuscator detection on four dataset regimes (10 classes)";
  let r = rounds 2 in
  Printf.printf "%-10s %8s %8s\n" "dataset" "mean" "std";
  List.iter
    (fun kind ->
      let accs =
        List.init r (fun round ->
            (G.Discover.run ~per_transformer:(scale 30)
               (Rng.make (5000 + round))
               kind)
              .accuracy)
      in
      let m, s = mean_std accs in
      Printf.printf "%-10s %8.4f %8.4f\n%!" (G.Discover.dataset_name kind) m s)
    [ G.Discover.Dataset1; G.Discover.Dataset2; G.Discover.Dataset3;
      G.Discover.Dataset4 ]

(* ------------------------------------------------------------------ *)
(* Figure 15: malware identifiers vs. training-set growth              *)
(* ------------------------------------------------------------------ *)

let fig15 () =
  header "Figure 15: MIRAI identifiers vs. growing training sets";
  List.iter
    (fun (mname, model) ->
      Printf.printf "\n%s:\n" mname;
      Printf.printf "%-8s %8s %10s\n" "suites" "n_train" "accuracy";
      let points =
        G.Malware.run ~seed_n:(scale 12) ~challenge_n:(scale 6) (Rng.make 6)
          model
      in
      List.iter
        (fun (pt : G.Malware.curve_point) ->
          Printf.printf "%-8d %8d %10.4f\n" pt.training_sets pt.n_train
            pt.total_accuracy)
        points;
      let last = List.nth points (List.length points - 1) in
      Printf.printf "full training set, per challenge transformer:\n";
      List.iter
        (fun (c : G.Malware.challenge_result) ->
          Printf.printf "  %-4s %d/%d\n" c.tname c.hits c.n_challenges)
        last.per_challenge)
    [ ("rf", Ml.Model.rf); ("cnn", Ml.Model.cnn) ]

(* ------------------------------------------------------------------ *)
(* Figure 16: signature AV vs. retrained rf                            *)
(* ------------------------------------------------------------------ *)

let fig16 () =
  header "Figure 16: best signature AV vs. retrained rf, per transformer";
  let rng = Rng.make 16 in
  let lower = Yali.lower in
  let n_corpus = scale 16 in
  let av =
    G.Antivirus.build (Rng.split rng)
      ~malware:
        (List.init n_corpus (fun _ ->
             lower (Yali.Dataset.Mirai.generate_malware (Rng.split rng))))
      ~benign:
        (List.init n_corpus (fun _ ->
             lower (Yali.Dataset.Mirai.generate_benign (Rng.split rng))))
  in
  let curve =
    G.Malware.run ~seed_n:(scale 12) ~challenge_n:(scale 6) (Rng.make 6)
      Ml.Model.rf
  in
  let rf_full = List.nth curve (List.length curve - 1) in
  Printf.printf "%-10s" "query";
  List.iter
    (fun (t : G.Malware.transformer) -> Printf.printf " %7s" t.tname)
    G.Malware.transformers;
  print_newline ();
  let av_row title pick =
    Printf.printf "%-10s" title;
    List.iter
      (fun (t : G.Malware.transformer) ->
        let challenges =
          List.init (scale 6) (fun k ->
              ( t.tx (Rng.split rng)
                  (lower (Yali.Dataset.Mirai.generate_malware (Rng.make (700 + k)))),
                1 ))
          @ List.init (scale 6) (fun k ->
                ( t.tx (Rng.split rng)
                    (lower (Yali.Dataset.Mirai.generate_benign (Rng.make (770 + k)))),
                  0 ))
        in
        let is_malw, is_mirai = G.Antivirus.best_accuracy av challenges in
        Printf.printf " %7.2f" (pick (is_malw, is_mirai)))
      G.Malware.transformers;
    print_newline ()
  in
  av_row "is-malw" fst;
  av_row "is-mirai" snd;
  Printf.printf "%-10s" "rf(full)";
  List.iter
    (fun (c : G.Malware.challenge_result) ->
      Printf.printf " %7.2f"
        (float_of_int c.hits /. float_of_int c.n_challenges))
    rf_full.per_challenge;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "Micro-benchmarks (Bechamel): framework building blocks";
  let open Bechamel in
  let program = (Yali.Dataset.Genprog.nth 4).generate (Rng.make 1) in
  let m0 = Yali.lower program in
  let tests =
    [
      Test.make ~name:"lower" (Staged.stage (fun () -> ignore (Yali.lower program)));
      Test.make ~name:"histogram-embed" (Staged.stage (fun () ->
           ignore (E.Histogram.of_module m0)));
      Test.make ~name:"milepost-embed" (Staged.stage (fun () ->
           ignore (E.Milepost.of_module m0)));
      Test.make ~name:"ir2vec-embed" (Staged.stage (fun () ->
           ignore (E.Ir2vec.of_module m0)));
      Test.make ~name:"cfg-embed" (Staged.stage (fun () ->
           ignore (E.Graphs.cfg m0)));
      Test.make ~name:"programl-embed" (Staged.stage (fun () ->
           ignore (E.Graphs.programl m0)));
      Test.make ~name:"O3-pipeline" (Staged.stage (fun () ->
           ignore (Yali.Transforms.Pipeline.o3 m0)));
      Test.make ~name:"ollvm-evader" (Staged.stage (fun () ->
           ignore (Ob.Ollvm.run (Rng.make 3) m0)));
      Test.make ~name:"sub-evader" (Staged.stage (fun () ->
           ignore (Ob.Sub.run (Rng.make 3) m0)));
      Test.make ~name:"fla-evader" (Staged.stage (fun () ->
           ignore (Ob.Fla.run (Rng.make 3) m0)));
      Test.make ~name:"interp-run" (Staged.stage (fun () ->
           ignore (Ir.Interp.run ~fuel:1_000_000 m0 [ 5L; 9L; 2L ])));
      Test.make ~name:"vm-compile" (Staged.stage (fun () ->
           ignore (Yali.Vm.compile m0)));
      (let p = Yali.Vm.compile m0 in
       Test.make ~name:"vm-run" (Staged.stage (fun () ->
           ignore (Yali.Vm.run_compiled ~fuel:1_000_000 p [ 5L; 9L; 2L ]))));
    ]
  in
  List.iter
    (fun t ->
      let instances = [ Toolkit.Instance.monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
      let results = Benchmark.all cfg instances t in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "%-28s %14.1f ns/run\n%!" name est
          | _ -> Printf.printf "%-28s (no estimate)\n%!" name)
        results)
    tests


(* ------------------------------------------------------------------ *)
(* Kernel micro-benchmarks: the Fmat layer vs the pre-rewrite code     *)
(* ------------------------------------------------------------------ *)

(* recorded for the "kernels" section of the --json summary *)
let kernel_results :
    (string * float * float * (string * string) list) list ref =
  ref []

let best_of ~(reps : int) (f : unit -> unit) : float =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Yali.Exec.Telemetry.clock () in
    f ();
    let t = Yali.Exec.Telemetry.clock () -. t0 in
    if t < !best then best := t
  done;
  !best

let record_kernel name ref_s new_s extras =
  kernel_results := (name, ref_s, new_s, extras) :: !kernel_results;
  Printf.printf "%-16s %12.4f %12.4f %9.2fx" name ref_s new_s (ref_s /. new_s);
  List.iter (fun (k, v) -> Printf.printf "  %s=%s" k v) extras;
  Printf.printf "\n%!"

(** Before/after numbers for the numeric-kernel layer (DESIGN.md §8):
    forest/tree training (histogram vs per-node sort splits), k-NN
    prediction (blocked norms+dot vs per-row subtract-square), the raw
    distance sweep, and the tiled vs naive matmul.  "Reference" is the
    frozen pre-rewrite code in [Yali.Ml.Reference]. *)
let kernels () =
  header "Kernel benchmarks: frozen pre-rewrite reference vs Fmat kernels";
  let reps = 3 in
  let n_train = scale 1600 and n_test = scale 400 in
  let d = 64 and n_classes = 16 in
  Printf.printf "train=%d test=%d d=%d classes=%d (best of %d)\n\n" n_train
    n_test d n_classes reps;
  Printf.printf "%-16s %12s %12s %9s\n" "kernel" "ref(s)" "fmat(s)" "speedup";
  (* quantized count features — the shape of histogram embeddings, and the
     regime the tree's 256-bucket histogram path is built for *)
  let gen_counts seed n =
    let rng = Rng.make seed in
    let xs = Array.init n (fun _ -> Array.make d 0.0) in
    let ys = Array.make n 0 in
    for i = 0 to n - 1 do
      let cls = Rng.int rng n_classes in
      ys.(i) <- cls;
      for j = 0 to d - 1 do
        let bump = if j mod n_classes = cls then 20 else 0 in
        xs.(i).(j) <- float_of_int (Rng.int rng 24 + bump)
      done
    done;
    (xs, ys)
  in
  (* continuous features for the distance kernels (no exact-tie noise) *)
  let gen_gauss seed n =
    let rng = Rng.make seed in
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
  in
  let xs_tr, ys_tr = gen_counts 11 n_train in
  let xs_te, _ = gen_counts 12 n_test in
  let fm_tr = Ml.Fmat.of_rows xs_tr and fm_te = Ml.Fmat.of_rows xs_te in

  (* random-forest training *)
  let n_trees = scale 32 in
  let ref_forest = ref None and new_forest = ref None in
  let t_ref =
    best_of ~reps (fun () ->
        ref_forest :=
          Some
            (Ml.Reference.Random_forest.train
               ~params:{ Ml.Reference.Random_forest.n_trees; max_depth = 24 }
               (Rng.make 42) ~n_classes xs_tr ys_tr))
  in
  let t_new =
    best_of ~reps (fun () ->
        new_forest :=
          Some
            (Ml.Random_forest.train
               ~params:{ Ml.Random_forest.n_trees; max_depth = 24 }
               (Rng.make 42) ~n_classes (Ml.Fblock.Mem fm_tr) ys_tr))
  in
  let ref_pred =
    Array.map (Ml.Reference.Random_forest.predict (Option.get !ref_forest)) xs_te
  in
  let new_pred = Ml.Random_forest.predict_batch (Option.get !new_forest) fm_te in
  record_kernel "rf-train" t_ref t_new
    [ ("predictions_match", string_of_bool (ref_pred = new_pred)) ];

  (* single-tree split finding, all features considered *)
  let t_ref =
    best_of ~reps (fun () ->
        ignore (Ml.Reference.Decision_tree.train (Rng.make 5) ~n_classes xs_tr ys_tr))
  in
  let t_new =
    best_of ~reps (fun () ->
        ignore (Ml.Decision_tree.train (Rng.make 5) ~n_classes fm_tr ys_tr))
  in
  record_kernel "tree-splits" t_ref t_new [];

  (* k-NN prediction *)
  let kxs_tr, kys_tr = gen_gauss 21 n_train in
  let kxs_te, _ = gen_gauss 22 n_test in
  let kfm_tr = Ml.Fmat.of_rows kxs_tr and kfm_te = Ml.Fmat.of_rows kxs_te in
  let ref_knn = Ml.Reference.Knn.train ~n_classes kxs_tr kys_tr in
  let new_knn = Ml.Knn.train ~n_classes kfm_tr kys_tr in
  let rpred = ref [||] and npred = ref [||] in
  let t_ref =
    best_of ~reps (fun () ->
        rpred := Array.map (Ml.Reference.Knn.predict ref_knn) kxs_te)
  in
  let t_new =
    best_of ~reps (fun () -> npred := Ml.Knn.predict_batch new_knn kfm_te)
  in
  record_kernel "knn-predict" t_ref t_new
    [ ("predictions_match", string_of_bool (!rpred = !npred)) ];

  (* the raw distance sweep: subtract-square rows vs norms + dot over the
     contiguous matrix *)
  let q = kxs_te.(0) in
  let norms = Array.init n_train (Ml.Fmat.sq_norm_row kfm_tr) in
  let out_ref = Array.make n_train 0.0 and out_new = Array.make n_train 0.0 in
  let t_ref =
    best_of ~reps (fun () ->
        for i = 0 to n_train - 1 do
          let row = kxs_tr.(i) in
          let acc = ref 0.0 in
          for j = 0 to d - 1 do
            let dv = q.(j) -. row.(j) in
            acc := !acc +. (dv *. dv)
          done;
          out_ref.(i) <- !acc
        done)
  in
  let qn =
    let acc = ref 0.0 in
    Array.iter (fun v -> acc := !acc +. (v *. v)) q;
    !acc
  in
  let t_new =
    best_of ~reps (fun () ->
        for i = 0 to n_train - 1 do
          out_new.(i) <-
            qn -. (2.0 *. Ml.Fmat.dot_row_vec kfm_tr i q) +. norms.(i)
        done)
  in
  let max_diff = ref 0.0 in
  for i = 0 to n_train - 1 do
    max_diff := Float.max !max_diff (Float.abs (out_ref.(i) -. out_new.(i)))
  done;
  record_kernel "distance-sweep" t_ref t_new
    [ ("max_abs_diff", Printf.sprintf "%.2e" !max_diff) ];

  (* matmul: naive i-k-j vs cache-tiled *)
  let msize = scale 256 in
  let a = Ml.Matrix.random (Rng.make 1) msize msize ~scale:1.0 in
  let b = Ml.Matrix.random (Rng.make 2) msize msize ~scale:1.0 in
  let c_ref = ref (Ml.Matrix.create 0 0) and c_new = ref (Ml.Matrix.create 0 0) in
  let t_ref = best_of ~reps (fun () -> c_ref := Ml.Matrix.matmul_naive a b) in
  let t_new = best_of ~reps (fun () -> c_new := Ml.Matrix.matmul a b) in
  let flops = 2.0 *. float_of_int (msize * msize * msize) in
  record_kernel "matmul" t_ref t_new
    [
      ("gflops_ref", Printf.sprintf "%.2f" (flops /. t_ref /. 1e9));
      ("gflops_fmat", Printf.sprintf "%.2f" (flops /. t_new /. 1e9));
      ("bit_identical", string_of_bool ((!c_ref).data = (!c_new).data));
    ]

(* ------------------------------------------------------------------ *)
(* Execution-engine benchmarks: reference interpreter vs the VM        *)
(* ------------------------------------------------------------------ *)

(* recorded for the "vm" section of the --json summary *)
let vm_results : (string * float * float * (string * string) list) list ref =
  ref []

(* per-engine compile-vs-run wall-second splits, one entry per
   (workload, engine), recorded by whichever engine benchmarks ran *)
let engine_splits : (string * string * float * float) list ref = ref []

let record_split ~workload ~engine ~compile_s ~run_s =
  engine_splits := (workload, engine, compile_s, run_s) :: !engine_splits

let record_vm name ref_s vm_s extras =
  vm_results := (name, ref_s, vm_s, extras) :: !vm_results;
  Printf.printf "%-10s %12.4f %12.4f %9.2fx" name ref_s vm_s (ref_s /. vm_s);
  List.iter (fun (k, v) -> Printf.printf "  %s=%s" k v) extras;
  Printf.printf "\n%!"

(** Before/after numbers for the execution engines (DESIGN.md §10).  Two
    workloads, two regimes:
    - "kernels": raw interpretation throughput — the sixteen benchmark-game
      kernels, millions of dynamic steps each, compile amortized (the
      figure-13 / benchgame regime, reported as dynamic MIPS);
    - "corpus": the validation shape — a fixed seeded corpus of generated
      programs, each compiled once and probed on many input vectors (what
      one check deep-tier validation looks like; compile time is
      inside the measured region).
    "Reference" is the frozen tree-walking interpreter. *)
(* Interleave the two engines' timed passes within each rep, so a phase of
   machine load (CI neighbours, thermal throttling) lands on both engines
   rather than skewing the ratio; each side still reports its best rep. *)
let best_pair ~(reps : int) (f : unit -> unit) (g : unit -> unit) :
    float * float =
  let bf = ref infinity in
  let bg = ref infinity in
  for _ = 1 to reps do
    f ();
    (* untimed: refill caches/branch predictor after the other engine *)
    let t0 = Yali.Exec.Telemetry.clock () in
    f ();
    let t1 = Yali.Exec.Telemetry.clock () in
    g ();
    (* untimed, same reason *)
    let t2 = Yali.Exec.Telemetry.clock () in
    g ();
    let t3 = Yali.Exec.Telemetry.clock () in
    if t1 -. t0 < !bf then bf := t1 -. t0;
    if t3 -. t2 < !bg then bg := t3 -. t2
  done;
  (!bf, !bg)

let interp () =
  header "Engine benchmarks: frozen reference interpreter vs pre-compiling VM";
  let reps = 5 in
  Printf.printf "(best of %d, interleaved)\n\n" reps;
  Printf.printf "%-10s %12s %12s %9s\n" "workload" "ref(s)" "vm(s)" "speedup";

  (* raw throughput on the benchmark-game kernels *)
  let mods = Yali.Dataset.Benchgame.modules () in
  let fuel = 100_000_000 in
  let steps =
    List.fold_left (fun a (_, m) -> a + (Ir.Interp.run ~fuel m []).steps) 0 mods
  in
  let t_compile =
    best_of ~reps (fun () ->
        List.iter (fun (_, m) -> ignore (Yali.Vm.compile m)) mods)
  in
  let compiled = List.map (fun (n, m) -> (n, Yali.Vm.compile m)) mods in
  let t_ref, t_vm =
    best_pair ~reps
      (fun () ->
        List.iter (fun (_, m) -> ignore (Ir.Interp.run ~fuel m [])) mods)
      (fun () ->
        List.iter
          (fun (_, p) -> ignore (Yali.Vm.run_compiled ~fuel p []))
          compiled)
  in
  let mips t = float_of_int steps /. t /. 1e6 in
  record_vm "kernels" t_ref t_vm
    [
      ("dynamic_steps", string_of_int steps);
      ("mips_ref", Printf.sprintf "%.1f" (mips t_ref));
      ("mips_vm", Printf.sprintf "%.1f" (mips t_vm));
      ("compile_seconds", Printf.sprintf "%.4f" t_compile);
    ];
  record_split ~workload:"kernels" ~engine:"ref" ~compile_s:0.0 ~run_s:t_ref;
  record_split ~workload:"kernels" ~engine:"vm" ~compile_s:t_compile
    ~run_s:t_vm;

  (* the validation shape: seeded corpus, compile once, many inputs *)
  let n_progs = scale 64 in
  let n_inputs = 32 in
  let corpus_fuel = 200_000 in
  let rng = Rng.make 42 in
  let corpus =
    List.init n_progs (fun k ->
        Yali.lower (Yali.Check.Gen.program (Rng.split_ix rng k)))
  in
  let inputs =
    List.init n_inputs (fun i ->
        List.init 32 (fun j ->
            Int64.of_int ((((i * 53) + (j * 17)) mod 2001) - 1000)))
  in
  let execs = n_progs * n_inputs in
  let run_all prepare =
    List.iter
      (fun m ->
        let run1 = prepare m in
        List.iter (fun input -> ignore (run1 ~fuel:corpus_fuel input)) inputs)
      corpus
  in
  let t_ref, t_vm =
    best_pair ~reps
      (fun () -> run_all (Yali.Execution.prepare ~engine:Yali.Execution.Ref))
      (fun () -> run_all (Yali.Execution.prepare ~engine:Yali.Execution.Vm))
  in
  record_vm "corpus" t_ref t_vm
    [
      ("programs", string_of_int n_progs);
      ("execs", string_of_int execs);
      ("execs_per_s_ref", Printf.sprintf "%.0f" (float_of_int execs /. t_ref));
      ("execs_per_s_vm", Printf.sprintf "%.0f" (float_of_int execs /. t_vm));
      ("programs_per_s_ref",
       Printf.sprintf "%.1f" (float_of_int n_progs /. t_ref));
      ("programs_per_s_vm",
       Printf.sprintf "%.1f" (float_of_int n_progs /. t_vm));
    ];
  Printf.printf
    "\nmemory images allocated: %d interpreter + %d vm (pooled per domain \
     and reused across every run above)\n"
    (Ir.Arena.created Ir.Interp.arena)
    (Yali.Vm.arenas_created ())

(* ------------------------------------------------------------------ *)
(* Serving benchmark: the classification daemon under synthetic load   *)
(* ------------------------------------------------------------------ *)

let serve_json = "BENCH_serve.json"

(* Hidden daemon mode: [serve] and [adapt_bench] below re-exec this binary
   with this flag (socket and registry dir as the two operands, plus an
   optional model spec — default rf) instead of forking. *)
let serve_daemon_flag = "--serve-daemon"

let serve_daemon () =
  let cfg =
    {
      Yali.Serve.Server.socket = Sys.argv.(2);
      registry_dir = Sys.argv.(3);
      model_spec = (if Array.length Sys.argv > 4 then Sys.argv.(4) else "rf");
      queue_cap = 256;
      max_batch = 64;
      log = ignore;
    }
  in
  match Yali.Serve.Server.run cfg with
  | Ok () -> exit 0
  | Error msg ->
      Printf.eprintf "daemon: %s\n%!" msg;
      exit 1

(** End-to-end daemon benchmark (DESIGN.md §11): train and publish a
    snapshot, launch a daemon child on a Unix socket, replay corpus
    programs from concurrent client connections, and record sustained
    throughput, latency quantiles, the batch-size histogram, reply
    determinism, and whether SIGTERM shuts the daemon down cleanly.
    Written to [BENCH_serve.json]; exits nonzero when determinism or the
    clean shutdown fails (CI's serve smoke gate). *)
let serve () =
  header "Serving: daemon throughput/latency under concurrent clients";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "yali-serve-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
  let registry = Filename.concat dir "models" in
  let socket = Filename.concat dir "yali.sock" in
  let n_classes = 8 in
  let entry =
    match
      Yali.Serve.Registry.train ~seed:42 ~embedding:E.Embedding.histogram
        ~kind:"rf" ~n_classes ~per_class:(scale 10)
    with
    | Ok e -> e
    | Error msg -> failwith msg
  in
  let version, _ =
    Yali.Serve.Registry.publish ~dir:registry ~meta:entry.meta entry.snapshot
  in
  Printf.printf "model: rf@%d (histogram, %d classes, dim %d, %d rows)\n%!"
    version n_classes entry.meta.dim entry.meta.n_train;
  (* launch the daemon as a re-exec of this binary in the hidden
     [serve_daemon_flag] mode: [Unix.fork] is forbidden once the pool has
     ever spawned a domain (training above does, at --jobs > 1), while
     [create_process] goes through [posix_spawn] and stays legal *)
  flush stdout;
  flush stderr;
  let child =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; serve_daemon_flag; socket; registry |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let rec await_socket tries =
    if Sys.file_exists socket then ()
    else if tries = 0 then failwith "daemon socket never appeared"
    else begin
      Unix.sleepf 0.05;
      await_socket (tries - 1)
    end
  in
  await_socket 100;
  let cfg =
    {
      Yali.Serve.Traffic.socket;
      clients = 16;
      requests = scale 400;
      seed = 7;
      n_classes;
      per_class = 3;
      log = prerr_endline;
    }
  in
  let r = Yali.Serve.Traffic.run cfg in
  Printf.printf
    "classified %d requests in %.2fs: %.0f programs/s, p50 %dus, p99 %dus\n"
    r.t_classified r.t_seconds r.t_throughput r.t_p50_us r.t_p99_us;
  Printf.printf "busy replies %d, errors %d, deterministic %b\n" r.t_busy
    r.t_errors r.t_deterministic;
  Printf.printf "batch sizes:";
  List.iter (fun (s, c) -> Printf.printf " %dx%d" s c) r.t_batch_hist;
  print_newline ();
  let server_stats =
    let c = Yali.Serve.Client.connect socket in
    Fun.protect
      ~finally:(fun () -> Yali.Serve.Client.close c)
      (fun () ->
        match Yali.Serve.Client.stats c with Ok j -> j | Error e -> failwith e)
  in
  (* clean SIGTERM shutdown is part of the contract *)
  Unix.kill child Sys.sigterm;
  let _, status = Unix.waitpid [] child in
  let clean = status = Unix.WEXITED 0 in
  Printf.printf "daemon SIGTERM shutdown: %s\n"
    (if clean then "clean (exit 0)" else "UNCLEAN");
  let oc = open_out serve_json in
  Printf.fprintf oc
    "{\n  \"model\": \"rf@%d\",\n  \"classes\": %d,\n  \"clients\": %d,\n\
    \  \"traffic\": %s,\n  \"server\": %s,\n  \"clean_shutdown\": %b\n}\n"
    version n_classes cfg.clients
    (Yali.Serve.Traffic.result_to_json r)
    server_stats clean;
  close_out oc;
  Printf.printf "serving summary written to %s\n" serve_json;
  let failed =
    (not clean) || (not r.t_deterministic) || r.t_errors > 0
    || r.t_classified < cfg.requests
  in
  if failed then begin
    Printf.eprintf "serve benchmark FAILED\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Corpus benchmark: paper-scale streaming generation and out-of-core  *)
(* training under a fixed memory cap (DESIGN.md §12)                   *)
(* ------------------------------------------------------------------ *)

let corpus_json = "BENCH_corpus.json"
let rss_cap_mb = ref 2048.0

(* Peak resident set (VmHWM) in MiB from /proc/self/status; 0.0 where the
   proc filesystem is unavailable (the gate is then skipped). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> 0.0
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:"
                then
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %d" (fun kb -> float_of_int kb /. 1024.0)
                else go ()
          in
          go ())

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

(** The paper-scale tier: generate the full 104-class corpus straight to a
    sharded on-disk store, embed it into an out-of-core feature file, and
    train lr + rf with each model's one trainer, streamed from the file in
    4096-row blocks and from memory as one block — the streamed models must
    hold accuracy within 2 points of the in-memory ones on a held-out
    corpus, and the whole run must fit the
    RSS cap (--rss-cap-mb, default 2048).  [--quick] drops to 104x50.
    Written to [BENCH_corpus.json]; exits nonzero when a gate fails (CI's
    paper-scale smoke). *)
let corpus_bench () =
  let per_class = if !quick then 50 else 500 in
  header "Corpus: paper-scale streaming pipeline (104x%d, cap %.0f MiB)"
    per_class !rss_cap_mb;
  let tmp =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "yali-corpus-bench-%d" (Unix.getpid ()))
  in
  let train_dir = Filename.concat tmp "train" in
  let test_dir = Filename.concat tmp "test" in
  if not (Sys.file_exists tmp) then Sys.mkdir tmp 0o700;
  let spec =
    { Yali.Corpus.Gen.dataset = "poj"; seed = 42; n_classes = 104; per_class }
  in
  let test_spec =
    { spec with Yali.Corpus.Gen.seed = 43;
      per_class = (if !quick then 5 else 20) }
  in
  let clock = Yali.Exec.Telemetry.clock in
  Fun.protect
    ~finally:(fun () ->
      rm_rf train_dir;
      rm_rf test_dir;
      rm_rf tmp)
    (fun () ->
      let t0 = clock () in
      Yali.Corpus.Gen.generate ~dir:train_dir spec;
      let t_gen = clock () -. t0 in
      let r = Yali.Corpus.Store.open_ train_dir in
      let n = Yali.Corpus.Store.length r in
      let gen_rate = float_of_int n /. t_gen in
      let corpus_mib =
        float_of_int (Yali.Corpus.Store.total_bytes r) /. (1024.0 *. 1024.0)
      in
      Printf.printf
        "generated %d programs in %.1fs (%.0f programs/s, %d shards, %.1f MiB)\n%!"
        n t_gen gen_rate
        (Yali.Corpus.Store.shard_count r)
        corpus_mib;
      let feat = Filename.concat tmp "features.yfmb" in
      let t0 = clock () in
      let d =
        Yali.Corpus.Embed.to_file ~embedding:E.Embedding.histogram r ~out:feat
      in
      let t_embed = clock () -. t0 in
      let embed_rate = float_of_int n /. t_embed in
      Printf.printf "embedded %d rows (dim %d) in %.1fs (%.0f rows/s)\n%!" n d
        t_embed embed_rate;
      Yali.Corpus.Gen.generate ~dir:test_dir test_spec;
      let rt = Yali.Corpus.Store.open_ test_dir in
      let tx, tys = Yali.Corpus.Embed.to_fmat ~embedding:E.Embedding.histogram rt in
      Yali.Corpus.Store.close rt;
      Printf.printf "held-out corpus: %d programs at seed %d\n%!"
        (Array.length tys) test_spec.Yali.Corpus.Gen.seed;
      let ys = Yali.Corpus.Store.labels r in
      let n_classes = Yali.Corpus.Store.n_classes r in
      let accuracy snap =
        let t = Ml.Model.restore snap in
        let preds = t.Ml.Model.predict_batch tx in
        let ok = ref 0 in
        Array.iteri (fun i p -> if p = tys.(i) then incr ok) preds;
        float_of_int !ok /. float_of_int (Array.length tys)
      in
      let results =
        List.map
          (fun kind ->
            let fr = Ml.Fblock.open_reader feat in
            let t0 = clock () in
            let snap_stream =
              Option.get
                (Ml.Model.train_snapshot ~block_rows:4096 kind (Rng.make 7)
                   ~n_classes (Ml.Fblock.Disk fr) ys)
            in
            let t_stream = clock () -. t0 in
            let x = Ml.Fblock.materialize (Ml.Fblock.Disk fr) in
            Ml.Fblock.close_reader fr;
            let t0 = clock () in
            let snap_mem =
              Option.get
                (Ml.Model.train_snapshot kind (Rng.make 7) ~n_classes
                   (Ml.Fblock.Mem x) ys)
            in
            let t_mem = clock () -. t0 in
            let a_s = accuracy snap_stream and a_m = accuracy snap_mem in
            Printf.printf
              "%-4s stream %6.1fs acc %.3f | in-memory %6.1fs acc %.3f\n%!"
              kind t_stream a_s t_mem a_m;
            (kind, t_stream, a_s, t_mem, a_m))
          [ "lr"; "rf" ]
      in
      Yali.Corpus.Store.close r;
      Sys.remove feat;
      let rss = peak_rss_mb () in
      let acc_ok =
        List.for_all (fun (_, _, a_s, _, a_m) -> a_m -. a_s <= 0.02) results
      in
      let rss_ok = rss = 0.0 || rss <= !rss_cap_mb in
      Printf.printf "peak RSS %.0f MiB (cap %.0f): %s\n" rss !rss_cap_mb
        (if rss_ok then "ok" else "OVER CAP");
      let oc = open_out corpus_json in
      Printf.fprintf oc "{\n  \"quick\": %b,\n  \"jobs\": %d,\n" !quick
        (Yali.Exec.Pool.get_jobs ());
      Printf.fprintf oc "  \"spec\": \"%s\",\n  \"programs\": %d,\n"
        (Yali.Corpus.Gen.spec_to_string spec)
        n;
      Printf.fprintf oc "  \"corpus_mib\": %.1f,\n  \"dim\": %d,\n" corpus_mib d;
      Printf.fprintf oc
        "  \"gen_seconds\": %.2f,\n  \"gen_programs_per_s\": %.1f,\n" t_gen
        gen_rate;
      Printf.fprintf oc
        "  \"embed_seconds\": %.2f,\n  \"embed_rows_per_s\": %.1f,\n" t_embed
        embed_rate;
      Printf.fprintf oc "  \"models\": [\n";
      List.iteri
        (fun i (kind, t_s, a_s, t_m, a_m) ->
          Printf.fprintf oc
            "    {\"kind\": \"%s\", \"stream_seconds\": %.2f, \
             \"stream_accuracy\": %.4f, \"inmem_seconds\": %.2f, \
             \"inmem_accuracy\": %.4f}%s\n"
            kind t_s a_s t_m a_m
            (if i = List.length results - 1 then "" else ","))
        results;
      Printf.fprintf oc "  ],\n";
      Printf.fprintf oc
        "  \"peak_rss_mb\": %.1f,\n  \"rss_cap_mb\": %.1f,\n  \"pass\": %b\n}\n"
        rss !rss_cap_mb (acc_ok && rss_ok);
      close_out oc;
      Printf.printf "corpus summary written to %s\n" corpus_json;
      if not (acc_ok && rss_ok) then begin
        Printf.eprintf "corpus benchmark FAILED (accuracy %s, rss %s)\n"
          (if acc_ok then "ok" else "dropped >2 points")
          (if rss_ok then "ok" else "over cap");
        exit 1
      end)

(* ------------------------------------------------------------------ *)
(* Adaptive evaders: cost-priced Pareto fronts (DESIGN.md §14)         *)
(* ------------------------------------------------------------------ *)

let adapt_json = "BENCH_adapt.json"

(** Adaptive-evader benchmark: run the classifier-in-the-loop search for
    each default model kind, emit the per-classifier Pareto fronts
    (evasion rate vs cost multiplier), and prove the [--via-serve] path by
    re-running the identical searches against daemon children — the two
    reports must be bit-identical.  Written to [BENCH_adapt.json]; exits
    nonzero when a front is too thin (< 3 points on < 2 classifiers) or
    the via-serve report diverges (CI's adapt gate). *)
let adapt_bench () =
  header "Adaptive evaders: classifier-in-the-loop search, Pareto fronts";
  let module D = Yali.Adapt.Driver in
  let module Fit = Yali.Adapt.Fitness in
  let cfg =
    {
      D.default with
      a_train_per_class = scale 10;
      a_budget = (if !quick then 32 else 96);
      a_challenges_per_class = (if !quick then 2 else 3);
    }
  in
  let t0 = Yali.Exec.Telemetry.clock () in
  let prep = D.prepare ~log:print_endline cfg in
  let report = D.search_fronts ~log:print_endline cfg prep in
  let t_search = Yali.Exec.Telemetry.clock () -. t0 in
  List.iter
    (fun (f : D.model_front) ->
      Printf.printf "%-5s front:" f.mf_kind;
      List.iter
        (fun (p : Yali.Adapt.Pareto.point) ->
          Printf.printf "  (%.2fx, %.2f)" p.p_cost p.p_evasion)
        f.mf_front;
      print_newline ())
    report.r_fronts;
  (* the via-serve proof: publish the prepared snapshots, spawn one daemon
     child per kind (re-exec via the hidden flag: [fork] is forbidden once
     the pool has spawned a domain), re-run the identical searches with
     margins answered over the socket *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "yali-adapt-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
  let registry = Filename.concat dir "models" in
  let dim =
    Array.length
      (E.Embedding.to_flat D.embedding prep.p_challenges.(0).Fit.ch_module)
  in
  List.iter
    (fun (kind, snapshot) ->
      let meta =
        {
          Yali.Serve.Registry.kind;
          version = 0;
          embedding = D.embedding.name;
          n_classes = cfg.a_classes;
          dim;
          n_train = prep.p_n_train;
          seed = cfg.a_seed;
          source = "adapt:prepared";
        }
      in
      ignore (Yali.Serve.Registry.publish ~dir:registry ~meta snapshot))
    prep.p_snapshots;
  flush stdout;
  flush stderr;
  let daemons =
    List.map
      (fun (kind, _) ->
        let socket = Filename.concat dir (kind ^ ".sock") in
        let pid =
          Unix.create_process Sys.executable_name
            [| Sys.executable_name; serve_daemon_flag; socket; registry; kind |]
            Unix.stdin Unix.stdout Unix.stderr
        in
        (kind, socket, pid))
      prep.p_snapshots
  in
  let t1 = Yali.Exec.Telemetry.clock () in
  let identical, t_serve =
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun (_, _, pid) ->
            (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
          daemons)
      (fun () ->
        let rec await socket tries =
          if Sys.file_exists socket then ()
          else if tries = 0 then failwith "adapt daemon socket never appeared"
          else begin
            Unix.sleepf 0.05;
            await socket (tries - 1)
          end
        in
        let remotes =
          List.map
            (fun (kind, socket, _) ->
              await socket 200;
              (kind, Yali.Adapt.Remote.connect ~socket))
            daemons
        in
        Fun.protect
          ~finally:(fun () ->
            List.iter (fun (_, r) -> Yali.Adapt.Remote.close r) remotes)
          (fun () ->
            let report' =
              D.search_fronts
                ~oracle_for:(fun kind ->
                  Option.map Yali.Adapt.Remote.oracle
                    (List.assoc_opt kind remotes))
                cfg prep
            in
            ( D.reports_identical report report',
              Yali.Exec.Telemetry.clock () -. t1 )))
  in
  Printf.printf "search %.2fs in-process, %.2fs via serve\n" t_search t_serve;
  Printf.printf "via-serve report bit-identical: %b\n" identical;
  let rich_fronts =
    List.length
      (List.filter
         (fun (f : D.model_front) -> List.length f.mf_front >= 3)
         report.r_fronts)
  in
  let pass = identical && rich_fronts >= 2 in
  let oc = open_out adapt_json in
  Printf.fprintf oc "{\n  \"quick\": %b,\n  \"jobs\": %d,\n" !quick
    (Yali.Exec.Pool.get_jobs ());
  Printf.fprintf oc
    "  \"search_seconds\": %.2f,\n  \"serve_seconds\": %.2f,\n\
    \  \"via_serve_identical\": %b,\n  \"report\": %s,\n  \"pass\": %b\n}\n"
    t_search t_serve identical
    (String.trim (D.report_to_json cfg report))
    pass;
  close_out oc;
  Printf.printf "adapt summary written to %s\n" adapt_json;
  if not pass then begin
    Printf.eprintf "adapt benchmark FAILED (%s)\n"
      (if not identical then "via-serve report diverged"
       else "fewer than 2 classifiers with a 3-point front");
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Neural-tier benchmark: kernelized minibatch trainers vs reference   *)
(* ------------------------------------------------------------------ *)

let nn_json = "BENCH_nn.json"

(* bit-level weight-dump equality: the contract is bit-identity, so
   compare IEEE bits rather than trusting polymorphic [=] on floats *)
let dump_eq (a : float array array) (b : float array array) : bool =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri
    (fun i ra ->
      let rb = b.(i) in
      if Array.length ra <> Array.length rb then ok := false
      else
        Array.iteri
          (fun j v ->
            if Int64.bits_of_float v <> Int64.bits_of_float rb.(j) then
              ok := false)
          ra)
    a;
  !ok

(* gaussian blobs, the flat shape the Fig 5 cnn path trains on *)
let nn_blobs (rng : Rng.t) ~(n_classes : int) ~(n : int) ~(d : int) :
    Ml.Fmat.t * int array =
  let ys = Array.init n (fun i -> i mod n_classes) in
  let rows =
    Array.init n (fun i ->
        Array.init d (fun k ->
            Rng.gaussian rng +. if k = ys.(i) then 6.0 else 0.0))
  in
  (Ml.Fmat.of_rows rows, ys)

let nn_chain_graph ~(n : int) ~(flavor : int) : E.Graph.t =
  let feats =
    Array.init n (fun k ->
        Array.init 4 (fun j ->
            if (k + j + flavor) mod 2 = 0 then 1.0 else 0.0))
  in
  let edges = List.init (n - 1) (fun k -> (k, k + 1, E.Graph.Control)) in
  { E.Graph.node_feats = feats; edges; feat_dim = 4 }

(** The neural tier (DESIGN.md §15): the kernelized minibatch trainers
    against the frozen naive reference in [Ml.Reference], on the same
    synthetic shapes the differential tests pin.  Reports wall seconds,
    speedup, and training throughput; re-checks the bit-identity contract
    (kernel = reference, --jobs 1 = --jobs 4) on the benchmark workload
    itself.  Written to [BENCH_nn.json]; exits nonzero
    when the cnn lands below the 5x-over-reference gate or any identity
    check fails. *)
(* interleaved best-of-[reps] timing: both sides see the same cache and
   allocator state, and taking the minimum strips scheduler noise (the
   same idiom as the engine benchmark) *)
let best_pair ~reps f g =
  let clock = Yali.Exec.Telemetry.clock in
  let bf = ref infinity and bg = ref infinity in
  for _ = 1 to reps do
    let t0 = clock () in
    f ();
    bf := Float.min !bf (clock () -. t0);
    let t0 = clock () in
    g ();
    bg := Float.min !bg (clock () -. t0)
  done;
  (!bf, !bg)

let nn_bench () =
  header "Neural tier: minibatch Fmat kernels vs the frozen naive trainer";
  let clock = Yali.Exec.Telemetry.clock in

  (* cnn: flat gaussian blobs, wide enough that the matmuls dominate (the
     shape regime Fig 5's feature vectors live in) *)
  let d = 256 and n_classes = 8 in
  let n = scale 256 in
  let params = { Ml.Cnn.default_params with epochs = 2 } in
  let x, ys = nn_blobs (Rng.make 7) ~n_classes ~n ~d in
  Printf.printf
    "cnn: %d rows x %d features, %d classes, %d epochs, batch %d\n%!" n d
    n_classes params.Ml.Cnn.epochs params.Ml.Cnn.batch;

  (* the gated measurement: one minibatch SGD step of the kernel, exactly
     as [Cnn.train] invokes it ([~need_dx:false]), against the frozen
     per-sample reference on the same net and batch.  Weights are pinned at
     their init ([lr = 0] still runs every update pass) so each repetition
     times the identical step. *)
  let m = params.Ml.Cnn.batch in
  let xb = Ml.Fmat.create m d in
  Array.blit x.Ml.Fmat.data 0 xb.Ml.Fmat.data 0 (m * d);
  let yb = Array.init m (fun i -> ys.(i)) in
  let step_net = Ml.Cnn.build_net (Rng.make 17) ~d_in:d ~n_classes in
  let step_netr = Ml.Cnn.build_net (Rng.make 17) ~d_in:d ~n_classes in
  let krng = Rng.make 19 and nrng = Rng.make 19 in
  let inner = scale 10 in
  let t_sker, t_sref =
    best_pair ~reps:5
      (fun () ->
        for _ = 1 to inner do
          ignore
            (Ml.Nn.train_batch ~need_dx:false ~lr:0.0 ~rng:krng step_net xb
               yb)
        done)
      (fun () ->
        for _ = 1 to inner do
          ignore (Ml.Reference.Nnb.train_batch ~lr:0.0 ~rng:nrng step_netr xb yb)
        done)
  in
  let t_sker = t_sker /. float_of_int inner
  and t_sref = t_sref /. float_of_int inner in
  let step_speedup = t_sref /. t_sker in
  Printf.printf
    "  step kernel (batch %d): reference %.2fms   kernel %.2fms   speedup \
     %.2fx\n"
    m (t_sref *. 1e3) (t_sker *. 1e3) step_speedup;

  (* end-to-end training (real lr schedule), which is also where the
     bit-identity contract is re-checked on the benchmark workload *)
  let ref_cnn = ref None and ker_cnn = ref None in
  let t_ref, t_ker =
    best_pair ~reps:2
      (fun () ->
        ref_cnn :=
          Some (Ml.Reference.Cnn.train ~params (Rng.make 11) ~n_classes x ys))
      (fun () ->
        ker_cnn :=
          Some
            (Ml.Cnn.train ~params (Rng.make 11) ~n_classes (Ml.Fblock.Mem x)
               ys))
  in
  let ref_cnn = Option.get !ref_cnn and ker_cnn = Option.get !ker_cnn in
  let weights_ok =
    dump_eq (Ml.Cnn.dump_weights ref_cnn) (Ml.Cnn.dump_weights ker_cnn)
  in
  let cnn_at jobs =
    Yali.Exec.Pool.with_jobs jobs (fun () ->
        Ml.Cnn.dump_weights
          (Ml.Cnn.train ~params (Rng.make 11) ~n_classes (Ml.Fblock.Mem x) ys))
  in
  let jobs_ok = dump_eq (cnn_at 1) (cnn_at 4) in
  let speedup = t_ref /. t_ker in
  let row_visits = float_of_int (n * params.Ml.Cnn.epochs) in
  let rows_s = row_visits /. t_ker in
  Printf.printf
    "  full train: reference %.3fs   kernel %.3fs   speedup %.2fx   %.0f \
     rows/s\n"
    t_ref t_ker speedup rows_s;
  Printf.printf
    "  weights bit-identical: %b   jobs-invariant (1 vs 4): %b\n\n%!"
    weights_ok jobs_ok;

  (* dgcnn: two-class chain graphs (the shape the differential tests pin) *)
  let gn = scale 96 in
  let grng = Rng.make 21 in
  let graphs =
    Array.init gn (fun i ->
        if i mod 2 = 0 then nn_chain_graph ~n:(4 + Rng.int grng 3) ~flavor:0
        else nn_chain_graph ~n:(9 + Rng.int grng 3) ~flavor:1)
  in
  let gys = Array.init gn (fun i -> i mod 2) in
  let gparams = { Ml.Dgcnn.default_params with epochs = 2 } in
  Printf.printf "dgcnn: %d graphs, 2 classes, %d epochs, batch %d\n%!" gn
    gparams.Ml.Dgcnn.epochs gparams.Ml.Dgcnn.batch;
  let t0 = clock () in
  let ref_g =
    Ml.Reference.Dgcnn.train ~params:gparams (Rng.make 31) ~n_classes:2
      ~feat_dim:4 graphs gys
  in
  let t_gref = clock () -. t0 in
  let t0 = clock () in
  let ker_g =
    Ml.Dgcnn.train ~params:gparams (Rng.make 31) ~n_classes:2 ~feat_dim:4
      graphs gys
  in
  let t_gker = clock () -. t0 in
  let gweights_ok =
    dump_eq (Ml.Dgcnn.dump_weights ref_g) (Ml.Dgcnn.dump_weights ker_g)
  in
  let dgcnn_at jobs =
    Yali.Exec.Pool.with_jobs jobs (fun () ->
        Ml.Dgcnn.dump_weights
          (Ml.Dgcnn.train ~params:gparams (Rng.make 31) ~n_classes:2
             ~feat_dim:4 graphs gys))
  in
  let gjobs_ok = dump_eq (dgcnn_at 1) (dgcnn_at 4) in
  let gspeedup = t_gref /. t_gker in
  let graphs_s = float_of_int (gn * gparams.Ml.Dgcnn.epochs) /. t_gker in
  Printf.printf "  reference %.3fs   kernel %.3fs   speedup %.2fx   %.0f graphs/s\n"
    t_gref t_gker gspeedup graphs_s;
  Printf.printf "  weights bit-identical: %b   jobs-invariant (1 vs 4): %b\n%!"
    gweights_ok gjobs_ok;

  let identical = weights_ok && jobs_ok && gweights_ok && gjobs_ok in
  let pass = step_speedup >= 5.0 && identical in
  let oc = open_out nn_json in
  Printf.fprintf oc "{\n  \"quick\": %b,\n  \"jobs\": %d,\n" !quick
    (Yali.Exec.Pool.get_jobs ());
  Printf.fprintf oc
    "  \"cnn\": {\"rows\": %d, \"dim\": %d, \"classes\": %d, \"epochs\": %d, \
     \"batch\": %d, \"step_reference_seconds\": %.5f, \
     \"step_kernel_seconds\": %.5f, \"step_speedup\": %.2f, \
     \"train_reference_seconds\": %.4f, \"train_kernel_seconds\": %.4f, \
     \"train_speedup\": %.2f, \"train_rows_per_s\": %.0f, \
     \"weights_identical\": %b, \"jobs_invariant\": %b},\n"
    n d n_classes params.Ml.Cnn.epochs m t_sref t_sker step_speedup t_ref
    t_ker speedup rows_s weights_ok jobs_ok;
  Printf.fprintf oc
    "  \"dgcnn\": {\"graphs\": %d, \"epochs\": %d, \"reference_seconds\": \
     %.4f, \"kernel_seconds\": %.4f, \"speedup\": %.2f, \
     \"train_graphs_per_s\": %.0f, \"weights_identical\": %b, \
     \"jobs_invariant\": %b},\n"
    gn gparams.Ml.Dgcnn.epochs t_gref t_gker gspeedup graphs_s gweights_ok
    gjobs_ok;
  Printf.fprintf oc "  \"pass\": %b\n}\n" pass;
  close_out oc;
  Printf.printf "nn summary written to %s\n" nn_json;
  if not pass then begin
    Printf.eprintf "nn benchmark FAILED (%s)\n"
      (if not identical then "weights diverged from the frozen reference"
       else
         Printf.sprintf "cnn step speedup %.2fx < 5x over reference"
           step_speedup);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Ablations: design choices called out in DESIGN.md                   *)
(* ------------------------------------------------------------------ *)

(* Which optimization level suffices as a Game3 normalizer? *)
let abl_normalizer () =
  header "Ablation: normalizer strength in Game3 (O1 vs O2 vs O3, rf, histogram)";
  let n_classes = scale 16 in
  let evaders = [ Ob.Evader.sub; Ob.Evader.fla; Ob.Evader.bcf; Ob.Evader.rs; Ob.Evader.drlsg ] in
  let levels =
    [ ("O1", Yali.Transforms.Pipeline.o1); ("O2", Yali.Transforms.Pipeline.o2);
      ("O3", Yali.Transforms.Pipeline.o3) ]
  in
  Printf.printf "%-8s" "evader";
  List.iter (fun (n, _) -> Printf.printf " %8s" n) levels;
  print_newline ();
  List.iter
    (fun (e : Ob.Evader.t) ->
      Printf.printf "%-8s" e.ename;
      List.iter
        (fun (_, normalizer) ->
          let rng = Rng.make (Hashtbl.hash ("abl-n", e.ename)) in
          let split =
            Yali.Dataset.Poj.make rng ~n_classes ~train_per_class:(scale 12)
              ~test_per_class:(scale 4)
          in
          let setup = G.Game.game3 ~normalizer e in
          let p = prepare (Rng.split rng) setup E.Embedding.histogram split in
          let acc, _, _ = eval_model (Rng.split rng) ~n_classes Ml.Model.rf p in
          Printf.printf " %8.4f%!" acc)
        levels;
      print_newline ())
    evaders

(* How much does each extra substitution round buy the evader? *)
let abl_sub_rounds () =
  header "Ablation: instruction-substitution rounds (distance + Game1 rf accuracy)";
  let n_classes = scale 16 in
  Printf.printf "%-8s %10s %10s %10s\n" "rounds" "distance" "size-ratio" "game1-acc";
  List.iter
    (fun rounds ->
      let ds, ratios =
        List.split
          (List.init (scale 30) (fun k ->
               let p = (Yali.Dataset.Genprog.nth (k mod 104)).generate (Rng.make k) in
               let m0 = Yali.lower p in
               let m1 = Ob.Sub.run ~rounds (Rng.make (k + 3)) m0 in
               ( E.Histogram.euclidean (E.Histogram.of_module m0)
                   (E.Histogram.of_module m1),
                 float_of_int (Ir.Irmod.instr_count m1)
                 /. float_of_int (Ir.Irmod.instr_count m0) )))
      in
      let evader =
        {
          Ob.Evader.ename = Printf.sprintf "sub%d" rounds;
          apply = (fun rng p -> Ob.Sub.run ~rounds rng (Yali.lower p));
        }
      in
      let rng = Rng.make (6000 + rounds) in
      let split =
        Yali.Dataset.Poj.make rng ~n_classes ~train_per_class:(scale 12)
          ~test_per_class:(scale 4)
      in
      let p = prepare (Rng.split rng) (G.Game.game1 evader) E.Embedding.histogram split in
      let acc, _, _ = eval_model (Rng.split rng) ~n_classes Ml.Model.rf p in
      Printf.printf "%-8d %10.2f %10.2f %10.4f\n%!" rounds
        (Ml.Metrics.mean ds) (Ml.Metrics.mean ratios) acc)
    [ 1; 2; 3; 4 ]

(* How does bogus-control-flow density trade runtime for evasion? *)
let abl_bcf_probability () =
  header "Ablation: bcf block-selection probability (distance, slowdown, Game1 acc)";
  let n_classes = scale 16 in
  Printf.printf "%-8s %10s %10s %10s\n" "prob" "distance" "slowdown" "game1-acc";
  List.iter
    (fun prob ->
      let ds, slows =
        List.split
          (List.init (scale 20) (fun k ->
               let p = (Yali.Dataset.Genprog.nth ((k * 3) mod 104)).generate (Rng.make k) in
               let m0 = Yali.lower p in
               let m1 = Ob.Bcf.run ~probability:prob (Rng.make (k + 5)) m0 in
               let input = List.init 32 (fun j -> Int64.of_int ((j * 37) mod 200)) in
               let c0 = (Yali.Execution.run ~fuel:8_000_000 m0 input).cost in
               let c1 = (Yali.Execution.run ~fuel:80_000_000 m1 input).cost in
               ( E.Histogram.euclidean (E.Histogram.of_module m0)
                   (E.Histogram.of_module m1),
                 float_of_int c1 /. float_of_int c0 )))
      in
      let evader =
        {
          Ob.Evader.ename = Printf.sprintf "bcf%.2f" prob;
          apply = (fun rng p -> Ob.Bcf.run ~probability:prob rng (Yali.lower p));
        }
      in
      let rng = Rng.make (Hashtbl.hash ("abl-bcf", prob)) in
      let split =
        Yali.Dataset.Poj.make rng ~n_classes ~train_per_class:(scale 12)
          ~test_per_class:(scale 4)
      in
      let p = prepare (Rng.split rng) (G.Game.game1 evader) E.Embedding.histogram split in
      let acc, _, _ = eval_model (Rng.split rng) ~n_classes Ml.Model.rf p in
      Printf.printf "%-8.2f %10.2f %10.2f %10.4f\n%!" prob (Ml.Metrics.mean ds)
        (Ml.Metrics.mean slows) acc)
    [ 0.25; 0.5; 0.75; 1.0 ]

(* Forest size: accuracy vs. training cost *)
let abl_rf_trees () =
  header "Ablation: random-forest size on Game0 (32 classes)";
  let n_classes = 32 in
  let rng = Rng.make 7777 in
  let split =
    Yali.Dataset.Poj.make rng ~n_classes ~train_per_class:(scale 20)
      ~test_per_class:(scale 6)
  in
  let p = prepare (Rng.split rng) G.Game.game0 E.Embedding.histogram split in
  Printf.printf "%-8s %10s %10s\n" "trees" "accuracy" "train(s)";
  List.iter
    (fun n_trees ->
      let t0 = Yali.Exec.Telemetry.clock () in
      let params = { Ml.Random_forest.n_trees; max_depth = 24 } in
      let trained =
        Ml.Random_forest.train ~params (Rng.make 3) ~n_classes
          (Ml.Fblock.Mem p.xs_train) p.ys_train
      in
      let pred = Ml.Random_forest.predict_batch trained p.xs_test in
      Printf.printf "%-8d %10.4f %10.2f\n%!" n_trees
        (Ml.Metrics.accuracy p.ys_test pred)
        (Yali.Exec.Telemetry.clock () -. t0))
    [ 4; 8; 16; 32; 64; 128 ]

(* Raw opcode counts vs. L1-normalized proportions *)
let abl_histogram_norm () =
  header "Ablation: raw vs. L1-normalized histograms (rf, Game0 and Game1-ollvm)";
  let n_classes = scale 16 in
  let normalized =
    { E.Embedding.name = "histogram-l1"; kind = E.Embedding.Flat E.Histogram.normalized_of_module }
  in
  Printf.printf "%-14s %10s %14s\n" "embedding" "game0" "game1-ollvm";
  List.iter
    (fun (e : E.Embedding.t) ->
      let cell setup =
        let rng = Rng.make (Hashtbl.hash ("abl-h", e.name)) in
        let split =
          Yali.Dataset.Poj.make rng ~n_classes ~train_per_class:(scale 12)
            ~test_per_class:(scale 4)
        in
        let p = prepare (Rng.split rng) setup e split in
        let acc, _, _ = eval_model (Rng.split rng) ~n_classes Ml.Model.rf p in
        acc
      in
      Printf.printf "%-14s %10.4f %14.4f\n%!" e.name (cell G.Game.game0)
        (cell (G.Game.game1 Ob.Evader.ollvm)))
    [ E.Embedding.histogram; normalized ]

(* DGCNN sort-pooling width *)
let abl_sortpool () =
  header "Ablation: DGCNN sort-pooling k (cfg_compact, Game0, 8 classes)";
  let n_classes = 8 in
  Printf.printf "%-8s %10s\n" "k" "accuracy";
  List.iter
    (fun k ->
      let rng = Rng.make (8800 + k) in
      let split =
        Yali.Dataset.Poj.make rng ~n_classes ~train_per_class:(scale 12)
          ~test_per_class:(scale 4)
      in
      let train_mods, test_mods =
        G.Arena.build_modules (Rng.split rng) G.Game.game0 split
      in
      let embed m = E.Embedding.to_graph E.Embedding.cfg_compact m in
      let graphs = Array.map (fun (m, _) -> embed m) train_mods in
      let ys = Array.map snd train_mods in
      let params = { Ml.Dgcnn.default_params with sortpool_k = k } in
      let trained =
        Ml.Dgcnn.train ~params (Rng.split rng) ~n_classes
          ~feat_dim:graphs.(0).E.Graph.feat_dim graphs ys
      in
      let pred = Array.map (fun (m, _) -> Ml.Dgcnn.predict trained (embed m)) test_mods in
      Printf.printf "%-8d %10.4f\n%!" k
        (Ml.Metrics.accuracy (Array.map snd test_mods) pred))
    [ 8; 16; 32 ]

let ablations =
  [
    ("abl-normalizer", abl_normalizer);
    ("abl-sub-rounds", abl_sub_rounds);
    ("abl-bcf-prob", abl_bcf_probability);
    ("abl-rf-trees", abl_rf_trees);
    ("abl-hist-norm", abl_histogram_norm);
    ("abl-sortpool", abl_sortpool);
  ]

(* ------------------------------------------------------------------ *)

let figures =
  [
    ("fig5", fig5); ("fig6", fig6); ("fig7", fig7); ("fig8", fig8);
    ("fig9", fig9); ("fig10", fig10); ("fig11", fig11); ("fig12", fig12);
    ("fig13", fig13); ("fig14", fig14); ("fig15", fig15); ("fig16", fig16);
  ]

let telemetry_out = ref None
let json_out = ref None

(* flags come as "--flag value" or "--flag=value" *)
let parse_args (args : string list) : string list =
  let valued ~flag ~set = function
    | [] ->
        Printf.eprintf "%s expects a value\n" flag;
        exit 2
    | v :: rest ->
        set v;
        rest
  in
  let starts_with p a =
    String.length a > String.length p && String.sub a 0 (String.length p) = p
  in
  let cut p a = String.sub a (String.length p) (String.length a - String.length p) in
  let set_jobs v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> Yali.Exec.Pool.set_jobs n
    | _ ->
        Printf.eprintf "--jobs expects a positive integer, got %s\n" v;
        exit 2
  in
  let set_rss_cap v =
    match float_of_string_opt v with
    | Some f when f > 0.0 -> rss_cap_mb := f
    | _ ->
        Printf.eprintf "--rss-cap-mb expects a positive number, got %s\n" v;
        exit 2
  in
  let set_engine v =
    match Yali.Execution.engine_of_string v with
    | Some e -> Yali.Execution.set_engine e
    | None ->
        Printf.eprintf "--engine expects vm or ref, got %s\n" v;
        exit 2
  in
  (* fail on an unwritable report path now, not after a long figure run *)
  let set_telemetry v =
    (try close_out (open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 v)
     with Sys_error msg ->
       Printf.eprintf "--telemetry: cannot write %s\n" msg;
       exit 2);
    telemetry_out := Some v
  in
  let rec go acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
        quick := true;
        go acc rest
    | a :: rest when starts_with "--rounds=" a ->
        rounds_override := int_of_string_opt (cut "--rounds=" a);
        go acc rest
    | "--rss-cap-mb" :: rest ->
        go acc (valued ~flag:"--rss-cap-mb" ~set:set_rss_cap rest)
    | a :: rest when starts_with "--rss-cap-mb=" a ->
        set_rss_cap (cut "--rss-cap-mb=" a);
        go acc rest
    | "--jobs" :: rest -> go acc (valued ~flag:"--jobs" ~set:set_jobs rest)
    | a :: rest when starts_with "--jobs=" a ->
        set_jobs (cut "--jobs=" a);
        go acc rest
    | "--engine" :: rest -> go acc (valued ~flag:"--engine" ~set:set_engine rest)
    | a :: rest when starts_with "--engine=" a ->
        set_engine (cut "--engine=" a);
        go acc rest
    | "--telemetry" :: rest ->
        go acc (valued ~flag:"--telemetry" ~set:set_telemetry rest)
    | a :: rest when starts_with "--telemetry=" a ->
        set_telemetry (cut "--telemetry=" a);
        go acc rest
    | "--json" :: rest ->
        go acc (valued ~flag:"--json" ~set:(fun v -> json_out := Some v) rest)
    | a :: rest when starts_with "--json=" a ->
        json_out := Some (cut "--json=" a);
        go acc rest
    | a :: rest -> go (a :: acc) rest
  in
  go [] args

(* machine-readable run summary, e.g. for the CI perf-trajectory artifact.
   Sections with no recorded results (their target didn't run) are omitted
   rather than emitted as empty arrays, so a quick-mode [interp]-only run
   doesn't ship a meaningless "kernels": []. *)
let write_json path ~total (timings : (string * float) list) =
  let oc = open_out path in
  let extra_field (k, v) =
    if v = "true" || v = "false" || float_of_string_opt v <> None then
      Printf.fprintf oc ", \"%s\": %s" k v
    else Printf.fprintf oc ", \"%s\": \"%s\"" k v
  in
  (* one before/after results section: name + the two timing field names *)
  let section name (field_a, field_b) items =
    if items <> [] then begin
      Printf.fprintf oc ",\n  \"%s\": [\n" name;
      List.iteri
        (fun i (nm, a, b, extras) ->
          Printf.fprintf oc
            "    {\"name\": \"%s\", \"%s\": %.4f, \"%s\": %.4f, \"speedup\": %.2f"
            nm field_a a field_b b (a /. b);
          List.iter extra_field extras;
          Printf.fprintf oc "}%s\n"
            (if i = List.length items - 1 then "" else ","))
        items;
      Printf.fprintf oc "  ]"
    end
  in
  Printf.fprintf oc "{\n  \"quick\": %b,\n  \"jobs\": %d,\n" !quick
    (Yali.Exec.Pool.get_jobs ());
  Printf.fprintf oc "  \"total_seconds\": %.3f,\n  \"targets\": [\n" total;
  List.iteri
    (fun i (name, secs) ->
      Printf.fprintf oc "    {\"name\": \"%s\", \"seconds\": %.3f}%s\n" name
        secs
        (if i = List.length timings - 1 then "" else ","))
    timings;
  Printf.fprintf oc "  ]";
  section "kernels" ("reference_seconds", "fmat_seconds")
    (List.rev !kernel_results);
  section "vm" ("reference_seconds", "vm_seconds") (List.rev !vm_results);
  let f5 = List.rev !fig5_results in
  if f5 <> [] then begin
    Printf.fprintf oc ",\n  \"fig5\": [\n";
    List.iteri
      (fun i (nm, m, s, tput) ->
        Printf.fprintf oc
          "    {\"name\": \"%s\", \"accuracy_mean\": %.4f, \"accuracy_std\": \
           %.4f, \"train_rows_per_s\": %.1f}%s\n"
          nm m s tput
          (if i = List.length f5 - 1 then "" else ","))
      f5;
    Printf.fprintf oc "  ]"
  end;
  let splits = List.rev !engine_splits in
  if splits <> [] then begin
    Printf.fprintf oc ",\n  \"engine_splits\": [\n";
    List.iteri
      (fun i (workload, engine, compile_s, run_s) ->
        Printf.fprintf oc
          "    {\"name\": \"%s/%s\", \"compile_seconds\": %.4f, \
           \"run_seconds\": %.4f}%s\n"
          workload engine compile_s run_s
          (if i = List.length splits - 1 then "" else ","))
      splits;
    Printf.fprintf oc "  ]"
  end;
  Printf.fprintf oc "\n}\n";
  close_out oc

let () =
  if Array.length Sys.argv >= 4 && Sys.argv.(1) = serve_daemon_flag then
    serve_daemon ();
  let args = parse_args (List.tl (Array.to_list Sys.argv)) in
  let t0 = Yali.Exec.Telemetry.clock () in
  let timings = ref [] in
  let timed name f =
    let s0 = Yali.Exec.Telemetry.clock () in
    f ();
    timings := (name, Yali.Exec.Telemetry.clock () -. s0) :: !timings
  in
  (match args with
  | [] | [ "all" ] -> List.iter (fun (name, f) -> timed name f) figures
  | [ "ablations" ] -> List.iter (fun (name, f) -> timed name f) ablations
  | names ->
      List.iter
        (fun name ->
          if name = "micro" then timed "micro" micro
          else if name = "kernels" then timed "kernels" kernels
          else if name = "interp" then timed "interp" interp
          else if name = "serve" then timed "serve" serve
          else if name = "corpus" then timed "corpus" corpus_bench
          else if name = "adapt" then timed "adapt" adapt_bench
          else if name = "nn" then timed "nn" nn_bench
          else
            match List.assoc_opt name (figures @ ablations) with
            | Some f -> timed name f
            | None ->
                Printf.eprintf
                  "unknown target %s (expected fig5..fig16, abl-*, ablations, micro, kernels, interp, serve, corpus, adapt, nn, all)\n"
                  name)
        names);
  let total = Yali.Exec.Telemetry.clock () -. t0 in
  Printf.printf "\ntotal time: %.1fs (jobs=%d)\n" total
    (Yali.Exec.Pool.get_jobs ());
  (match !json_out with
  | None -> ()
  | Some path ->
      write_json path ~total (List.rev !timings);
      Printf.printf "bench summary written to %s\n" path);
  match !telemetry_out with
  | None -> ()
  | Some path ->
      Yali.Exec.Telemetry.write_json path;
      Printf.printf "telemetry report written to %s\n" path
