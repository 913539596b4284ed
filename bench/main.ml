(** The figure harness: regenerates every table and figure of the paper's
    evaluation (Figures 5-16) on the synthetic corpus, the ablations, and
    the benchmark gates of the framework's own moving parts.

    Usage:
      dune exec bench/main.exe                 # all figures
      dune exec bench/main.exe -- fig8 fig13   # selected figures
      dune exec bench/main.exe -- --quick all  # smaller workloads
      dune exec bench/main.exe -- ablations    # every abl-* target

    Gates: each writes its BENCH_*.json (the run's quick and jobs, its
    sections, its named checks, pass) and exits 1 naming every failed
    check.
      kernels  Fmat kernels vs the frozen pre-rewrite code -> BENCH_kernels.json
      interp   VM vs the reference interpreter             -> BENCH_vm.json
      corpus   paper-scale streaming corpus + out-of-core
               training under an RSS cap (--rss-cap-mb N,
               default 2048); --quick drops 104x500 to
               104x50                                      -> BENCH_corpus.json
      adapt    adaptive-evader Pareto fronts, via-serve
               identity, clean daemon exits                -> BENCH_adapt.json
      nn       kernelized minibatch neural trainers vs
               the frozen naive reference: speed gate +
               bit-identity                                -> BENCH_nn.json

    Flags (each also as --flag=VALUE):
      --quick                  halve the workloads
      --rounds N               rounds per figure cell (N >= 1)
      --jobs N (or YALI_JOBS)  worker domains; default
                               Domain.recommended_domain_count
      --telemetry out.json     dump the runtime's JSON report: tasks,
                               batches, per-phase wall time
      --json BENCH_quick.json  the figure summary: per-target wall seconds
                               and Figure 5's results; CI uploads it as
                               the perf-trajectory artifact
    A bad flag or an unknown target exits 2 before anything runs.
    Results are bit-identical at any --jobs setting: per-task RNG streams
    are pre-derived on the calling domain.

    Workloads are scaled down from the paper's (which take ~19 days); the
    shapes — who wins, by what factor, where the crossovers are — are the
    reproduction target.  See EXPERIMENTS.md for the recorded outputs. *)

module Rng = Yali.Rng
module E = Yali.Embeddings
module Ml = Yali.Ml
module G = Yali.Games
module Ob = Yali.Obfuscation
module Ir = Yali.Ir
module J = Yali.Util.Json

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

(* One arena run at a fixed seed: the split and the run draw from the
   same generator, in that order. *)
let seeded_run ~seed ~n_classes ~train ~test embedding model setup =
  let rng = Rng.make seed in
  let split =
    Yali.Dataset.Poj.make rng ~n_classes ~train_per_class:train
      ~test_per_class:test
  in
  G.Arena.run_flat rng ~n_classes embedding model setup split

let evaders_of_fig8 () : Ob.Evader.t list =
  [ Ob.Evader.o3; Ob.Evader.ollvm; Ob.Evader.bcf; Ob.Evader.fla;
    Ob.Evader.sub; Ob.Evader.rs; Ob.Evader.mcmc; Ob.Evader.drlsg ]

(* ------------------------------------------------------------------ *)
(* Figure 5: embeddings on Game0, 32 classes, neural model             *)
(* ------------------------------------------------------------------ *)

(* per-embedding fig5 results for the --json summary, newest first:
   name, accuracy mean/std, and train throughput (training rows per wall
   second through the batched neural trainer, mean over rounds) *)
let fig5_results : J.t list ref = ref []

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
      fig5_results :=
        J.Obj
          [
            ("name", J.String e.name);
            ("accuracy_mean", J.Fixed (4, m));
            ("accuracy_std", J.Fixed (4, s));
            ("train_rows_per_s", J.Fixed (1, tput));
          ]
        :: !fig5_results;
      Printf.printf "%-14s %8.4f %8.4f %12.1f\n%!" e.name m s tput)
    E.Embedding.all

(* ------------------------------------------------------------------ *)
(* Figure 6: embeddings on Games 1-3 (ollvm evader, O3 normalizer)     *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  header "Figure 6: embeddings on Games 1, 2, 3 (32 classes, ollvm evader)";
  let n_classes = 32 in
  let r = rounds 2 in
  let games = [ G.Game.game1; G.Game.game2; G.Game.game3 ] in
  (* materialise the (expensively evaded) modules once per game and round,
     then share them across all nine embeddings *)
  let prepared =
    List.map
      (fun game ->
        List.init r (fun round ->
            let rng = Rng.make (2000 + round) in
            let split =
              Yali.Dataset.Poj.make ~shuffle_classes:true rng ~n_classes
                ~train_per_class:(scale 8) ~test_per_class:(scale 3)
            in
            let rng' = Rng.split rng in
            ( G.Arena.build_modules (Rng.split rng') (game Ob.Evader.ollvm) split,
              rng' )))
      games
  in
  let cell (e : E.Embedding.t) (mods, rng) =
    let rng = Rng.split (Rng.copy rng) in
    let res =
      if E.Embedding.is_flat e then
        G.Arena.flat_cell rng ~n_classes e Ml.Model.cnn mods
      else G.Arena.graph_cell rng ~n_classes e mods
    in
    res.accuracy
  in
  Printf.printf "%-14s %10s %10s %10s\n" "embedding" "game1" "game2" "game3";
  List.iter
    (fun (e : E.Embedding.t) ->
      Printf.printf "%-14s" e.name;
      List.iter
        (fun per_round ->
          let accs = List.map (cell e) per_round in
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
            seeded_run ~seed:(3000 + round) ~n_classes ~train:(scale 20)
              ~test:(scale 5) E.Embedding.histogram model G.Game.game0)
      in
      let m, s =
        mean_std (List.map (fun (res : G.Arena.result) -> res.accuracy) results)
      in
      let bytes =
        List.fold_left
          (fun a (res : G.Arena.result) -> max a res.model_bytes)
          0 results
      in
      let time =
        Ml.Metrics.mean
          (List.map (fun (res : G.Arena.result) -> res.train_seconds) results)
      in
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
    (* build once per round, share across the six models; the models'
       rng is split off before the modules' *)
    let rounds_mods =
      List.init r (fun round ->
          let rng = Rng.make (Hashtbl.hash (fig, name, round)) in
          let split =
            Yali.Dataset.Poj.make rng ~n_classes ~train_per_class:(scale 10)
              ~test_per_class:(scale 4)
          in
          let model_rng = Rng.split rng in
          (G.Arena.build_modules (Rng.split rng) setup split, model_rng))
    in
    List.iter
      (fun (model : Ml.Model.flat) ->
        let accs =
          List.map
            (fun (mods, rng) ->
              (G.Arena.flat_cell (Rng.copy rng) ~n_classes
                 E.Embedding.histogram model mods)
                .accuracy)
            rounds_mods
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
                   let res =
                     seeded_run
                       ~seed:(4000 + (n_classes * 10) + round)
                       ~n_classes ~train:(scale 16) ~test:(scale 5)
                       E.Embedding.histogram model G.Game.game0
                   in
                   (res.accuracy, res.f1)))
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
      let base = Yali.run ~fuel:100_000_000 m0 [] in
      let o3 =
        Yali.run ~fuel:100_000_000 (Yali.Transforms.Pipeline.o3 m0) []
      in
      let obf =
        Yali.run ~fuel:1_000_000_000 (Ob.Ollvm.run (Rng.make 13) m0) []
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
(* The measuring harness: one timer, one gate shape                    *)
(* ------------------------------------------------------------------ *)

let clock = Yali.Exec.Telemetry.clock

(* Interleaved best-of-[reps] wall seconds of each thunk: every rep runs
   them all in order, so a phase of machine load (CI neighbours, thermal
   throttling) lands on every side rather than skewing their ratio, and
   the minimum strips scheduler noise. *)
let best_times ~(reps : int) (fs : (unit -> unit) array) : float array =
  let best = Array.make (Array.length fs) infinity in
  for _ = 1 to reps do
    Array.iteri
      (fun i f ->
        let t0 = clock () in
        f ();
        best.(i) <- Float.min best.(i) (clock () -. t0))
      fs
  done;
  best

(* A benchmark target with a verdict: [measure] prints as it goes and
   returns the named sections and named checks of its summary [file]. *)
type gate = {
  name : string;
  file : string;
  measure : unit -> (string * J.t) list * (string * bool) list;
}

(* the header every summary file starts with *)
let run_header () =
  [ ("quick", J.Bool !quick); ("jobs", J.Int (Yali.Exec.Pool.get_jobs ())) ]

let run_gate (g : gate) =
  let sections, checks = g.measure () in
  let failed = List.filter_map (fun (c, ok) -> if ok then None else Some c) checks in
  J.write g.file
    (J.Obj
       (run_header () @ sections
       @ [
           ("checks", J.Obj (List.map (fun (c, ok) -> (c, J.Bool ok)) checks));
           ("pass", J.Bool (failed = []));
         ]));
  List.iter
    (fun (c, ok) -> Printf.printf "check %-36s %s\n" c (if ok then "ok" else "FAILED"))
    checks;
  Printf.printf "%s summary written to %s\n%!" g.name g.file;
  if failed <> [] then begin
    Printf.eprintf "%s benchmark FAILED: %s\n%!" g.name (String.concat ", " failed);
    exit 1
  end

(* One reference-vs-rewrite row: printed, and returned for the gate's
   section under [field] for the rewrite's seconds. *)
let versus ~(field : string) name ref_s new_s (extras : (string * J.t) list) =
  Printf.printf "%-18s %12.4f %12.4f %9.2fx" name ref_s new_s (ref_s /. new_s);
  List.iter (fun (k, v) -> Printf.printf "  %s=%s" k (J.to_string v)) extras;
  Printf.printf "\n%!";
  J.Obj
    ([
       ("name", J.String name);
       ("reference_seconds", J.Fixed (4, ref_s));
       (field, J.Fixed (4, new_s));
       ("speedup", J.Fixed (2, ref_s /. new_s));
     ]
    @ extras)

(* ------------------------------------------------------------------ *)
(* Kernel micro-benchmarks: the Fmat layer vs the pre-rewrite code     *)
(* ------------------------------------------------------------------ *)

(* bit-level weight-dump equality: the contract is bit-identity, so
   compare IEEE bits rather than trusting polymorphic [=] on floats *)
let dump_eq (a : float array array) (b : float array array) : bool =
  let same_len x y = Array.length x = Array.length y in
  same_len a b
  && Array.for_all2
       (fun ra rb ->
         same_len ra rb
         && Array.for_all2
              (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
              ra rb)
       a b

(** Before/after numbers for the numeric-kernel layer (DESIGN.md §8):
    forest/tree training (histogram vs per-node sort splits; forests both
    on dense synthetic counts and on the histogram rows of generated
    programs, rf's real traffic), k-NN
    prediction (blocked norms+dot vs per-row subtract-square), lr, svm and
    mlp training (blocked gradients, one scoring pass per sample and in
    place steps vs the loops they replaced) and the raw distance sweep.
    "Reference" is the frozen pre-rewrite code in [Yali.Ml.Reference].
    Fails unless the rewrites agree with the reference: the same rf trees
    node for node on both datasets and the same rf and k-NN predictions,
    bitwise the same
    lr, svm and mlp weights, and distances within 1e-9. *)
let kernels () =
  header "Kernel benchmarks: frozen pre-rewrite reference vs Fmat kernels";
  let reps = 3 in
  let n_train = scale 1600 and n_test = scale 400 in
  let d = 64 and n_classes = 16 in
  Printf.printf "train=%d test=%d d=%d classes=%d (best of %d, interleaved)\n\n"
    n_train n_test d n_classes reps;
  Printf.printf "%-18s %12s %12s %9s\n" "kernel" "ref(s)" "fmat(s)" "speedup";
  let row = versus ~field:"fmat_seconds" in
  (* [n] rows with a class-dependent [feature rng ~hot] per column *)
  let gen feature seed n =
    let rng = Rng.make seed in
    let xs = Array.init n (fun _ -> Array.make d 0.0) in
    let ys = Array.make n 0 in
    for i = 0 to n - 1 do
      let cls = Rng.int rng n_classes in
      ys.(i) <- cls;
      for j = 0 to d - 1 do
        xs.(i).(j) <- feature rng ~hot:(j mod n_classes = cls)
      done
    done;
    (xs, ys)
  in
  (* quantized count features — the shape of histogram embeddings, and the
     regime the tree's 256-bucket histogram path is built for *)
  let gen_counts =
    gen (fun rng ~hot -> float_of_int (Rng.int rng 24 + if hot then 20 else 0))
  in
  (* continuous features for the distance kernels (no exact-tie noise) *)
  let gen_gauss =
    gen (fun rng ~hot -> Rng.gaussian rng +. if hot then 4.0 else 0.0)
  in
  let xs_tr, ys_tr = gen_counts 11 n_train in
  let xs_te, _ = gen_counts 12 n_test in
  let fm_tr = Ml.Fmat.of_rows xs_tr and fm_te = Ml.Fmat.of_rows xs_te in

  (* random-forest training *)
  let n_trees = scale 32 in
  let ref_forest = ref None and new_forest = ref None in
  let t =
    best_times ~reps
      [|
        (fun () ->
          ref_forest :=
            Some
              (Ml.Reference.Random_forest.train
                 ~params:{ Ml.Reference.Random_forest.n_trees; max_depth = 24 }
                 (Rng.make 42) ~n_classes xs_tr ys_tr));
        (fun () ->
          new_forest :=
            Some
              (Ml.Random_forest.train
                 ~params:{ Ml.Random_forest.n_trees; max_depth = 24 }
                 (Rng.make 42) ~n_classes (Ml.Fblock.Mem fm_tr) ys_tr));
      |]
  in
  let ref_pred =
    Array.map (Ml.Reference.Random_forest.predict (Option.get !ref_forest)) xs_te
  in
  let new_pred =
    (Ml.Model.restore (Ml.Model.S_rf (Option.get !new_forest))).predict_batch
      fm_te
  in
  let rf_match = ref_pred = new_pred in
  let rf_trees =
    Array.for_all2
      (fun (a : Ml.Decision_tree.t) (b : Ml.Reference.Decision_tree.t) ->
        Ml.Reference.Decision_tree.same_tree a.root b.root)
      (Ml.Random_forest.trees (Option.get !new_forest))
      (Option.get !ref_forest).trees
  in
  let rf_row =
    row "rf-train" t.(0) t.(1)
      [
        ("predictions_match", J.Bool rf_match);
        ("trees_identical", J.Bool rf_trees);
      ]
  in

  (* random-forest training on rf's own traffic: the histogram rows of a
     seeded Poj split in evade-grid's shape (24 classes x 4 programs, 63
     opcode columns, most zero or constant in a node's samples), one
     default forest per seed *)
  let hxs, hys =
    let rng = Rng.make 24 in
    let split =
      Yali.Dataset.Poj.make rng ~n_classes:24 ~train_per_class:4
        ~test_per_class:1
    in
    let train, _ = G.Arena.build_modules (Rng.split rng) G.Game.game0 split in
    (G.Arena.embed_fmat E.Embedding.histogram train, Array.map snd train)
  in
  let hrows = Ml.Fmat.to_rows hxs and seeds = List.init (scale 8) succ in
  let ref_hist = ref [] and new_hist = ref [] in
  let t =
    best_times ~reps
      [|
        (fun () ->
          ref_hist :=
            List.map
              (fun seed ->
                Ml.Reference.Random_forest.train (Rng.make seed) ~n_classes:24
                  hrows hys)
              seeds);
        (fun () ->
          new_hist :=
            List.map
              (fun seed ->
                Ml.Random_forest.train (Rng.make seed) ~n_classes:24
                  (Ml.Fblock.Mem hxs) hys)
              seeds);
      |]
  in
  let rf_hist_trees =
    List.for_all2
      (fun f (r : Ml.Reference.Random_forest.t) ->
        Array.for_all2
          (fun (a : Ml.Decision_tree.t) (b : Ml.Reference.Decision_tree.t) ->
            Ml.Reference.Decision_tree.same_tree a.root b.root)
          (Ml.Random_forest.trees f) r.trees)
      !new_hist !ref_hist
  in
  let rf_hist_row =
    row "rf-train-histogram" t.(0) t.(1)
      [
        ("forests", J.Int (List.length seeds));
        ("rows", J.Int hxs.Ml.Fmat.n);
        ("trees_identical", J.Bool rf_hist_trees);
      ]
  in

  (* single-tree split finding, all features considered *)
  let t =
    best_times ~reps
      [|
        (fun () ->
          ignore (Ml.Reference.Decision_tree.train (Rng.make 5) ~n_classes xs_tr ys_tr));
        (fun () ->
          ignore (Ml.Decision_tree.train (Rng.make 5) ~n_classes fm_tr ys_tr));
      |]
  in
  let tree_row = row "tree-splits" t.(0) t.(1) [] in

  (* k-NN prediction *)
  let kxs_tr, kys_tr = gen_gauss 21 n_train in
  let kxs_te, _ = gen_gauss 22 n_test in
  let kfm_tr = Ml.Fmat.of_rows kxs_tr and kfm_te = Ml.Fmat.of_rows kxs_te in
  let ref_knn = Ml.Reference.Knn.train ~n_classes kxs_tr kys_tr in
  let new_knn =
    Ml.Model.restore (Ml.Model.S_knn (Ml.Knn.train ~n_classes kfm_tr kys_tr))
  in
  let rpred = ref [||] and npred = ref [||] in
  let t =
    best_times ~reps
      [|
        (fun () -> rpred := Array.map (Ml.Reference.Knn.predict ref_knn) kxs_te);
        (fun () -> npred := new_knn.predict_batch kfm_te);
      |]
  in
  let knn_match = !rpred = !npred in
  let knn_row =
    row "knn-predict" t.(0) t.(1) [ ("predictions_match", J.Bool knn_match) ]
  in

  (* lr's minibatch SGD and mlp's per-sample step (10 epochs) against the
     allocating trainers they replaced: bitwise the same weights *)
  let ref_lr = ref None and new_lr = ref None in
  let t =
    best_times ~reps
      [|
        (fun () ->
          ref_lr :=
            Some
              (Ml.Reference.Logreg.train (Rng.make 7) ~n_classes kxs_tr
                 kys_tr));
        (fun () ->
          new_lr :=
            Some
              (Ml.Logreg.train (Rng.make 7) ~n_classes (Ml.Fblock.Mem kfm_tr)
                 kys_tr));
      |]
  in
  let lr_identical =
    let r = Option.get !ref_lr and m = Option.get !new_lr in
    dump_eq [| r.weights.data; r.bias |]
      [| (Ml.Logreg.weights m).data; Ml.Logreg.bias m |]
  in
  let lr_row =
    row "lr-train" t.(0) t.(1) [ ("bit_identical", J.Bool lr_identical) ]
  in
  (* svm's Pegasos loop, every class scored in one pass against the
     per-class score chains it replaced: byte-identical snapshots *)
  let ref_svm = ref None and new_svm = ref None in
  let t =
    best_times ~reps
      [|
        (fun () ->
          ref_svm :=
            Some
              (Ml.Reference.Svm.train (Rng.make 9) ~n_classes
                 (Ml.Fblock.Mem kfm_tr) kys_tr));
        (fun () ->
          new_svm :=
            Some
              (Ml.Svm.train (Rng.make 9) ~n_classes (Ml.Fblock.Mem kfm_tr)
                 kys_tr));
      |]
  in
  let svm_identical =
    let save m = Ml.Model.save (Ml.Model.S_svm (Option.get m)) in
    save !ref_svm = save !new_svm
  in
  let svm_row =
    row "svm-train" t.(0) t.(1) [ ("bit_identical", J.Bool svm_identical) ]
  in
  let params = { Ml.Mlp.default_params with epochs = 10 } in
  let ref_mlp = ref None and new_mlp = ref None in
  let t =
    best_times ~reps
      [|
        (fun () ->
          ref_mlp :=
            Some
              (Ml.Reference.Mlp.train ~params (Rng.make 8) ~n_classes kxs_tr
                 kys_tr));
        (fun () ->
          new_mlp :=
            Some
              (Ml.Mlp.train ~params (Rng.make 8) ~n_classes
                 (Ml.Fblock.Mem kfm_tr) kys_tr));
      |]
  in
  let mlp_identical =
    dump_eq
      (Ml.Cnn.dump_weights (Option.get !ref_mlp))
      (Ml.Cnn.dump_weights (Option.get !new_mlp))
  in
  let mlp_row =
    row "mlp-train" t.(0) t.(1) [ ("bit_identical", J.Bool mlp_identical) ]
  in

  (* the raw distance sweep: subtract-square rows vs norms + dot over the
     contiguous matrix.  One sweep is tens of microseconds, so each rep
     times [passes] sweeps, enough for the faster side to last 1 ms. *)
  let q = kxs_te.(0) in
  let norms = Array.init n_train (Ml.Fmat.sq_norm_row kfm_tr) in
  let out_ref = Array.make n_train 0.0 and out_new = Array.make n_train 0.0 in
  let sweep_ref () =
    for i = 0 to n_train - 1 do
      let row = kxs_tr.(i) in
      let acc = ref 0.0 in
      for j = 0 to d - 1 do
        let dv = q.(j) -. row.(j) in
        acc := !acc +. (dv *. dv)
      done;
      out_ref.(i) <- !acc
    done
  in
  let qn =
    let acc = ref 0.0 in
    Array.iter (fun v -> acc := !acc +. (v *. v)) q;
    !acc
  in
  let sweep_new () =
    for i = 0 to n_train - 1 do
      out_new.(i) <- qn -. (2.0 *. Ml.Fmat.dot_row_vec kfm_tr i q) +. norms.(i)
    done
  in
  let repeat n f () = for _ = 1 to n do f () done in
  let rec calibrate passes =
    let t0 = clock () in
    repeat passes sweep_new ();
    if clock () -. t0 >= 1e-3 then passes else calibrate (2 * passes)
  in
  let passes = calibrate 1 in
  let t = best_times ~reps [| repeat passes sweep_ref; repeat passes sweep_new |] in
  let max_diff = ref 0.0 in
  for i = 0 to n_train - 1 do
    max_diff := Float.max !max_diff (Float.abs (out_ref.(i) -. out_new.(i)))
  done;
  let sweep_row =
    row "distance-sweep" t.(0) t.(1)
      [
        ("passes", J.Int passes);
        (* exponent notation: the difference sits near 1e-13 *)
        ("max_abs_diff", J.Raw (Printf.sprintf "%.2e" !max_diff));
      ]
  in
  ( [
      ( "kernels",
        J.List
          [
            rf_row;
            rf_hist_row;
            tree_row;
            knn_row;
            lr_row;
            svm_row;
            mlp_row;
            sweep_row;
          ]
      );
    ],
    [
      ("rf_predictions_match", rf_match);
      ("rf_trees_identical", rf_trees);
      ("rf_histogram_trees_identical", rf_hist_trees);
      ("knn_predictions_match", knn_match);
      ("lr_weights_bit_identical", lr_identical);
      ("svm_weights_bit_identical", svm_identical);
      ("mlp_weights_bit_identical", mlp_identical);
      ("distance_max_abs_diff_le_1e-9", !max_diff <= 1e-9);
    ] )

(* ------------------------------------------------------------------ *)
(* Execution-engine benchmarks: reference interpreter vs the VM        *)
(* ------------------------------------------------------------------ *)

(** Before/after numbers for the execution engines (DESIGN.md §10).  Two
    workloads, two regimes:
    - "kernels": raw interpretation throughput — the sixteen benchmark-game
      kernels, millions of dynamic steps each, compile amortized (the
      figure-13 / benchgame regime, reported as dynamic MIPS);
    - "corpus": the validation shape — a fixed seeded corpus of generated
      programs, each compiled once and probed on many input vectors (what
      one check deep-tier validation looks like; compile time is
      inside the measured region).
    "Reference" is the frozen tree-walking interpreter.  Outside the timed
    region, both engines must give the same result on every kernel and
    every corpus (program, input) pair; the gate fails on a mismatch. *)
let interp () =
  let module Ex = Yali.Execution in
  header "Engine benchmarks: frozen reference interpreter vs pre-compiling VM";
  let reps = 5 in
  Printf.printf "(best of %d, interleaved)\n\n" reps;
  Printf.printf "%-18s %12s %12s %9s\n" "workload" "ref(s)" "vm(s)" "speedup";
  let row = versus ~field:"vm_seconds" in

  (* raw throughput on the benchmark-game kernels *)
  let mods = Yali.Dataset.Benchgame.modules () in
  let fuel = 100_000_000 in
  let t_compile =
    (best_times ~reps
       [| (fun () -> List.iter (fun (_, m) -> ignore (Yali.Vm.compile m)) mods) |]).(0)
  in
  let compiled = List.map (fun (n, m) -> (n, Yali.Vm.compile m)) mods in
  let ref_results =
    List.map (fun (_, m) -> Ex.classify (fun () -> Ir.Interp.run ~fuel m [])) mods
  in
  let kernels_agree =
    List.for_all2
      (fun r (_, p) ->
        Ex.agree r (Ex.classify (fun () -> Yali.Vm.run_compiled ~fuel p [])))
      ref_results compiled
  in
  let steps =
    List.fold_left
      (fun a -> function Ok (o : Ir.Interp.outcome) -> a + o.steps | Error _ -> a)
      0 ref_results
  in
  let t =
    best_times ~reps
      [|
        (fun () -> List.iter (fun (_, m) -> ignore (Ir.Interp.run ~fuel m [])) mods);
        (fun () ->
          List.iter (fun (_, p) -> ignore (Yali.Vm.run_compiled ~fuel p [])) compiled);
      |]
  in
  let mips t = J.Fixed (1, float_of_int steps /. t /. 1e6) in
  let kernels_row =
    row "kernels" t.(0) t.(1)
      [
        ("dynamic_steps", J.Int steps);
        ("mips_ref", mips t.(0));
        ("mips_vm", mips t.(1));
        ("compile_seconds", J.Fixed (4, t_compile));
      ]
  in

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
  (* the reference side runs the interpreter directly, with [prepare]'s
     shape so both sides are timed the same way *)
  let interp_prepare m ~fuel input = Ir.Interp.run ~fuel m input in
  let corpus_agree =
    List.for_all
      (fun m ->
        let rf = interp_prepare m in
        let vm = Ex.prepare m in
        List.for_all
          (fun input ->
            Ex.agree
              (Ex.classify (fun () -> rf ~fuel:corpus_fuel input))
              (Ex.classify (fun () -> vm ~fuel:corpus_fuel input)))
          inputs)
      corpus
  in
  let run_all prepare () =
    List.iter
      (fun m ->
        let run1 = prepare m in
        List.iter (fun input -> ignore (run1 ~fuel:corpus_fuel input)) inputs)
      corpus
  in
  let t =
    best_times ~reps
      [|
        run_all interp_prepare;
        run_all Ex.prepare;
      |]
  in
  let per_s n t digits = J.Fixed (digits, float_of_int n /. t) in
  let corpus_row =
    row "corpus" t.(0) t.(1)
      [
        ("programs", J.Int n_progs);
        ("execs", J.Int execs);
        ("execs_per_s_ref", per_s execs t.(0) 0);
        ("execs_per_s_vm", per_s execs t.(1) 0);
        ("programs_per_s_ref", per_s n_progs t.(0) 1);
        ("programs_per_s_vm", per_s n_progs t.(1) 1);
      ]
  in
  Printf.printf
    "\nmemory images allocated: %d interpreter + %d vm (pooled per domain \
     and reused across every run above)\n"
    (Ir.Arena.created Ir.Interp.arena)
    (Yali.Vm.arenas_created ());
  ( [ ("vm", J.List [ kernels_row; corpus_row ]) ],
    [
      ("kernels_engines_agree", kernels_agree);
      ("corpus_engines_agree", corpus_agree);
    ] )

(* ------------------------------------------------------------------ *)
(* Corpus benchmark: paper-scale streaming generation and out-of-core  *)
(* training under a fixed memory cap (DESIGN.md §12)                   *)
(* ------------------------------------------------------------------ *)

let rss_cap_mb = ref 2048.0

(* Peak resident set (VmHWM) in MiB from /proc/self/status; 0.0 where the
   proc filesystem is unavailable (the gate is then skipped). *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             Scanf.sscanf_opt line "VmHWM: %d" (fun kb -> float_of_int kb /. 1024.0))
      |> Option.value ~default:0.0

(** The paper-scale tier: generate the full 104-class corpus straight to a
    sharded on-disk store, embed it into an out-of-core feature file, and
    train lr + rf with each model's one trainer, streamed from the file in
    4096-row blocks and from memory as one block — the streamed models must
    hold accuracy within 2 points of the in-memory ones on a held-out
    corpus, and the whole run must fit the
    RSS cap (--rss-cap-mb, default 2048).  [--quick] drops to 104x50.
    Fails when either bound does (CI's paper-scale smoke). *)
let corpus_bench () =
  let per_class = if !quick then 50 else 500 in
  header "Corpus: paper-scale streaming pipeline (104x%d, cap %.0f MiB)"
    per_class !rss_cap_mb;
  Yali.Util.Fs.with_temp_dir "corpus-bench" (fun tmp ->
      let train_dir = Filename.concat tmp "train" in
      let test_dir = Filename.concat tmp "test" in
      let spec =
        { Yali.Corpus.Gen.dataset = "poj"; seed = 42; n_classes = 104; per_class }
      in
      let test_spec =
        { spec with Yali.Corpus.Gen.seed = 43;
          per_class = (if !quick then 5 else 20) }
      in
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
        Ml.Metrics.accuracy tys ((Ml.Model.restore snap).Ml.Model.predict_batch tx)
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
      let rss = peak_rss_mb () in
      Printf.printf "peak RSS %.0f MiB (cap %.0f)\n" rss !rss_cap_mb;
      let model (kind, t_s, a_s, t_m, a_m) =
        J.Obj
          [
            ("kind", J.String kind);
            ("stream_seconds", J.Fixed (2, t_s));
            ("stream_accuracy", J.Fixed (4, a_s));
            ("inmem_seconds", J.Fixed (2, t_m));
            ("inmem_accuracy", J.Fixed (4, a_m));
          ]
      in
      ( [
          ("spec", J.String (Yali.Corpus.Gen.spec_to_string spec));
          ("programs", J.Int n);
          ("corpus_mib", J.Fixed (1, corpus_mib));
          ("dim", J.Int d);
          ("gen_seconds", J.Fixed (2, t_gen));
          ("gen_programs_per_s", J.Fixed (1, gen_rate));
          ("embed_seconds", J.Fixed (2, t_embed));
          ("embed_rows_per_s", J.Fixed (1, embed_rate));
          ("models", J.List (List.map model results));
          ("peak_rss_mb", J.Fixed (1, rss));
          ("rss_cap_mb", J.Fixed (1, !rss_cap_mb));
        ],
        [
          ( "stream_accuracy_within_2_points",
            List.for_all (fun (_, _, a_s, _, a_m) -> a_m -. a_s <= 0.02) results );
          ("peak_rss_within_cap", rss = 0.0 || rss <= !rss_cap_mb);
        ] ))

(* ------------------------------------------------------------------ *)
(* Adaptive evaders: cost-priced Pareto fronts (DESIGN.md §14)         *)
(* ------------------------------------------------------------------ *)

(** Adaptive-evader benchmark: run the classifier-in-the-loop search for
    each default model kind, report the per-classifier Pareto fronts
    (evasion rate vs cost multiplier), and prove the [--via-serve] path by
    re-running the identical searches against daemon children — the two
    reports must be bit-identical.  Fails when a front is too thin
    (< 3 points on < 2 classifiers), the via-serve report diverges or a
    daemon does not exit 0 on SIGTERM (CI's adapt gate).  The
    [via_serve_seconds] time includes publishing the snapshots and
    starting the daemons. *)
let adapt_bench () =
  header "Adaptive evaders: classifier-in-the-loop search, Pareto fronts";
  let module D = Yali.Adapt.Driver in
  let cfg =
    {
      D.default with
      a_train_per_class = scale 10;
      a_budget = (if !quick then 32 else 96);
      a_challenges_per_class = (if !quick then 2 else 3);
    }
  in
  let t0 = clock () in
  let prep = D.prepare ~log:print_endline cfg in
  let report = D.search_fronts ~log:print_endline cfg prep in
  let t_search = clock () -. t0 in
  List.iter
    (fun (f : D.model_front) ->
      Printf.printf "%-5s front:" f.mf_kind;
      List.iter
        (fun (p : Yali.Adapt.Pareto.point) ->
          Printf.printf "  (%.2fx, %.2f)" p.p_cost p.p_evasion)
        f.mf_front;
      print_newline ())
    report.r_fronts;
  (* the via-serve proof: the identical searches with every margin
     answered by a daemon child *)
  let t1 = clock () in
  let report', clean =
    D.search_fronts_via_serve ~command:Yali.Serve.Client.self_command cfg prep
  in
  let t_serve = clock () -. t1 in
  let identical = D.reports_identical report report' in
  Printf.printf
    "search %.2fs in-process, %.2fs via serve (daemon start-up included)\n"
    t_search t_serve;
  Printf.printf "via-serve report bit-identical: %b\n" identical;
  let rich_fronts =
    List.length
      (List.filter
         (fun (f : D.model_front) -> List.length f.mf_front >= 3)
         report.r_fronts)
  in
  ( [
      ("search_seconds", J.Fixed (2, t_search));
      ("via_serve_seconds", J.Fixed (2, t_serve));
      ("report", D.report_json cfg report);
    ],
    [
      ("two_models_with_3_point_fronts", rich_fronts >= 2);
      ("via_serve_identical", identical);
      ("daemons_exit_clean", clean);
    ] )

(* ------------------------------------------------------------------ *)
(* Neural-tier benchmark: kernelized minibatch trainers vs reference   *)
(* ------------------------------------------------------------------ *)

(* the same weights at --jobs 1 and --jobs 4 *)
let jobs_invariant dump =
  dump_eq (Yali.Exec.Pool.with_jobs 1 dump) (Yali.Exec.Pool.with_jobs 4 dump)

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
    itself.  Fails when the cnn step lands below 5x over the reference or
    any identity check fails. *)
let nn_bench () =
  header "Neural tier: minibatch Fmat kernels vs the frozen naive trainer";

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
  let t =
    best_times ~reps:5
      [|
        (fun () ->
          for _ = 1 to inner do
            ignore
              (Ml.Nn.train_batch ~need_dx:false ~lr:0.0 ~rng:krng step_net xb
                 yb)
          done);
        (fun () ->
          for _ = 1 to inner do
            ignore (Ml.Reference.Nnb.train_batch ~lr:0.0 ~rng:nrng step_netr xb yb)
          done);
      |]
  in
  let t_sker = t.(0) /. float_of_int inner
  and t_sref = t.(1) /. float_of_int inner in
  let step_speedup = t_sref /. t_sker in
  Printf.printf
    "  step kernel (batch %d): reference %.2fms   kernel %.2fms   speedup \
     %.2fx\n"
    m (t_sref *. 1e3) (t_sker *. 1e3) step_speedup;

  (* end-to-end training (real lr schedule), which is also where the
     bit-identity contract is re-checked on the benchmark workload *)
  let ref_cnn = ref None and ker_cnn = ref None in
  let t =
    best_times ~reps:2
      [|
        (fun () ->
          ref_cnn :=
            Some (Ml.Reference.Cnn.train ~params (Rng.make 11) ~n_classes x ys));
        (fun () ->
          ker_cnn :=
            Some
              (Ml.Cnn.train ~params (Rng.make 11) ~n_classes (Ml.Fblock.Mem x)
                 ys));
      |]
  in
  let t_ref = t.(0) and t_ker = t.(1) in
  let ref_cnn = Option.get !ref_cnn and ker_cnn = Option.get !ker_cnn in
  let weights_ok =
    dump_eq (Ml.Cnn.dump_weights ref_cnn) (Ml.Cnn.dump_weights ker_cnn)
  in
  let jobs_ok =
    jobs_invariant (fun () ->
        Ml.Cnn.dump_weights
          (Ml.Cnn.train ~params (Rng.make 11) ~n_classes (Ml.Fblock.Mem x) ys))
  in
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
  let ref_g = ref None and ker_g = ref None in
  let t =
    best_times ~reps:1
      [|
        (fun () ->
          ref_g :=
            Some
              (Ml.Reference.Dgcnn.train ~params:gparams (Rng.make 31)
                 ~n_classes:2 ~feat_dim:4 graphs gys));
        (fun () ->
          ker_g :=
            Some
              (Ml.Dgcnn.train ~params:gparams (Rng.make 31) ~n_classes:2
                 ~feat_dim:4 graphs gys));
      |]
  in
  let t_gref = t.(0) and t_gker = t.(1) in
  let gweights_ok =
    dump_eq
      (Ml.Dgcnn.dump_weights (Option.get !ref_g))
      (Ml.Dgcnn.dump_weights (Option.get !ker_g))
  in
  let gjobs_ok =
    jobs_invariant (fun () ->
        Ml.Dgcnn.dump_weights
          (Ml.Dgcnn.train ~params:gparams (Rng.make 31) ~n_classes:2
             ~feat_dim:4 graphs gys))
  in
  let gspeedup = t_gref /. t_gker in
  let graphs_s = float_of_int (gn * gparams.Ml.Dgcnn.epochs) /. t_gker in
  Printf.printf "  reference %.3fs   kernel %.3fs   speedup %.2fx   %.0f graphs/s\n"
    t_gref t_gker gspeedup graphs_s;
  Printf.printf "  weights bit-identical: %b   jobs-invariant (1 vs 4): %b\n%!"
    gweights_ok gjobs_ok;
  ( [
      ( "cnn",
        J.Obj
          [
            ("rows", J.Int n);
            ("dim", J.Int d);
            ("classes", J.Int n_classes);
            ("epochs", J.Int params.Ml.Cnn.epochs);
            ("batch", J.Int m);
            ("step_reference_seconds", J.Fixed (5, t_sref));
            ("step_kernel_seconds", J.Fixed (5, t_sker));
            ("step_speedup", J.Fixed (2, step_speedup));
            ("train_reference_seconds", J.Fixed (4, t_ref));
            ("train_kernel_seconds", J.Fixed (4, t_ker));
            ("train_speedup", J.Fixed (2, speedup));
            ("train_rows_per_s", J.Fixed (0, rows_s));
          ] );
      ( "dgcnn",
        J.Obj
          [
            ("graphs", J.Int gn);
            ("epochs", J.Int gparams.Ml.Dgcnn.epochs);
            ("reference_seconds", J.Fixed (4, t_gref));
            ("kernel_seconds", J.Fixed (4, t_gker));
            ("speedup", J.Fixed (2, gspeedup));
            ("train_graphs_per_s", J.Fixed (0, graphs_s));
          ] );
    ],
    [
      ("cnn_step_speedup_ge_5x", step_speedup >= 5.0);
      ("cnn_weights_identical", weights_ok);
      ("cnn_jobs_invariant", jobs_ok);
      ("dgcnn_weights_identical", gweights_ok);
      ("dgcnn_jobs_invariant", gjobs_ok);
    ] )

let gates =
  [
    { name = "kernels"; file = "BENCH_kernels.json"; measure = kernels };
    { name = "interp"; file = "BENCH_vm.json"; measure = interp };
    { name = "corpus"; file = "BENCH_corpus.json"; measure = corpus_bench };
    { name = "adapt"; file = "BENCH_adapt.json"; measure = adapt_bench };
    { name = "nn"; file = "BENCH_nn.json"; measure = nn_bench };
  ]

(* ------------------------------------------------------------------ *)
(* Ablations: design choices called out in DESIGN.md                   *)
(* ------------------------------------------------------------------ *)

(* The ablations' arena cell: rf over [embedding] in [setup], with 12
   training programs and 4 challenges for each of 16 classes *)
let abl_rf_accuracy seed embedding setup =
  (seeded_run ~seed ~n_classes:(scale 16) ~train:(scale 12) ~test:(scale 4)
     embedding Ml.Model.rf setup)
    .accuracy

(* Which optimization level suffices as a Game3 normalizer? *)
let abl_normalizer () =
  header "Ablation: normalizer strength in Game3 (O1 vs O2 vs O3, rf, histogram)";
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
          Printf.printf " %8.4f%!"
            (abl_rf_accuracy
               (Hashtbl.hash ("abl-n", e.ename))
               E.Embedding.histogram (G.Game.game3 ~normalizer e)))
        levels;
      print_newline ())
    evaders

(* How much does each extra substitution round buy the evader? *)
let abl_sub_rounds () =
  header "Ablation: instruction-substitution rounds (distance + Game1 rf accuracy)";
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
      let acc =
        abl_rf_accuracy (6000 + rounds) E.Embedding.histogram
          (G.Game.game1 evader)
      in
      Printf.printf "%-8d %10.2f %10.2f %10.4f\n%!" rounds
        (Ml.Metrics.mean ds) (Ml.Metrics.mean ratios) acc)
    [ 1; 2; 3; 4 ]

(* How does bogus-control-flow density trade runtime for evasion? *)
let abl_bcf_probability () =
  header "Ablation: bcf block-selection probability (distance, slowdown, Game1 acc)";
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
               let c0 = (Yali.run ~fuel:8_000_000 m0 input).cost in
               let c1 = (Yali.run ~fuel:80_000_000 m1 input).cost in
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
      let acc =
        abl_rf_accuracy
          (Hashtbl.hash ("abl-bcf", prob))
          E.Embedding.histogram (G.Game.game1 evader)
      in
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
  let train_mods, test_mods =
    G.Arena.build_modules (Rng.split rng) G.Game.game0 split
  in
  let xs = G.Arena.embed_fmat E.Embedding.histogram train_mods in
  let xs_test = G.Arena.embed_fmat E.Embedding.histogram test_mods in
  Printf.printf "%-8s %10s %10s\n" "trees" "accuracy" "train(s)";
  List.iter
    (fun n_trees ->
      let t0 = Yali.Exec.Telemetry.clock () in
      let params = { Ml.Random_forest.n_trees; max_depth = 24 } in
      let trained =
        Ml.Random_forest.train ~params (Rng.make 3) ~n_classes
          (Ml.Fblock.Mem xs) (Array.map snd train_mods)
      in
      let pred =
        (Ml.Model.restore (Ml.Model.S_rf trained)).predict_batch xs_test
      in
      Printf.printf "%-8d %10.4f %10.2f\n%!" n_trees
        (Ml.Metrics.accuracy (Array.map snd test_mods) pred)
        (Yali.Exec.Telemetry.clock () -. t0))
    [ 4; 8; 16; 32; 64; 128 ]

(* Raw opcode counts vs. L1-normalized proportions *)
let abl_histogram_norm () =
  header "Ablation: raw vs. L1-normalized histograms (rf, Game0 and Game1-ollvm)";
  let normalized =
    { E.Embedding.name = "histogram-l1"; kind = E.Embedding.Flat E.Histogram.normalized_of_module }
  in
  Printf.printf "%-14s %10s %14s\n" "embedding" "game0" "game1-ollvm";
  List.iter
    (fun (e : E.Embedding.t) ->
      let cell setup =
        abl_rf_accuracy (Hashtbl.hash ("abl-h", e.name)) e setup
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

let bad_usage fmt =
  Printf.kfprintf
    (fun _ ->
      prerr_string
        "\nusage: main.exe [--quick] [--rounds N] [--jobs N] [--rss-cap-mb MB]\n\
        \                [--telemetry FILE] [--json FILE] [TARGET...]\n\
         targets: fig5..fig16, all (the default), abl-*, ablations,\n\
        \         kernels, interp, corpus, adapt, nn\n\
         each flag also takes --flag=VALUE\n";
      exit 2)
    stderr fmt

(* the targets a command line names, every one resolved before any runs *)
let parse_args (args : string list) : (string * (unit -> unit)) list =
  let positive flag parse zero v =
    match parse v with
    | Some x when x > zero -> x
    | _ -> bad_usage "%s expects a positive number, got %s" flag v
  in
  (* fail on an unwritable report path now, not after a long run *)
  let writable flag v =
    (try Yali.Util.Fs.touch v
     with Sys_error msg -> bad_usage "%s: cannot write %s" flag msg);
    Some v
  in
  let valued =
    [
      ("--rounds", fun v -> rounds_override := Some (positive "--rounds" int_of_string_opt 0 v));
      ("--jobs", fun v -> Yali.Exec.Pool.set_jobs (positive "--jobs" int_of_string_opt 0 v));
      ("--rss-cap-mb", fun v -> rss_cap_mb := positive "--rss-cap-mb" float_of_string_opt 0.0 v);
      ("--telemetry", fun v -> telemetry_out := writable "--telemetry" v);
      ("--json", fun v -> json_out := writable "--json" v);
    ]
  in
  let rec go acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
        quick := true;
        go acc rest
    | flag :: rest when List.mem_assoc flag valued -> (
        match rest with
        | v :: rest ->
            List.assoc flag valued v;
            go acc rest
        | [] -> bad_usage "%s expects a value" flag)
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "--" -> (
        match String.index_opt a '=' with
        | Some i when List.mem_assoc (String.sub a 0 i) valued ->
            List.assoc (String.sub a 0 i) valued
              (String.sub a (i + 1) (String.length a - i - 1));
            go acc rest
        | _ -> bad_usage "unknown flag %s" a)
    | name :: rest -> go (name :: acc) rest
  in
  let target name =
    match List.assoc_opt name (figures @ ablations) with
    | Some f -> [ (name, f) ]
    | None -> (
        match List.find_opt (fun g -> g.name = name) gates with
        | Some g -> [ (name, fun () -> run_gate g) ]
        | None -> bad_usage "unknown target %s" name)
  in
  let names = match go [] args with [] -> [ "all" ] | names -> names in
  List.concat_map
    (function "all" -> figures | "ablations" -> ablations | name -> target name)
    names

(* the --json run summary: per-target wall seconds and Figure 5's
   per-embedding results, e.g. for the CI perf-trajectory artifact *)
let write_summary path ~total (timings : (string * float) list) =
  let fig5 = List.rev !fig5_results in
  J.write path
    (J.Obj
       (run_header ()
       @ [
           ("total_seconds", J.Fixed (3, total));
           ( "targets",
             J.List
               (List.map
                  (fun (name, secs) ->
                    J.Obj [ ("name", J.String name); ("seconds", J.Fixed (3, secs)) ])
                  timings) );
         ]
       @ if fig5 = [] then [] else [ ("fig5", J.List fig5) ]))

let () =
  Yali.Serve.Client.daemon_mode ();
  let targets = parse_args (List.tl (Array.to_list Sys.argv)) in
  let t0 = clock () in
  let timings =
    List.map
      (fun (name, f) ->
        let s0 = clock () in
        f ();
        (name, clock () -. s0))
      targets
  in
  let total = clock () -. t0 in
  Printf.printf "\ntotal time: %.1fs (jobs=%d)\n" total
    (Yali.Exec.Pool.get_jobs ());
  (match !json_out with
  | None -> ()
  | Some path ->
      write_summary path ~total timings;
      Printf.printf "bench summary written to %s\n" path);
  match !telemetry_out with
  | None -> ()
  | Some path ->
      Yali.Exec.Telemetry.write_json path;
      Printf.printf "telemetry report written to %s\n" path
