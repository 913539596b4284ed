(** The adaptive-evader driver: dataset → trained snapshots → per-model
    sequence search → cost-priced Pareto fronts.

    This closes the game loop of the paper's Definition 2.4: instead of a
    fixed evader from Figure 4's registry, the evader {e adapts} — it
    queries the trained classifier's per-class scores while searching the
    obfuscation-sequence space, and reports the whole evasion-vs-cost
    trade-off it found ({!Pareto}).

    Split into {!prepare} (dataset, baselines, snapshots — everything both
    the in-process and the via-serve runs must share) and
    {!search_fronts} (the searches themselves, oracles injectable per
    model kind), so [--via-serve] can publish the prepared snapshots to a
    registry, point daemons at them, and provably produce the identical
    report. *)

module Rng = Yali_util.Rng
module Poj = Yali_dataset.Poj
module Embedding = Yali_embeddings.Embedding
module Model = Yali_ml.Model
module Lower = Yali_minic.Lower

type config = {
  a_seed : int;
  a_classes : int;
  a_train_per_class : int;
  a_challenges_per_class : int;
  a_models : string list;
  a_algo : Search.algo;
  a_budget : int;
  a_batch : int;
  a_max_len : int;
  a_lambda : float;
  a_vectors : int;
  a_fuel : int;
}

let default =
  {
    a_seed = 42;
    a_classes = 4;
    a_train_per_class = 10;
    a_challenges_per_class = 2;
    a_models = [ "rf"; "lr" ];
    a_algo = Search.Hill;
    a_budget = 48;
    a_batch = 8;
    a_max_len = 4;
    a_lambda = 0.05;
    a_vectors = 2;
    a_fuel = 2_000_000;
  }

(* the paper's default flat embedding; every model kind trains over it *)
let embedding = Embedding.histogram

type prepared = {
  p_snapshots : (string * Model.snapshot) list;
  p_challenges : Fitness.challenge array;
  p_n_train : int;
}

let prepare ?(log = ignore) (cfg : config) : prepared =
  (* a kind named twice would have two searches share one daemon socket *)
  let named_twice k = List.length (List.filter (( = ) k) cfg.a_models) > 1 in
  Option.iter
    (fun kind -> invalid_arg ("adapt: model kind " ^ kind ^ " named twice"))
    (List.find_opt named_twice cfg.a_models);
  (* no training rows leaves the scalers without means, and no challenges
     leaves nothing to judge *)
  let positive flag n =
    if n < 1 then
      invalid_arg (Printf.sprintf "adapt: %s must be positive, got %d" flag n)
  in
  positive "--train-per-class" cfg.a_train_per_class;
  positive "--challenges-per-class" cfg.a_challenges_per_class;
  (* a NaN price makes every fitness NaN, so no candidate can beat the
     identity; a negative one pays for slowdown *)
  if not (Float.is_finite cfg.a_lambda && cfg.a_lambda >= 0.0) then
    invalid_arg
      (Printf.sprintf "adapt: --lambda must be finite and non-negative, got %g"
         cfg.a_lambda);
  let rng = Rng.make cfg.a_seed in
  let data_rng = Rng.split_ix rng 0 in
  let train_rng = Rng.split_ix rng 1 in
  let chal_rng = Rng.split_ix rng 2 in
  let split =
    Poj.make data_rng ~n_classes:cfg.a_classes
      ~train_per_class:cfg.a_train_per_class
      ~test_per_class:cfg.a_challenges_per_class
  in
  (* Game 1's unaware classifier: trains on plain -O0 lowerings *)
  let train_mods =
    Array.map
      (fun (l : Poj.labelled) -> (Lower.lower_program l.src, l.label))
      split.train
  in
  let x = Yali_games.Arena.embed_fmat embedding train_mods in
  let ys = Array.map snd train_mods in
  let snapshots =
    List.mapi
      (fun ix kind ->
        match
          Model.train_snapshot kind
            (Rng.split_ix train_rng ix)
            ~n_classes:cfg.a_classes (Yali_ml.Fblock.Mem x) ys
        with
        | Some s -> (kind, s)
        | None -> failwith ("adapt: no snapshot form for model " ^ kind))
      cfg.a_models
  in
  let challenges =
    split.test |> Array.to_list
    |> List.mapi (fun i (l : Poj.labelled) ->
           let m = Lower.lower_program l.src in
           match
             Fitness.challenge ~fuel:cfg.a_fuel ~vectors:cfg.a_vectors
               (Rng.split_ix chal_rng i) ~label:l.label m
           with
           | Ok c -> Some c
           | Error msg ->
               log (Printf.sprintf "adapt: dropping challenge %d: %s" i msg);
               None)
    |> List.filter_map Fun.id |> Array.of_list
  in
  log
    (Printf.sprintf "adapt: %d training rows, %d challenges, models %s"
       (Array.length split.train)
       (Array.length challenges)
       (String.concat "," cfg.a_models));
  {
    p_snapshots = snapshots;
    p_challenges = challenges;
    p_n_train = Array.length split.train;
  }

let publish_prepared ~dir (cfg : config) (prep : prepared) =
  let dim =
    match prep.p_challenges with
    | [||] -> invalid_arg "Driver.publish_prepared: no challenges"
    | chs -> Array.length (Embedding.to_flat embedding chs.(0).Fitness.ch_module)
  in
  List.map
    (fun (kind, snapshot) ->
      let meta =
        {
          Yali_serve.Registry.kind;
          version = 0;
          embedding = embedding.name;
          n_classes = cfg.a_classes;
          dim;
          n_train = prep.p_n_train;
          seed = cfg.a_seed;
          source = "adapt:prepared";
        }
      in
      (kind, fst (Yali_serve.Registry.publish ~dir ~meta snapshot)))
    prep.p_snapshots

let oracle_of_snapshot (s : Model.snapshot) : Yali_ir.Irmod.t -> float array =
  let margins = Model.margins s in
  (* the embedding is a pure function: safe from any pool worker *)
  fun m -> margins (Embedding.to_flat embedding m)

type model_front = {
  mf_kind : string;
  mf_base : Fitness.eval;
  mf_best : Fitness.eval;
  mf_front : Pareto.point list;
  mf_evals : int;
}

type report = { r_fronts : model_front list; r_challenges : int }

let search_rng (cfg : config) (ix : int) : Rng.t =
  Rng.split_ix (Rng.split_ix (Rng.make cfg.a_seed) 3) ix

let eval_rng (cfg : config) (ix : int) : Rng.t =
  Search.eval_rng (search_rng cfg ix)

let search_fronts ?(log = ignore) ?oracle_for (cfg : config)
    (prep : prepared) : report =
  let fronts =
    List.mapi
      (fun ix (kind, snap) ->
        let oracle =
          match Option.bind oracle_for (fun f -> f kind) with
          | Some o -> o
          | None -> oracle_of_snapshot snap
        in
        let eval_fn r s =
          Fitness.evaluate ~oracle ~lambda:cfg.a_lambda ~fuel:cfg.a_fuel
            prep.p_challenges r s
        in
        let out =
          Search.run cfg.a_algo ~budget:cfg.a_budget ~batch:cfg.a_batch
            ~max_len:cfg.a_max_len (search_rng cfg ix) eval_fn
        in
        let front = Pareto.front out.o_evals in
        log
          (Printf.sprintf
             "adapt[%s]: %d evals, base evasion %.2f, best %.2f @ %.2fx \
              cost, front %d points"
             kind (List.length out.o_evals) out.o_base.Fitness.e_evasion
             out.o_best.Fitness.e_evasion out.o_best.Fitness.e_cost
             (List.length front));
        {
          mf_kind = kind;
          mf_base = out.o_base;
          mf_best = out.o_best;
          mf_front = front;
          mf_evals = List.length out.o_evals;
        })
      prep.p_snapshots
  in
  { r_fronts = fronts; r_challenges = Array.length prep.p_challenges }

let run ?(log = ignore) ?oracle_for (cfg : config) : report =
  search_fronts ~log ?oracle_for cfg (prepare ~log cfg)

let search_fronts_via_serve ?(log = ignore) ~command (cfg : config)
    (prep : prepared) : report * bool =
  Yali_util.Fs.with_temp_dir "adapt" (fun dir ->
      let registry = Filename.concat dir "models" in
      List.iter
        (fun (kind, v) ->
          log (Printf.sprintf "adapt: published %s@%d to %s" kind v registry))
        (publish_prepared ~dir:registry cfg prep);
      Yali_serve.Client.with_daemons ~command ~dir ~registry
        (List.map fst prep.p_snapshots) (fun daemons ->
          let remotes =
            List.map (fun (kind, socket) -> (kind, Remote.connect ~socket)) daemons
          in
          Fun.protect
            ~finally:(fun () -> List.iter (fun (_, r) -> Remote.close r) remotes)
            (fun () ->
              log
                (Printf.sprintf "adapt: %d daemons up, routing margins via serve"
                   (List.length remotes));
              search_fronts ~log
                ~oracle_for:(fun kind ->
                  Option.map Remote.oracle (List.assoc_opt kind remotes))
                cfg prep)))

(* -- report rendering ------------------------------------------------------- *)

let report_json (cfg : config) (r : report) : Yali_util.Json.t =
  let module J = Yali_util.Json in
  let point (p : Pareto.point) =
    J.Obj
      [
        ("cost_multiplier", J.Fixed (4, p.p_cost));
        ("evasion_rate", J.Fixed (4, p.p_evasion));
        ("seq", J.String p.p_seq);
      ]
  in
  let front f =
    J.Obj
      [
        ("base_evasion", J.Fixed (4, f.mf_base.Fitness.e_evasion));
        ("best_evasion", J.Fixed (4, f.mf_best.Fitness.e_evasion));
        ("best_cost", J.Fixed (4, f.mf_best.Fitness.e_cost));
        ("best_fitness", J.Fixed (4, f.mf_best.Fitness.e_fitness));
        ("best_seq", J.String (Seqspace.to_string f.mf_best.Fitness.e_seq));
        ("evals", J.Int f.mf_evals);
        ("front_points", J.Int (List.length f.mf_front));
        ("front", J.List (List.map point f.mf_front));
      ]
  in
  J.Obj
    [
      ("seed", J.Int cfg.a_seed);
      ("algo", J.String (Search.algo_to_string cfg.a_algo));
      ("budget", J.Int cfg.a_budget);
      ("max_len", J.Int cfg.a_max_len);
      ("lambda", J.Fixed (4, cfg.a_lambda));
      ("classes", J.Int cfg.a_classes);
      ("challenges", J.Int r.r_challenges);
      ("models", J.Obj (List.map (fun f -> (f.mf_kind, front f)) r.r_fronts));
    ]

let report_to_json cfg r = Yali_util.Json.pretty (report_json cfg r) ^ "\n"

(** Two reports are bit-identical — the via-serve acceptance check. *)
let reports_identical (a : report) (b : report) : bool =
  Stdlib.compare a b = 0
