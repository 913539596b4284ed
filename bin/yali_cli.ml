(** yali — command-line driver.

    Subcommands:
    - [compile]   mini-C → IR, at a chosen optimization level
    - [run]       execute a program on an input stream
    - [obfuscate] apply an evader and print the result
    - [embed]     print a program's embedding vector
    - [generate]  sample a program from the synthetic POJ-104 corpus
    - [dataset]   export the corpus as .c files
    - [opt]       run a pass pipeline over textual IR (an `opt` clone)
    - [play]      run one adversarial game and report the verdict
    - [check]     differential testing of every pass and pipeline +
                  invariant oracles
    - [train]     train a classifier and publish it into a model registry
    - [serve]     classification daemon on a Unix socket
    - [query]     talk to a running daemon
    - [adapt]     classifier-in-the-loop adaptive evaders (Pareto fronts) *)

open Cmdliner
module Rng = Yali.Rng

(* the one fatal-error exit path: code 2 = usage/flag error, code 1 =
   runtime failure *)
let die ~code fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit code)
    fmt

(* The one program loader: [front] turns the text of [file] into a program
   (parse, lower).  A lex, parse or lowering error is reported as
   FILE: message with exit 1. *)
let load file front =
  match front (Yali.Util.Fs.read_file file) with
  | p -> p
  | exception Yali.Minic.Lexer.Lex_error (msg, pos) ->
      die ~code:1 "%s: %s at byte %d" file msg pos
  | exception
      ( Yali.Minic.Parser.Parse_error msg
      | Yali.Minic.Lower.Lower_error msg
      | Yali.Ir.Parser.Parse_error msg ) ->
      die ~code:1 "%s: %s" file msg

(* mini-C source: the AST and its lowered module *)
let load_source file =
  load file (fun src ->
      let p = Yali.parse src in
      (p, Yali.lower p))

let compile_file level file =
  Yali.Transforms.Pipeline.optimize level (snd (load_source file))

let src_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Mini-C source file.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

(* execution-runtime knobs (lib/exec); results are bit-identical at any
   jobs setting *)
let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel runtime (default: \\$(b,YALI_JOBS) \
           or the recommended domain count).")

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:
          "Write the execution runtime's JSON report (tasks, steals, \
           per-phase time) to \\$(docv).")

let configure_jobs = function
  | Some n when n >= 1 -> Yali.Exec.Pool.set_jobs n
  | Some _ -> die ~code:2 "--jobs must be positive"
  | None -> ()

(* engine switchboard (lib/vm): both engines produce bit-identical
   outcomes, so this only trades speed *)
let engine_arg =
  Arg.(
    value
    & opt string "vm"
    & info [ "engine" ] ~docv:"vm|ref"
        ~doc:
          "Execution engine: the pre-compiling virtual machine ($(b,vm), \
           default) or the frozen reference interpreter ($(b,ref)); \
           outcomes are bit-identical.")

let configure_engine s =
  match Yali.Execution.engine_of_string s with
  | Some e -> Yali.Execution.set_engine e
  | None -> die ~code:2 "unknown engine %s (have: vm ref)" s

(* fail on an unwritable output before the work that fills it, not after *)
let check_writable flag path =
  try Yali.Util.Fs.touch path
  with Sys_error msg -> die ~code:2 "%s: cannot write %s" flag msg

let make_out_dir flag dir =
  try Yali.Util.Fs.mkdir_p dir
  with Sys_error msg -> die ~code:2 "%s: cannot create %s (%s)" flag dir msg

let configure_telemetry = Option.iter (check_writable "--telemetry")

let dump_telemetry = function
  | Some path ->
      Yali.Exec.Telemetry.write_json path;
      Printf.printf "telemetry report written to %s\n" path
  | None -> ()

let level_arg =
  let parse s =
    match Yali.Transforms.Pipeline.level_of_string s with
    | Some l -> Ok l
    | None -> Error (`Msg ("unknown optimization level: " ^ s))
  in
  let print fmt l =
    Fmt.string fmt (Yali.Transforms.Pipeline.level_to_string l)
  in
  Arg.(
    value
    & opt (conv (parse, print)) Yali.Transforms.Pipeline.O0
    & info [ "O"; "opt" ] ~docv:"LEVEL" ~doc:"Optimization level (O0..O3).")

(* -- compile --------------------------------------------------------------- *)

let compile_cmd =
  let run level file =
    print_string (Yali.Ir.Pp.module_to_string (compile_file level file))
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile mini-C to IR and print it.")
    Term.(const run $ level_arg $ src_arg)

(* -- run ------------------------------------------------------------------- *)

let input_arg =
  Arg.(
    value
    & opt (list int) []
    & info [ "input"; "i" ] ~docv:"INTS" ~doc:"Comma-separated input stream.")

let run_cmd =
  let run engine level file input =
    configure_engine engine;
    let m = compile_file level file in
    if Yali.Ir.Irmod.find_func m "main" = None then
      die ~code:1 "%s: no function main" file;
    let fuel = 10_000_000 (* Interp.run's default budget *) in
    let o =
      try Yali.run ~fuel m (List.map Int64.of_int input) with
      | Yali.Ir.Interp.Trap msg -> die ~code:1 "%s: trap: %s" file msg
      | Yali.Ir.Interp.Out_of_fuel ->
          die ~code:1 "%s: out of fuel after %d steps" file fuel
    in
    List.iter (fun x -> Printf.printf "%Ld\n" x) o.output;
    List.iter (fun x -> Printf.printf "%g\n" x) o.foutput;
    Printf.printf "; steps=%d cost=%d\n" o.steps o.cost
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute a mini-C program (VM by default, --engine=ref for the \
             reference interpreter).")
    Term.(const run $ engine_arg $ level_arg $ src_arg $ input_arg)

(* -- obfuscate ------------------------------------------------------------- *)

let evader_arg =
  Arg.(
    value
    & opt string "ollvm"
    & info [ "evader"; "e" ] ~docv:"NAME"
        ~doc:"Evader: none, O3, ollvm, bcf, fla, sub, rs, mcmc, drlsg, ga.")

let obfuscate_cmd =
  let run seed evader file =
    match Yali.Obfuscation.Evader.find evader with
    | None -> die ~code:2 "unknown evader: %s" evader
    | Some e ->
        let m = e.apply (Rng.make seed) (fst (load_source file)) in
        print_string (Yali.Ir.Pp.module_to_string m)
  in
  Cmd.v
    (Cmd.info "obfuscate" ~doc:"Apply an evader and print the resulting IR.")
    Term.(const run $ seed_arg $ evader_arg $ src_arg)

(* -- embed ----------------------------------------------------------------- *)

let embedding_arg =
  Arg.(
    value
    & opt string "histogram"
    & info [ "embedding" ] ~docv:"NAME"
        ~doc:
          "Embedding: histogram, milepost, ir2vec, cfg, cfg_compact, cdfg, \
           cdfg_compact, cdfg_plus, programl.")

let embed_cmd =
  let run level embedding file =
    match Yali.Embeddings.Embedding.find embedding with
    | None -> die ~code:2 "unknown embedding: %s" embedding
    | Some e ->
        let v = Yali.Embeddings.Embedding.to_flat e (compile_file level file) in
        Array.iteri (fun k x -> Printf.printf "%s%g" (if k = 0 then "" else " ") x) v;
        print_newline ()
  in
  Cmd.v
    (Cmd.info "embed" ~doc:"Print the embedding vector of a program.")
    Term.(const run $ level_arg $ embedding_arg $ src_arg)

(* -- generate --------------------------------------------------------------- *)

let generate_cmd =
  let problem_arg =
    Arg.(
      value
      & opt string "gcd"
      & info [ "problem"; "p" ] ~docv:"NAME"
          ~doc:"Problem class name (one of the 104).")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List the 104 problem classes.")
  in
  let run seed problem list_them =
    if list_them then
      List.iter
        (fun (p : Yali.Dataset.Genprog.problem) ->
          Printf.printf "%3d %s\n" p.pid p.pname)
        Yali.Dataset.Genprog.all
    else
      match Yali.Dataset.Genprog.find_by_name problem with
      | None -> die ~code:2 "unknown problem: %s" problem
      | Some p ->
          print_string
            (Yali.Minic.Pp.program_to_string (p.generate (Rng.make seed)))
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Sample a program from the synthetic corpus.")
    Term.(const run $ seed_arg $ problem_arg $ list_arg)

(* -- dataset: export a corpus to disk --------------------------------------- *)

let dataset_cmd =
  let out_arg =
    Arg.(
      value & opt string "dataset"
      & info [ "out"; "o" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let classes_arg =
    Arg.(value & opt int 104 & info [ "classes" ] ~doc:"Number of classes.")
  in
  let per_class_arg =
    Arg.(value & opt int 10 & info [ "per-class" ] ~doc:"Samples per class.")
  in
  let run seed out classes per_class =
    let n_problems = List.length Yali.Dataset.Genprog.all in
    if classes < 1 || classes > n_problems then
      die ~code:2 "--classes must be in 1..%d, got %d" n_problems classes;
    if per_class < 1 then die ~code:2 "--per-class must be positive";
    make_out_dir "--out" out;
    let rng = Rng.make seed in
    List.iteri
      (fun k (p : Yali.Dataset.Genprog.problem) ->
        if k < classes then begin
          let dir = Filename.concat out (Printf.sprintf "%03d_%s" p.pid p.pname) in
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          for s = 0 to per_class - 1 do
            let prog = p.generate (Rng.split rng) in
            let path = Filename.concat dir (Printf.sprintf "%04d.c" s) in
            let oc = open_out path in
            output_string oc (Yali.Minic.Pp.program_to_string prog);
            close_out oc
          done
        end)
      Yali.Dataset.Genprog.all;
    Printf.printf "wrote %d classes x %d samples under %s/\n" classes per_class out
  in
  Cmd.v
    (Cmd.info "dataset"
       ~doc:"Export the synthetic POJ-104-style corpus as .c files.")
    Term.(const run $ seed_arg $ out_arg $ classes_arg $ per_class_arg)

(* -- opt: an `opt`-style pass driver over textual IR ----------------------- *)

let opt_cmd =
  let passes_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "passes" ] ~docv:"P1,P2,..."
          ~doc:
            "Pass pipeline, e.g. mem2reg,constfold,licm,dce.  Available: \
             mem2reg constfold instcombine dce simplifycfg gvn inline licm.")
  in
  let run passes file =
    let passes =
      List.map
        (fun name ->
          match Yali.Transforms.Pipeline.find_pass name with
          | Some p -> p
          | None -> die ~code:2 "unknown pass: %s" name)
        passes
    in
    (* accept either textual IR or mini-C *)
    let m =
      load file (fun src ->
          if
            String.starts_with ~prefix:";" src
            || String.starts_with ~prefix:"define" src
          then Yali.Ir.Parser.parse_module src
          else Yali.lower (Yali.parse src))
    in
    let verify what m =
      match Yali.Ir.Verify.check_module m with
      | [] -> ()
      | errs ->
          List.iter (fun e -> Fmt.epr "%a@." Yali.Ir.Verify.pp_error e) errs;
          die ~code:1 "opt: %s" what
    in
    verify (file ^ " is not a valid module") m;
    let m =
      List.fold_left
        (fun m (p : Yali.Transforms.Pipeline.pass) -> p.prun m)
        m passes
    in
    verify "the pipeline produced an invalid module" m;
    print_string (Yali.Ir.Pp.module_to_string m)
  in
  Cmd.v
    (Cmd.info "opt"
       ~doc:"Run a pass pipeline over textual IR (or mini-C) and print the result.")
    Term.(const run $ passes_arg $ src_arg)

(* -- play ------------------------------------------------------------------- *)

let play_cmd =
  let game_arg =
    Arg.(value & opt int 1 & info [ "game"; "g" ] ~docv:"0..3" ~doc:"Which game.")
  in
  let model_arg =
    Arg.(
      value
      & opt string "rf"
      & info [ "model"; "m" ] ~docv:"NAME" ~doc:"Model: rf svm knn lr mlp cnn.")
  in
  let classes_arg =
    Arg.(value & opt int 8 & info [ "classes"; "c" ] ~doc:"Number of problem classes.")
  in
  let train_arg =
    Arg.(value & opt int 15 & info [ "train" ] ~doc:"Training samples per class.")
  in
  let test_arg =
    Arg.(value & opt int 5 & info [ "test" ] ~doc:"Test samples per class.")
  in
  let threshold_arg =
    Arg.(value & opt float 0.5 & info [ "threshold"; "k" ] ~doc:"Win threshold K.")
  in
  let run seed jobs telemetry game evader model classes train test threshold =
    if train < 1 then die ~code:2 "--train must be positive";
    if test < 1 then die ~code:2 "--test must be positive";
    configure_jobs jobs;
    configure_telemetry telemetry;
    let e =
      match Yali.Obfuscation.Evader.find evader with
      | Some e -> e
      | None -> die ~code:2 "unknown evader: %s" evader
    in
    let m =
      match Yali.Ml.Model.find_flat model with
      | Some m -> m
      | None -> die ~code:2 "unknown model: %s" model
    in
    let setup =
      match game with
      | 0 -> Yali.Games.Game.game0
      | 1 -> Yali.Games.Game.game1 e
      | 2 -> Yali.Games.Game.game2 e
      | 3 -> Yali.Games.Game.game3 e
      | _ -> die ~code:2 "game must be 0..3"
    in
    let rng = Rng.make seed in
    let split =
      try
        Yali.Dataset.Poj.make rng ~n_classes:classes ~train_per_class:train
          ~test_per_class:test
      with Invalid_argument msg -> die ~code:2 "%s" msg
    in
    let r =
      Yali.Games.Arena.run_flat (Rng.split rng) ~n_classes:classes
        Yali.Embeddings.Embedding.histogram m setup split
    in
    Printf.printf "%s  evader=%s model=%s classes=%d\n" setup.game_name
      e.ename model classes;
    Printf.printf "accuracy=%.4f f1=%.4f model=%dKB train=%.1fs\n" r.accuracy
      r.f1 (r.model_bytes / 1024) r.train_seconds;
    Printf.printf "classifier %s (threshold %.2f)\n"
      (if r.accuracy > threshold then "WINS" else "LOSES")
      threshold;
    dump_telemetry telemetry
  in
  Cmd.v
    (Cmd.info "play" ~doc:"Play one adversarial game and report the verdict.")
    Term.(
      const run $ seed_arg $ jobs_arg $ telemetry_arg $ game_arg $ evader_arg
      $ model_arg $ classes_arg $ train_arg $ test_arg $ threshold_arg)

(* -- check: differential testing + invariant oracles ----------------------- *)

let check_cmd =
  let deep_arg =
    Arg.(
      value & flag
      & info [ "deep" ]
          ~doc:
            "Run the deep tier (hundreds of generated programs per pass and \
             deep oracle sweeps) instead of the smoke tier.")
  in
  let per_pass_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "per-pass" ] ~docv:"N"
          ~doc:
            "Generated programs validated against every pass (default: 5 \
             smoke, 200 deep).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "On failure, write minimized counterexamples and the report \
             into \\$(docv) (CI uploads these as artifacts).")
  in
  let save_arg =
    Arg.(
      value & flag
      & info [ "save" ]
          ~doc:"Persist minimized reproducers into the regression corpus.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt string Yali.Check.Corpus.default_dir
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Regression corpus replayed through every pass before fresh \
             generation; \"none\" disables.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No per-chunk progress.")
  in
  let run seed jobs telemetry engine deep per_pass out save corpus quiet =
    (match per_pass with
    | Some n when n < 0 -> die ~code:2 "--per-pass must be non-negative"
    | _ -> ());
    configure_jobs jobs;
    configure_telemetry telemetry;
    configure_engine engine;
    let tier = if deep then Yali.Check.Engine.Deep else Yali.Check.Engine.Smoke in
    let cfg =
      {
        Yali.Check.Engine.default with
        seed;
        tier;
        per_pass;
        out_dir = out;
        save_findings = save;
        corpus_dir = (if corpus = "none" then None else Some corpus);
        log = (if quiet then ignore else prerr_endline);
      }
    in
    Printf.printf "validating %d passes/pipelines (%s tier, seed %d, jobs %d)\n%!"
      (List.length Yali.Check.Passdb.all)
      (if deep then "deep" else "smoke")
      seed
      (Yali.Exec.Pool.get_jobs ());
    let r = Yali.Check.Engine.run cfg in
    print_string (Yali.Check.Engine.summary r);
    dump_telemetry telemetry;
    if not r.Yali.Check.Engine.e_ok then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Translation-validate every pass and pipeline on generated \
          programs and run the invariant oracles; exits nonzero on any \
          failure.")
    Term.(
      const run $ seed_arg $ jobs_arg $ telemetry_arg $ engine_arg $ deep_arg
      $ per_pass_arg $ out_arg $ save_arg $ corpus_arg $ quiet_arg)

(* -- train / serve / query: classification-as-a-service -------------------- *)

let registry_arg =
  Arg.(
    value
    & opt string "models"
    & info [ "registry" ] ~docv:"DIR" ~doc:"Model registry directory.")

let socket_arg =
  Arg.(
    value
    & opt string "yali.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket path.")

let train_cmd =
  let model_arg =
    Arg.(
      value
      & opt string "rf"
      & info [ "model"; "m" ] ~docv:"NAME" ~doc:"Model: rf svm knn lr mlp cnn.")
  in
  let classes_arg =
    Arg.(value & opt int 8 & info [ "classes"; "c" ] ~doc:"Number of problem classes.")
  in
  let per_class_arg =
    Arg.(value & opt int 15 & info [ "per-class" ] ~doc:"Training samples per class.")
  in
  let version_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "version" ] ~docv:"N"
          ~doc:"Registry version tag (default: latest+1).")
  in
  let corpus_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Train out of core from a stored corpus ($(b,yali corpus gen)) \
             instead of generating in memory; --classes/--per-class are \
             taken from the corpus.")
  in
  let block_rows_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "block-rows" ] ~docv:"N"
          ~doc:"Feature rows resident at once when training from a corpus.")
  in
  let run seed jobs registry model embedding classes per_class version corpus
      block_rows =
    configure_jobs jobs;
    make_out_dir "--registry" registry;
    let e =
      match Yali.Embeddings.Embedding.find embedding with
      | Some e -> e
      | None -> die ~code:2 "unknown embedding: %s" embedding
    in
    let trained =
      match corpus with
      | None ->
          Yali.Serve.Registry.train ~seed ~embedding:e ~kind:model
            ~n_classes:classes ~per_class
      | Some dir ->
          Yali.Corpus.Train.train ~dir ~embedding:e ~kind:model ~seed
            ?block_rows ()
    in
    match trained with
    | Error msg -> die ~code:2 "%s" msg
    | Ok entry ->
        let v, path =
          Yali.Serve.Registry.publish ~dir:registry ?version ~meta:entry.meta
            entry.snapshot
        in
        Printf.printf "published %s@%d (%s, %d classes, dim %d, %d rows) -> %s\n"
          model v embedding entry.meta.n_classes entry.meta.dim
          entry.meta.n_train path
  in
  Cmd.v
    (Cmd.info "train"
       ~doc:"Train a classifier on the synthetic corpus (in memory, or \
             streamed from an on-disk corpus with --corpus) and publish its \
             snapshot into the model registry.")
    Term.(
      const run $ seed_arg $ jobs_arg $ registry_arg $ model_arg
      $ embedding_arg $ classes_arg $ per_class_arg $ version_arg
      $ corpus_dir_arg $ block_rows_arg)

let serve_cmd =
  let model_arg =
    Arg.(
      value
      & opt string "rf"
      & info [ "model"; "m" ] ~docv:"NAME[@VER]"
          ~doc:"Registry model spec, e.g. rf or rf@3 (default: latest).")
  in
  let queue_cap_arg =
    Arg.(
      value
      & opt int Yali.Serve.Server.default.queue_cap
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:"Pending requests before the daemon answers busy.")
  in
  let max_batch_arg =
    Arg.(
      value
      & opt int Yali.Serve.Server.default.max_batch
      & info [ "max-batch" ] ~docv:"N" ~doc:"Micro-batch size cap.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No startup/shutdown log.")
  in
  let run jobs socket registry model queue_cap max_batch quiet =
    configure_jobs jobs;
    if queue_cap < 1 then die ~code:2 "--queue-cap must be positive";
    if max_batch < 1 then die ~code:2 "--max-batch must be positive";
    let cfg =
      {
        Yali.Serve.Server.socket;
        registry_dir = registry;
        model_spec = model;
        queue_cap;
        max_batch;
        log = (if quiet then ignore else prerr_endline);
      }
    in
    match Yali.Serve.Server.run cfg with
    | Ok () -> ()
    | Error msg -> die ~code:1 "serve: %s" msg
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve classifications over a Unix socket, micro-batching \
             concurrent requests (replies are independent of batching and \
             --jobs).")
    Term.(
      const run $ jobs_arg $ socket_arg $ registry_arg $ model_arg
      $ queue_cap_arg $ max_batch_arg $ quiet_arg)

let query_cmd =
  let file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Program to classify.")
  in
  let fmt_arg =
    Arg.(
      value
      & opt string "minic"
      & info [ "fmt" ] ~docv:"minic|ir|bin"
          ~doc:
            "How \\$(b,FILE) is sent: mini-C source ($(b,minic), default), \
             textual IR ($(b,ir)), or a binary codec blob ($(b,bin)).")
  in
  let ping_arg =
    Arg.(value & flag & info [ "ping" ] ~doc:"Just check the daemon is alive.")
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print the daemon's telemetry JSON.")
  in
  let shutdown_arg =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the daemon to exit.")
  in
  let run socket file fmt ping stats shutdown =
    let c =
      try Yali.Serve.Client.connect socket
      with Unix.Unix_error (err, _, _) ->
        die ~code:1 "cannot reach %s: %s" socket (Unix.error_message err)
    in
    Fun.protect
      ~finally:(fun () -> Yali.Serve.Client.close c)
      (fun () ->
        if ping then
          if Yali.Serve.Client.ping c then print_endline "pong"
          else die ~code:1 "no pong from %s" socket
        else if stats then
          match Yali.Serve.Client.stats c with
          | Ok json -> print_endline json
          | Error msg -> die ~code:1 "stats: %s" msg
        else if shutdown then Yali.Serve.Client.shutdown c
        else
          let file =
            match file with
            | Some f -> f
            | None -> die ~code:2 "query needs a FILE (or --ping/--stats/--shutdown)"
          in
          let fmt =
            match fmt with
            | "minic" -> Yali.Serve.Wire.Minic
            | "ir" -> Yali.Serve.Wire.Textual
            | "bin" -> Yali.Serve.Wire.Binary
            | other -> die ~code:2 "unknown --fmt %s (have: minic ir bin)" other
          in
          match
            Yali.Serve.Client.request c
              (Yali.Serve.Wire.Classify
                 { fmt; blob = Yali.Util.Fs.read_file file })
          with
          | Yali.Serve.Wire.Class { cls; queue_us; batch } ->
              Printf.printf "class=%d queue_us=%d batch=%d\n" cls queue_us batch
          | Yali.Serve.Wire.Busy -> die ~code:1 "daemon is busy; retry"
          | Yali.Serve.Wire.Error msg -> die ~code:1 "daemon error: %s" msg
          | _ -> die ~code:1 "unexpected reply")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Classify a program against a running daemon.")
    Term.(
      const run $ socket_arg $ file_arg $ fmt_arg $ ping_arg $ stats_arg
      $ shutdown_arg)

(* -- corpus: streaming paper-scale dataset generation ----------------------- *)

let corpus_cmd =
  let dir_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Corpus directory.")
  in
  let gen_cmd =
    let out_arg =
      Arg.(
        value
        & opt string "corpus"
        & info [ "out"; "o" ] ~docv:"DIR" ~doc:"Corpus output directory.")
    in
    let dataset_arg =
      Arg.(
        value
        & opt string "poj"
        & info [ "dataset" ] ~docv:"NAME" ~doc:"Generator: poj or genprog2.")
    in
    let classes_arg =
      Arg.(value & opt int 104 & info [ "classes"; "c" ] ~doc:"Number of classes.")
    in
    let per_class_arg =
      Arg.(value & opt int 500 & info [ "per-class" ] ~doc:"Programs per class.")
    in
    let shard_arg =
      Arg.(
        value
        & opt int 1024
        & info [ "records-per-shard" ] ~docv:"N"
            ~doc:"Records per shard file (one generation task per shard).")
    in
    let run seed jobs out dataset classes per_class records_per_shard =
      configure_jobs jobs;
      make_out_dir "--out" out;
      let spec =
        { Yali.Corpus.Gen.dataset; seed; n_classes = classes; per_class }
      in
      (try Yali.Corpus.Gen.generate ~dir:out ~records_per_shard spec
       with Invalid_argument msg -> die ~code:2 "%s" msg);
      let r = Yali.Corpus.Store.open_ out in
      Printf.printf "wrote %s: %d records in %d shards (%d bytes) under %s/\n"
        (Yali.Corpus.Store.meta r)
        (Yali.Corpus.Store.length r)
        (Yali.Corpus.Store.shard_count r)
        (Yali.Corpus.Store.total_bytes r)
        out;
      Yali.Corpus.Store.close r
    in
    Cmd.v
      (Cmd.info "gen"
         ~doc:"Generate a sharded on-disk corpus, streaming each program \
               straight to its shard (shard-parallel, deterministic at any \
               --jobs).")
      Term.(
        const run $ seed_arg $ jobs_arg $ out_arg $ dataset_arg $ classes_arg
        $ per_class_arg $ shard_arg)
  in
  let stat_cmd =
    let run dir =
      match Yali.Corpus.Store.open_ dir with
      | exception Yali.Util.Bin.Corrupt msg -> die ~code:1 "corrupt corpus: %s" msg
      | exception Sys_error msg -> die ~code:1 "no corpus: %s" msg
      | r ->
          let counts = Array.make (Yali.Corpus.Store.n_classes r) 0 in
          Array.iter
            (fun l -> counts.(l) <- counts.(l) + 1)
            (Yali.Corpus.Store.labels r);
          let min_c = Array.fold_left min max_int counts in
          let max_c = Array.fold_left max 0 counts in
          Printf.printf "spec:      %s\n" (Yali.Corpus.Store.meta r);
          Printf.printf "records:   %d\n" (Yali.Corpus.Store.length r);
          Printf.printf "classes:   %d (%d..%d per class)\n"
            (Yali.Corpus.Store.n_classes r) min_c max_c;
          Printf.printf "shards:    %d\n" (Yali.Corpus.Store.shard_count r);
          Printf.printf "bytes:     %d\n" (Yali.Corpus.Store.total_bytes r);
          Yali.Corpus.Store.close r
    in
    Cmd.v
      (Cmd.info "stat" ~doc:"Validate a corpus directory and print its shape.")
      Term.(const run $ dir_pos)
  in
  Cmd.group
    (Cmd.info "corpus"
       ~doc:"Paper-scale on-disk corpora: streaming generation and \
             inspection.")
    [ gen_cmd; stat_cmd ]

(* -- adapt: classifier-in-the-loop adaptive evaders ------------------------- *)

let adapt_cmd =
  let module D = Yali.Adapt.Driver in
  let classes_arg =
    Arg.(
      value
      & opt int D.default.a_classes
      & info [ "classes"; "c" ] ~doc:"Number of problem classes.")
  in
  let train_arg =
    Arg.(
      value
      & opt int D.default.a_train_per_class
      & info [ "train-per-class" ] ~doc:"Training samples per class.")
  in
  let challenges_arg =
    Arg.(
      value
      & opt int D.default.a_challenges_per_class
      & info [ "challenges-per-class" ]
          ~doc:"Held-out challenge programs per class.")
  in
  let models_arg =
    Arg.(
      value
      & opt string (String.concat "," D.default.a_models)
      & info [ "models" ] ~docv:"K1,K2"
          ~doc:"Comma-separated snapshot kinds to attack: rf svm knn lr mlp cnn.")
  in
  let algo_arg =
    Arg.(
      value
      & opt string (Yali.Adapt.Search.algo_to_string D.default.a_algo)
      & info [ "algo" ] ~docv:"rs|hill|mcmc|ga" ~doc:"Search strategy.")
  in
  let budget_arg =
    Arg.(
      value
      & opt int D.default.a_budget
      & info [ "budget" ] ~docv:"N"
          ~doc:"Fitness evaluations per model (the empty sequence counts).")
  in
  let batch_arg =
    Arg.(
      value
      & opt int D.default.a_batch
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Parallel evaluation width (and mcmc chain count / ga \
             population).")
  in
  let max_len_arg =
    Arg.(
      value
      & opt int D.default.a_max_len
      & info [ "max-len" ] ~docv:"N" ~doc:"Longest pass sequence searched.")
  in
  let lambda_arg =
    Arg.(
      value
      & opt float D.default.a_lambda
      & info [ "lambda" ] ~docv:"F"
          ~doc:"Fitness price per unit of cost multiplier above 1.")
  in
  let vectors_arg =
    Arg.(
      value
      & opt int D.default.a_vectors
      & info [ "vectors" ] ~docv:"N"
          ~doc:"Seeded input vectors per challenge (behaviour witness).")
  in
  let fuel_arg =
    Arg.(
      value
      & opt int D.default.a_fuel
      & info [ "fuel" ] ~docv:"N" ~doc:"Baseline interpreter fuel.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the JSON report to \\$(docv).")
  in
  let via_serve_arg =
    Arg.(
      value
      & flag
      & info [ "via-serve" ]
          ~doc:
            "Route classifier queries through freshly spawned $(b,yali \
             serve) daemons (one per model kind) instead of in-process \
             snapshots; the report is bit-identical either way.")
  in
  let run seed jobs classes train_pc chal_pc models algo budget batch max_len
      lambda vectors fuel out via_serve =
    configure_jobs jobs;
    Option.iter (check_writable "--out") out;
    let algo =
      match Yali.Adapt.Search.algo_of_string algo with
      | Some a -> a
      | None -> die ~code:2 "unknown --algo %s (have: rs hill mcmc ga)" algo
    in
    let models =
      String.split_on_char ',' models
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    if models = [] then die ~code:2 "--models must name at least one kind";
    if budget < 1 then die ~code:2 "--budget must be positive";
    if batch < 1 then die ~code:2 "--batch must be positive";
    if max_len < 1 then die ~code:2 "--max-len must be positive";
    if vectors < 1 then die ~code:2 "--vectors must be positive";
    let cfg =
      {
        D.a_seed = seed;
        a_classes = classes;
        a_train_per_class = train_pc;
        a_challenges_per_class = chal_pc;
        a_models = models;
        a_algo = algo;
        a_budget = budget;
        a_batch = batch;
        a_max_len = max_len;
        a_lambda = lambda;
        a_vectors = vectors;
        a_fuel = fuel;
      }
    in
    let log = prerr_endline in
    let prep =
      try D.prepare ~log cfg
      with Failure msg | Invalid_argument msg -> die ~code:2 "%s" msg
    in
    if Array.length prep.p_challenges = 0 then
      die ~code:1 "adapt: every challenge was dropped (raise --fuel?)";
    let report =
      if via_serve then
        let command ~socket ~registry ~spec =
          [|
            Sys.executable_name; "serve"; "--socket"; socket; "--registry";
            registry; "--model"; spec; "--quiet";
          |]
        in
        match D.search_fronts_via_serve ~log ~command cfg prep with
        | report, clean ->
            if not clean then log "adapt: a daemon did not exit cleanly";
            report
        | exception Yali.Serve.Client.No_answer msg ->
            die ~code:1 "adapt: %s" msg
      else D.search_fronts ~log cfg prep
    in
    Printf.printf "adapt: %s search, budget %d, lambda %g, %d challenges%s\n"
      (Yali.Adapt.Search.algo_to_string algo)
      budget lambda report.r_challenges
      (if via_serve then " (margins via serve)" else "");
    List.iter
      (fun (f : D.model_front) ->
        Printf.printf
          "%-5s base evasion %.2f -> best %.2f at %.2fx cost (%s), front %d \
           points\n"
          f.mf_kind f.mf_base.Yali.Adapt.Fitness.e_evasion
          f.mf_best.Yali.Adapt.Fitness.e_evasion
          f.mf_best.Yali.Adapt.Fitness.e_cost
          (Yali.Adapt.Seqspace.to_string f.mf_best.Yali.Adapt.Fitness.e_seq)
          (List.length f.mf_front);
        List.iter
          (fun (p : Yali.Adapt.Pareto.point) ->
            Printf.printf "      %.2fx  %.2f  %s\n" p.p_cost p.p_evasion
              p.p_seq)
          f.mf_front)
      report.r_fronts;
    match out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (D.report_to_json cfg report);
        close_out oc;
        Printf.printf "report written to %s\n" path
  in
  Cmd.v
    (Cmd.info "adapt"
       ~doc:
         "Search obfuscation-pass sequences with the trained classifier in \
          the loop and report the cost-priced Pareto front (evasion rate \
          vs abstract-cost multiplier); deterministic in --seed at any \
          --jobs.")
    Term.(
      const run $ seed_arg $ jobs_arg $ classes_arg $ train_arg
      $ challenges_arg $ models_arg $ algo_arg $ budget_arg $ batch_arg
      $ max_len_arg $ lambda_arg $ vectors_arg $ fuel_arg $ out_arg
      $ via_serve_arg)

let () =
  let doc = "a game-based framework to compare program classifiers and evaders" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "yali" ~doc)
          [ compile_cmd; run_cmd; obfuscate_cmd; embed_cmd; generate_cmd; dataset_cmd; opt_cmd; play_cmd; check_cmd; corpus_cmd; train_cmd; serve_cmd; query_cmd; adapt_cmd ]))
