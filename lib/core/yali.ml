(** Yali — the public umbrella API.

    A game-based framework to compare program classifiers and evaders
    (re-implementation of Damásio et al., CGO 2023).  This module re-exports
    the stable public surface; see the README for a tour.

    {1 Substrates}
    - {!Ir}: the miniature SSA IR (63 opcodes, verifier, interpreter)
    - {!Minic}: the mini-C frontend (AST, parser, printer, lowering)
    - {!Transforms}: optimization passes and [-O0]…[-O3] pipelines
    - {!Obfuscation}: O-LLVM-style passes, source transformations, evaders
    - {!Embeddings}: nine program embeddings
    - {!Ml}: six stochastic classification models
    - {!Dataset}: the synthetic POJ-104-style corpus, MIRAI suite,
      benchmark-game kernels
    - {!Exec}: the execution runtime — domain pool and telemetry
      ([--jobs], [--telemetry])
    - {!Vm} / {!Execution}: the pre-compiling IR virtual machine, which
      runs every program, and its compile-once runner; the interpreter
      stays the frozen oracle the VM is checked against
    - {!Check}: the correctness-tooling layer — property-testing engine,
      the differential-testing engine (every pass, pipeline and
      optimize/obfuscate composition against the [-O0] baseline, verified
      after every stage), invariant oracles, smoke/deep tiers
      ([yali check])
    - {!Serve}: classification-as-a-service — binary IR codec, versioned
      model registry, micro-batching daemon ([yali serve])
    - {!Corpus}: paper-scale corpora — streaming sharded generation,
      out-of-core feature files, minibatch training ([yali corpus])
    - {!Adapt}: adaptive evaders — classifier-in-the-loop search over
      obfuscation-pass sequences with cost-priced Pareto fronts
      ([yali adapt])

    {1 The games}
    - {!Games}: Definitions 2.1–2.4, the four games, the arena. *)

module Util = Yali_util
module Rng = Yali_util.Rng
module Exec = Yali_exec
module Ir = Yali_ir
module Minic = Yali_minic
module Transforms = Yali_transforms
module Obfuscation = Yali_obfuscation
module Embeddings = Yali_embeddings
module Ml = Yali_ml
module Dataset = Yali_dataset
module Games = Yali_games
module Check = Yali_check
module Serve = Yali_serve
module Corpus = Yali_corpus
module Adapt = Yali_adapt
module Vm = Yali_vm.Vm
module Execution = Yali_vm.Execution

(** Parse mini-C source text into an AST. *)
let parse = Yali_minic.Parser.parse_program

(** Lower a mini-C program to an IR module (clang -O0 style). *)
let lower = Yali_minic.Lower.lower_program ?name:None

(** Compile source text straight to IR, at a chosen optimization level. *)
let compile ?(optimize = Yali_transforms.Pipeline.O0) (src : string) :
    Yali_ir.Irmod.t =
  Yali_transforms.Pipeline.optimize optimize (lower (parse src))

(** Run a module's [main] on a list of integer inputs, on the VM. *)
let run = Yali_vm.Vm.run
