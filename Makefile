# Convenience targets; everything is ultimately driven by dune.

.PHONY: all build build-all test check check-smoke check-deep smoke bench bench-kernels bench-vm bench-adapt bench-nn fmt clean

all: build

build:
	dune build

# @all also compiles examples/ and bench/, which `dune runtest` skips.
build-all:
	dune build @all

test:
	dune runtest

# The PR gate: full build (including examples and bench) + test suite, then
# a 2-domain smoke run of the figure harness to exercise the
# parallel/telemetry paths end to end, and a short differential run
# over every registered pass, pipeline and composition.
check: build-all test smoke check-smoke

smoke:
	dune exec bench/main.exe -- --jobs 2 --quick fig5

# Differential smoke (seconds): 50 generated programs (plus the regression
# corpus) through every Passdb entry, verified after every stage and
# compared against the -O0 baseline, plus the invariant oracles at smoke
# depth; exits non-zero on any failure.  A smaller smoke tier also runs
# inside `dune runtest` (test/test_check.ml).
check-smoke:
	dune exec bin/yali_cli.exe -- check --seed 2 --per-pass 50 --jobs 2

# The deep correctness tier (DESIGN.md §9, minutes): 200 generated programs
# through every pass, pipeline and composition with translation validation,
# plus 300-case sweeps of every invariant oracle.  Minimized counterexamples
# are written to _check_artifacts/ on failure.
check-deep:
	dune exec bin/yali_cli.exe -- check --deep --seed 42 --out _check_artifacts

bench:
	dune exec bench/main.exe

# Numeric-kernel gate (DESIGN.md §8): rewritten kernels and flat trainers
# vs the frozen lib/ml/reference.ml implementations, with speedups in
# BENCH_kernels.json (rows rf-train ... lr-train, svm-train, mlp-train ...).
# Exits non-zero unless the rf trees match node for node, rf and k-NN
# predictions match, lr, svm and mlp weights are bitwise identical
# (lr_/svm_/mlp_weights_bit_identical) and the distance sweep agrees
# within 1e-9.
bench-kernels:
	dune exec bench/main.exe -- --quick kernels

# Engine benchmark (DESIGN.md §10): the frozen reference interpreter vs the
# pre-compiling VM on interpretation-bound kernels and a generated-program
# corpus, with speedups persisted in BENCH_vm.json.  Exits 1 if the two
# engines give a different result on any kernel or corpus run it times.
bench-vm:
	dune exec bench/main.exe -- --quick interp

# Adaptive-evader gate (DESIGN.md §14): classifier-in-the-loop sequence
# search for each default model kind, Pareto fronts in BENCH_adapt.json.
# Exits non-zero unless at least two classifiers yield a 3-point front,
# the via-serve rerun is bit-identical and every daemon exits 0 on
# SIGTERM — this is CI's adapt gate.
bench-adapt:
	dune exec bench/main.exe -- --quick --jobs 2 adapt

# Neural-tier gate (DESIGN.md §15): kernelized minibatch cnn/dgcnn
# trainers vs the frozen per-sample reference.  Exits non-zero unless the
# cnn step kernel is >=5x over the reference and the trained weights are
# bit-identical and jobs-invariant -- this is CI's nn gate.  Numbers land
# in BENCH_nn.json.
bench-nn:
	dune exec bench/main.exe -- --quick nn

# Requires ocamlformat (not part of `check`: it is not installed everywhere).
fmt:
	dune fmt

clean:
	dune clean
