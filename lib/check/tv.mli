(** The differential-testing engine: translation validation of every
    {!Passdb} entry on generated and corpus programs.

    One {!validate} call checks one entry on one program: lower at [-O0],
    verify, execute on seeded input vectors on the VM
    ({!Yali_vm.Execution.prepare}; its own differential oracle checks it
    against the frozen interpreter); apply the entry's stages one at a
    time, re-verifying the SSA/dominance invariants
    ({!Yali_ir.Verify.check_module}) after {e every} stage; re-run and
    compare observable behaviour.  A miscompile is localized to its entry,
    and a broken invariant to the stage that introduced it.

    {!run} fans generated programs out over the {!Yali_exec.Pool}
    (bit-identical findings at any [--jobs]), replays the regression corpus
    first, and minimizes every failing program with {!Shrink} down to a
    minimal reproducer + entry name. *)

module Rng = Yali_util.Rng

type failure_kind =
  | Verify_failed of { stage : string; error : string }
      (** the stage broke an SSA/dominance/CFG invariant *)
  | Transform_crash of { stage : string; error : string }
  | Run_crash of { input_ix : int; error : string }
  | Divergence of { input_ix : int; expected : string; got : string }

type verdict =
  | Valid  (** verifier-clean and observationally equivalent *)
  | Bad_baseline of string
      (** the program itself failed to lower/verify/run — a generator or
          corpus problem, not attributable to the entry *)
  | Miscompiled of failure_kind

val failure_kind_to_string : failure_kind -> string

(** Baseline interpreter fuel; an entry gets [fuel * efuel]. *)
val default_fuel : int

(** [validate entry rng p] — rng children: 0 seeds the input vectors,
    [salt entry.ename] seeds the entry, whose stage [k] runs under child
    [k] of that (stable under re-validation of a single entry, as the
    shrink predicate does). *)
val validate :
  ?fuel:int ->
  ?vectors:int ->
  Passdb.entry ->
  Rng.t ->
  Yali_minic.Ast.program ->
  verdict

type failure = {
  f_pass : string;  (** entry name, ["baseline"] or ["corpus-parse"] *)
  f_origin : string;  (** ["gen:<ix>"] or ["corpus:<file>"] *)
  f_kind : failure_kind;
  f_program : Yali_minic.Ast.program option;
      (** [None] for a corpus file that did not parse *)
  f_minimized : Yali_minic.Ast.program option;
}

val pp_failure : Format.formatter -> failure -> unit

type config = {
  seed : int;
  per_pass : int;  (** generated programs validated against every entry *)
  entries : Passdb.entry list;
  gen_cfg : Gen.cfg;
  fuel : int;
  vectors : int;
  shrink : bool;
  shrink_checks : int;
  corpus_dir : string option;  (** replayed through every entry first *)
  log : string -> unit;
}

(** Seed 42, 50 programs per entry, {!Passdb.all}, shrinking on, corpus
    replay from {!Corpus.default_dir}. *)
val default : config

type report = {
  c_passes : int;  (** entries validated *)
  c_programs : int;  (** distinct programs (corpus + generated) *)
  c_corpus : int;  (** corpus entries replayed *)
  c_validations : int;  (** program x entry validations *)
  c_failures : failure list;
  c_elapsed : float;
}

val run : config -> report
val summary : report -> string
