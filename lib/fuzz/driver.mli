(** The fuzzing campaign driver: corpus replay, parallel generation,
    shrinking, reporting.  Findings and telemetry totals are bit-identical
    at any [--jobs] setting; the optional time budget is checked between
    fixed-size chunks. *)

type config = {
  seed : int;
  count : int;  (** programs to generate (on top of the corpus) *)
  time_budget : float option;  (** wall seconds; checked between chunks *)
  shrink : bool;  (** minimize failing programs before reporting *)
  corpus_dir : string option;  (** replayed first when it exists *)
  save_findings : bool;  (** persist minimized reproducers to the corpus *)
  variants : Yali_check.Pipelines.variant list;
  gen_cfg : Yali_check.Gen.cfg;
  fuel : int;
  shrink_checks : int;  (** predicate-call cap per shrink *)
  log : string -> unit;  (** progress lines; [ignore] for silence *)
}

(** Seed 42, 100 programs, all variants, shrinking on, corpus at
    {!Yali_check.Corpus.default_dir}, no persistence, silent. *)
val default : config

type finding = {
  f_origin : string;  (** ["gen:<ix>"] or ["corpus:<file>"] *)
  f_failures : Oracle.failure list;  (** every failing variant *)
  f_program : Yali_minic.Ast.program;
  f_minimized : Yali_minic.Ast.program option;
  f_saved : string option;  (** corpus path when persisted *)
}

type report = {
  r_corpus : int;  (** corpus entries replayed *)
  r_programs : int;  (** programs checked, corpus included *)
  r_execs : int;  (** interpreter runs *)
  r_verify_failures : int;
  r_divergences : int;
  r_crashes : int;  (** transform exceptions and runtime faults *)
  r_findings : finding list;
  r_elapsed : float;
}

val run : config -> report

(** Human-readable report: totals, then each finding with its minimized
    reproducer. *)
val summary : report -> string
