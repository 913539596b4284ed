(** The two correctness tiers.

    {b Smoke} is part of tier-1 [dune runtest] (seconds): a handful of
    generated programs through every pass and pipeline, plus the invariant
    oracles at shallow case counts.  {b Deep} is the CI / [make check-deep]
    tier (minutes): hundreds of generated programs per pass, deep oracle
    sweeps, minimized counterexamples written to [out_dir] as [.c]
    artifacts, and optional persistence of reproducers into the regression
    corpus. *)

type tier = Smoke | Deep

type config = {
  seed : int;
  tier : tier;
  per_pass : int option;  (** override the tier's programs-per-pass *)
  prop_count : int option;  (** override the tier's oracle case count *)
  out_dir : string option;  (** minimized counterexamples + report land here *)
  save_findings : bool;  (** persist reproducers into the corpus *)
  corpus_dir : string option;
  log : string -> unit;
}

val default : config

type report = {
  e_tv : Tv.report;
  e_props : Prop.result list;
  e_ok : bool;  (** no translation-validation failures, no oracle failures *)
}

val run : config -> report
val summary : report -> string
