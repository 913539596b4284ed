(** The differential oracle: one program, every pipeline variant, identical
    observable behaviour.

    A check lowers the program at [-O0] (the baseline), applies each
    variant's stages with {!Yali_ir.Verify} after every stage, and runs the
    result on a vector of seeded input streams; verifier errors, transform
    exceptions, runtime faults and observable differences are reported as
    failures.  A check is a pure function of (rng state, program): all
    randomness is derived via {!Yali_util.Rng.split_ix}. *)

type failure_kind =
  | Verify_failed of { stage : string; error : string }
  | Transform_crash of { stage : string; error : string }
  | Run_crash of { input_ix : int; error : string }
  | Divergence of { input_ix : int; expected : string; got : string }

type failure = { fvariant : string; fkind : failure_kind }

type result = {
  baseline_ok : bool;  (** the [-O0] build itself lowered, verified, ran *)
  execs : int;  (** interpreter runs performed *)
  failures : failure list;  (** at most one per variant, baseline included *)
}

val failure_kind_to_string : failure_kind -> string
val pp_failure : Format.formatter -> failure -> unit

(** Seeded input streams shared by every variant of one check (does not
    advance [rng]). *)
val inputs_for : Yali_util.Rng.t -> vectors:int -> len:int -> int64 list array

(** Baseline interpreter fuel; variants get [fuel * vfuel]. *)
val default_fuel : int

val check :
  ?fuel:int ->
  ?variants:Yali_check.Pipelines.variant list ->
  ?inputs:int64 list array ->
  Yali_util.Rng.t ->
  Yali_minic.Ast.program ->
  result
