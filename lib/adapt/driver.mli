(** The adaptive-evader driver (DESIGN.md §14): dataset → trained
    snapshots → per-model sequence search → cost-priced Pareto fronts,
    deterministic in the seed and bit-identical at any [--jobs]. *)

type config = {
  a_seed : int;
  a_classes : int;
  a_train_per_class : int;
  a_challenges_per_class : int;
  a_models : string list;  (** snapshot kinds: rf svm knn lr mlp *)
  a_algo : Search.algo;
  a_budget : int;  (** total fitness evaluations per model *)
  a_batch : int;  (** parallel evaluation width / chain count *)
  a_max_len : int;
  a_lambda : float;  (** cost price per unit multiplier above 1 *)
  a_vectors : int;  (** seeded input vectors per challenge *)
  a_fuel : int;
}

val default : config

(** The embedding every searched model trains over (histogram). *)
val embedding : Yali_embeddings.Embedding.t

(** Everything the in-process and via-serve runs must share: the trained
    snapshots (one per kind, in [a_models] order) and the prepared
    challenges. *)
type prepared = {
  p_snapshots : (string * Yali_ml.Model.snapshot) list;
  p_challenges : Fitness.challenge array;
  p_n_train : int;
}

(** @raise Invalid_argument when [a_models] names a kind twice, or a
    per-class count is below 1 *)
val prepare : ?log:(string -> unit) -> config -> prepared

(** The in-process margins oracle of a snapshot (embed, then
    {!Yali_ml.Model.margins}); pure, safe from pool workers. *)
val oracle_of_snapshot :
  Yali_ml.Model.snapshot -> Yali_ir.Irmod.t -> float array

type model_front = {
  mf_kind : string;
  mf_base : Fitness.eval;  (** the passive evader (empty sequence) *)
  mf_best : Fitness.eval;
  mf_front : Pareto.point list;
  mf_evals : int;
}

type report = { r_fronts : model_front list; r_challenges : int }

(** Search every prepared model.  [oracle_for] may substitute a remote
    ({!Remote}) oracle per kind — [None] falls back to the in-process
    snapshot; because margins are bit-exact either way, the report is
    identical. *)
val search_fronts :
  ?log:(string -> unit) ->
  ?oracle_for:(string -> (Yali_ir.Irmod.t -> float array) option) ->
  config ->
  prepared ->
  report

(** {!prepare} then {!search_fronts}. *)
val run :
  ?log:(string -> unit) ->
  ?oracle_for:(string -> (Yali_ir.Irmod.t -> float array) option) ->
  config ->
  report

(** {!search_fronts} with every kind's margins answered by its own
    daemon: publish the prepared snapshots into a scratch registry, start
    one daemon per kind through [command]
    ({!Yali_serve.Client.with_daemons}) and route each kind's queries
    through {!Remote}.  Margins travel f64-exact, so the report is
    {!search_fronts}'s; it comes with whether every daemon exited 0.  The
    scratch directory is removed afterwards.
    @raise Yali_serve.Client.No_answer when a daemon never answers a ping
    or leaves a query unanswered *)
val search_fronts_via_serve :
  ?log:(string -> unit) ->
  command:Yali_serve.Client.command ->
  config ->
  prepared ->
  report * bool

(** The report as a JSON value (the [report] section of
    [BENCH_adapt.json]). *)
val report_json : config -> report -> Yali_util.Json.t

(** {!report_json} printed (the [--out] payload). *)
val report_to_json : config -> report -> string

(** Structural identity of two reports — the via-serve acceptance check. *)
val reports_identical : report -> report -> bool
