(** Streaming dataset generation: programs flow from the generator straight
    into a sharded {!Store}, one shard per pool task, nothing resident
    beyond the shard being written (DESIGN.md §12).

    Generation is index-based ({!Yali_dataset.Poj.plan}): record [i] is a
    pure function of the spec, so the streamed corpus and the in-memory
    {!materialize} reference path produce structurally equal modules in the
    same order — the [corpus/*] oracles in {!Yali_check.Oracles} hold the
    two against each other. *)

(** A corpus recipe.  [dataset] is ["poj"] (the first [n_classes] POJ
    problems) or ["genprog2"] (all {!Yali_dataset.Genprog2} problems;
    [n_classes] must equal {!Yali_dataset.Genprog2.count}). *)
type spec = { dataset : string; seed : int; n_classes : int; per_class : int }

(** ["poj:seed=42:classes=104:per=500"] — the string recorded as the
    corpus {!Store.meta} and in registry entries trained from it. *)
val spec_to_string : spec -> string

val spec_of_string : string -> (spec, string) result

(** Total records of a spec. *)
val size : spec -> int

(** The sampling plan behind a spec (train side only; test sets come from
    a separate spec at a different seed).
    @raise Invalid_argument on an unknown dataset, a class count the
    dataset cannot provide or a per-class count below 1 *)
val plan : spec -> Yali_dataset.Poj.plan

(** Generate the corpus into [dir] (created when missing), shard-parallel
    over {!Yali_exec.Pool}: shard [s] owns records
    [[s*records_per_shard, (s+1)*records_per_shard)), and every task
    lowers, encodes and appends only its own shard.  Deterministic at any
    [jobs].  First deletes the directory's feature files
    ({!Store.remove_features}), which describe the records it replaces.
    @raise Invalid_argument as {!plan} does, or on [records_per_shard < 1],
    before [dir] is created *)
val generate : dir:string -> ?records_per_shard:int -> spec -> unit

(** The in-memory reference path: every record of the spec as a lowered
    module with its label, in corpus record order. *)
val materialize : spec -> (Yali_ir.Irmod.t * int) array
