(** The single pass registry behind the differential-testing engine
    ({!Tv}) and the IR oracles ({!Oracles}).

    An {!entry} is a named sequence of IR-to-IR stages applied to the
    [-O0] lowering of a program.  {!all} covers everything the paper's
    games can hand a classifier: the clang-style [-O0]…[-O3] pipelines,
    every optimization pass on its own, each O-LLVM obfuscator,
    compositions of the two families ([fla+O2] and friends) and the
    flattening obfuscators applied twice ([fla+fla] and friends).  A pass
    registered here gets translation validation, the engine and codec
    oracles, and the deep CI tier for free. *)

type stage = {
  sname : string;  (** one transform, e.g. ["O2"] or ["fla"] *)
  srun : Yali_util.Rng.t -> Yali_ir.Irmod.t -> Yali_ir.Irmod.t;
}

type entry = {
  ename : string;
  efuel : int;
      (** interpreter fuel multiplier vs the [-O0] baseline (obfuscators
          add dispatch loops and bogus blocks) *)
  estages : stage list;  (** applied in order to the [-O0] lowering *)
}

(** A one-stage entry around a deterministic module transform (fuel
    multiplier 4 unless given). *)
val pure :
  ?fuel:int -> string -> (Yali_ir.Irmod.t -> Yali_ir.Irmod.t) -> entry

(** [(stage, exn)]: stage [stage], or the [check] run on its output,
    raised [exn]. *)
exception Stage_failed of string * exn

(** [apply ?check e rng m] runs [e]'s stages in order on [m], stage [k]
    under [Rng.split_ix rng k], and calls [check] on every stage's output
    before the next stage runs.
    @raise Stage_failed naming the stage that raised *)
val apply :
  ?check:(Yali_ir.Irmod.t -> unit) ->
  entry ->
  Yali_util.Rng.t ->
  Yali_ir.Irmod.t ->
  Yali_ir.Irmod.t

(** The 26 built-in entries: [O0]–[O3], the transform passes in registry
    order, [sub]/[bcf]/[fla]/[ollvm], the six compositions of the two
    families, then the four flattening obfuscators composed with each
    other ([fla+fla], [fla+ollvm], [ollvm+fla], [ollvm+ollvm]).  The
    order is fixed: the oracles key each entry's rng on its position. *)
val all : entry list

val find : string -> entry option
