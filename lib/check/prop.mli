(** The property-testing engine: seeded generators, labeled properties,
    integrated greedy shrinking, deterministic replay.

    This is the reusable core that {!Shrink} (and through it the
    differential-testing engine {!Tv}) and the invariant oracles are built
    on.  Everything is a pure function of an explicit seed: a property run
    derives one independent rng per case with {!Yali_util.Rng.split_ix}
    keyed by (seed, property name, case index), so any failing case can be
    replayed in isolation and results do not depend on how many other
    properties ran first. *)

(** A seeded generator: equal rng states produce equal values. *)
type 'a gen = Yali_util.Rng.t -> 'a

(** [minimize ~measure ~candidates pred x] — the generic greedy shrinking
    loop: repeatedly replace [x] with the first candidate that strictly
    decreases [measure] (polymorphic compare) and still satisfies [pred]
    ("still fails"), until none does.  Deterministic; terminates because
    the measure decreases strictly.  [max_checks] caps predicate calls,
    which dominate the cost. *)
val minimize :
  ?max_checks:int ->
  measure:('a -> 'm) ->
  candidates:('a -> 'a list) ->
  ('a -> bool) ->
  'a ->
  'a

(** A packed, labeled property (the type parameter is hidden so suites mix
    properties over different carrier types). *)
type t

(** [make ~name gen law] — a labeled property: [law] must hold for every
    generated value.  [law] may raise; exceptions are reported as failures
    with the exception text.  [show] renders counterexamples (default
    ["<opaque>"]); [candidates]/[measure] enable integrated shrinking of a
    failing case (defaults: no shrinking).  [max_count] caps the number of
    cases this one property runs regardless of the [count] passed to
    {!run} — for oracles whose per-case cost (e.g. a whole adaptive
    search, or a trainer run twice) makes the deep tier's global count
    prohibitive.  Case
    indices below the cap are unchanged, so replay keys stay valid. *)
val make :
  name:string ->
  ?show:('a -> string) ->
  ?candidates:('a -> 'a list) ->
  ?measure:('a -> int) ->
  ?max_count:int ->
  'a gen ->
  ('a -> bool) ->
  t

val name : t -> string

type outcome =
  | Pass of { cases : int }
  | Fail of {
      case_ix : int;  (** replay key: [run_case ~seed prop case_ix] *)
      error : string option;  (** exception text, [None] for plain falsity *)
      counterexample : string;
      shrunk : string option;  (** rendered minimized case, when shrinkable *)
    }

type result = { r_name : string; r_outcome : outcome }

(** [run ~seed ~count prop] — check [count] generated cases (stops at the
    first failure, then shrinks it). *)
val run : ?count:int -> seed:int -> t -> result

(** [run_case ~seed prop ix] — replay exactly case [ix] of [run ~seed];
    true when the law holds. *)
val run_case : seed:int -> t -> int -> bool

val run_all : ?count:int -> seed:int -> t list -> result list
val failed : result list -> result list
val pp_result : Format.formatter -> result -> unit
val summary : result list -> string
