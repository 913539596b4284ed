(** Deterministic, splittable pseudo-random number generator (splitmix64).

    Every stochastic component of the framework draws from an explicit
    [Rng.t]; there is no global state, so experiments are reproducible from
    a single seed and property tests are stable. *)

(** The splitmix64 state, 8 bytes read and written unboxed: a draw
    allocates nothing. *)
type t

(** Create a generator from a seed. *)
val make : int -> t

(** An independent copy: advancing one does not affect the other. *)
val copy : t -> t

(** Draw the next raw 64-bit value (advances the state). *)
val next_int64 : t -> int64

(** Derive an independent generator (advances this one once). *)
val split : t -> t

(** [split_ix t i] is the [i]-th child stream of [t]'s current state,
    derived deterministically and {e without advancing [t]}: equal
    (state, index) pairs give equal children, distinct indices give
    independent streams.  Seed one child per task index before fanning a
    loop out over domains and the loop's randomness no longer depends on
    execution order. *)
val split_ix : t -> int -> t

(** [split_n t n] pre-derives [n] children, exactly as [n] successive
    {!split} calls would (advances [t] [n] times).  Lifts a
    [split]-per-iteration loop into loop bodies that never touch the
    shared generator, preserving every stream bit for bit. *)
val split_n : t -> int -> t array

(** Uniform integer in [0, bound): the unsigned remainder of the next
    raw draw by [bound].  Bounds below 2^60 compute it on [int]s, as
    [((z lsr 2) mod bound * 4 + z land 3) mod bound] (every operand is
    below 2^62; a 63-bit [int] is assumed), so a draw allocates nothing;
    larger bounds take [Int64.unsigned_rem].  Both give the same value.
    @raise Invalid_argument on bound <= 0 *)
val int : t -> int -> int

(** Uniform integer in [lo, hi], inclusive. *)
val int_range : t -> int -> int -> int

(** Uniform float in [0, 1). *)
val float : t -> float

val bool : t -> bool

(** Bernoulli draw with probability [p]. *)
val bernoulli : t -> float -> bool

(** Standard normal deviate (Box–Muller). *)
val gaussian : t -> float

(** Uniform element of a non-empty list. *)
val choice : t -> 'a list -> 'a

(** Uniform element of a non-empty array. *)
val choice_arr : t -> 'a array -> 'a

(** Fisher–Yates shuffle in place: for [i] from the last index down to 1,
    swap [a.(i)] with [a.(int t (i + 1))]. *)
val shuffle_in_place : t -> 'a array -> unit

(** {!shuffle_in_place} on a copy of the list. *)
val shuffle : t -> 'a list -> 'a list

(** [sample t k xs] draws [k] elements without replacement. *)
val sample : t -> int -> 'a list -> 'a list

(** Weighted choice; weights need not be normalised.
    @raise Invalid_argument when the total weight is not positive *)
val weighted_choice : t -> ('a * float) list -> 'a
