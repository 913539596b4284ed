(** Domain-based parallel execution for the arena and figure harness.

    A batch of independent tasks is distributed over [jobs] workers
    (spawned domains plus the calling domain), which take task indices
    from one shared atomic counter until it passes the batch size, so
    irregular task sizes still load-balance.  Results are deterministic by
    construction: every task writes only its own slot of the result array,
    and any randomness must be pre-derived on the calling domain (see
    {!Yali_util.Rng.split_ix} / {!Yali_util.Rng.split_n}) — so [jobs = 1]
    and [jobs = N] produce bit-identical output.

    Nested calls from inside a worker run sequentially inline (no domain
    explosion, no deadlock); parallelise at the outermost loop.

    Counters [pool.tasks], [pool.parallel_batches] and
    [pool.sequential_batches] are reported through {!Telemetry}. *)

(** The configured parallelism: [YALI_JOBS] when set and positive,
    otherwise [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

val get_jobs : unit -> int

(** Override the parallelism ([--jobs N] in the CLIs).
    @raise Invalid_argument when [n < 1]. *)
val set_jobs : int -> unit

(** [with_jobs n f] runs [f] under parallelism [n], restoring the previous
    setting afterwards (also on exceptions). *)
val with_jobs : int -> (unit -> 'a) -> 'a

(** True when called from inside a pool worker (nested parallel calls
    degrade to sequential execution). *)
val inside_worker : unit -> bool

(** [run ~n task] executes [task i] exactly once for every [i] in
    [[0, n)], in parallel when the configured parallelism allows.
    Exceptions raised by tasks are re-raised in the caller (the first one
    observed) after every worker has finished. *)
val run : n:int -> (int -> unit) -> unit

(** [parallel_array_map f xs] = [Array.map f xs], fanned out. *)
val parallel_array_map : ('a -> 'b) -> 'a array -> 'b array

(** [parallel_array_mapi f xs] = [Array.mapi f xs], fanned out. *)
val parallel_array_mapi : (int -> 'a -> 'b) -> 'a array -> 'b array

(** [parallel_map f xs] = [List.map f xs], fanned out. *)
val parallel_map : ('a -> 'b) -> 'a list -> 'b list

(** [parallel_array_map_rng rng f xs] maps [f child_i xs.(i)] where
    [child_i] is pre-derived from one {!Yali_util.Rng.split} of [rng]
    (which advances once) via {!Yali_util.Rng.split_ix} — task randomness
    independent of scheduling. *)
val parallel_array_map_rng :
  Yali_util.Rng.t -> (Yali_util.Rng.t -> 'a -> 'b) -> 'a array -> 'b array

(** [parallel_for_chunks ?min_chunk n f] covers [[0, n)] with disjoint
    chunks of at least [min_chunk] indices and calls [f lo hi] (half-open)
    on each — for loops too fine-grained to schedule per index. *)
val parallel_for_chunks : ?min_chunk:int -> int -> (int -> int -> unit) -> unit
