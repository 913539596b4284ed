(** Deterministic, splittable pseudo-random number generator (splitmix64).

    Every stochastic component of the framework — dataset generation,
    obfuscation choices, model initialisation, bagging — draws from an
    explicit [Rng.t], so experiments are reproducible from a single seed and
    property tests are stable.  No global state. *)

(* The state is 8 bytes read and written with the unboxed 64-bit
   primitives, so a draw allocates no boxed [int64]. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L

let of_state (z : int64) : t =
  let t = Bytes.create 8 in
  set64 t 0 z;
  t

let make (seed : int) : t = of_state (Int64.of_int seed)

let copy (t : t) : t = Bytes.copy t

(* the splitmix64 finalizer: a bijective avalanche over the raw state *)
let[@inline] mix64 (z : int64) : int64 =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 (t : t) : int64 =
  let z = Int64.add (get64 t 0) golden in
  set64 t 0 z;
  mix64 z

(** An independent generator derived from this one. *)
let split (t : t) : t = of_state (next_int64 t)

(** [split_ix t i] derives the [i]-th child stream of [t]'s current state
    without advancing [t]: the same (state, index) pair always yields the
    same child, and distinct indices yield independent streams.  This is
    the task-seeding primitive of the parallel runtime — deriving one
    child per task index up front makes a parallel loop's randomness
    independent of execution order, so parallel runs reproduce sequential
    ones bit for bit. *)
let split_ix (t : t) (i : int) : t =
  let offset = Int64.mul (Int64.of_int (i + 1)) golden in
  of_state (mix64 (Int64.add (get64 t 0) offset))

(** [split_n t n] pre-derives [n] children exactly as [n] successive
    {!split} calls would (advancing [t] [n] times) — the drop-in way to
    lift an existing [split]-per-iteration loop into {!split}-free loop
    bodies without changing any stream. *)
let split_n (t : t) (n : int) : t array =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  let out = Array.make n t in
  for i = 0 to n - 1 do
    out.(i) <- split t
  done;
  out

(** Uniform integer in [0, bound): the raw draw's unsigned remainder.
    Below 2^60 it is [((z lsr 2) mod b * 4 + z land 3) mod b] on [int]s
    (every operand is below 2^62, so a 63-bit [int] holds it); larger
    bounds take [Int64.unsigned_rem]. *)
let int (t : t) (bound : int) : int =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let z = next_int64 t in
  if bound < 1 lsl 60 then
    let q = Int64.to_int (Int64.shift_right_logical z 2) mod bound in
    ((q lsl 2) + (Int64.to_int z land 3)) mod bound
  else Int64.to_int (Int64.unsigned_rem z (Int64.of_int bound))

(** Uniform integer in [lo, hi] inclusive. *)
let int_range (t : t) (lo : int) (hi : int) : int =
  if hi < lo then invalid_arg "Rng.int_range: empty range";
  lo + int t (hi - lo + 1)

(** Uniform float in [0, 1). *)
let float (t : t) : float =
  Int64.to_float (Int64.shift_right_logical (next_int64 t) 11)
  /. 9007199254740992.0 (* 2^53 *)

let bool (t : t) : bool = Int64.logand (next_int64 t) 1L = 1L

(** Bernoulli draw with probability [p]. *)
let bernoulli (t : t) (p : Stdlib.Float.t) : bool = float t < p

(** Standard normal via Box–Muller. *)
let gaussian (t : t) : float =
  let u1 = Stdlib.max 1e-12 (float t) and u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let choice (t : t) (xs : 'a list) : 'a =
  match xs with
  | [] -> invalid_arg "Rng.choice: empty list"
  | _ -> List.nth xs (int t (List.length xs))

let choice_arr (t : t) (xs : 'a array) : 'a =
  if Array.length xs = 0 then invalid_arg "Rng.choice_arr: empty array";
  xs.(int t (Array.length xs))

(** Fisher–Yates shuffle in place: one [int t (i + 1)] draw for each [i]
    from the last index down to 1. *)
let shuffle_in_place (t : t) (a : 'a array) : unit =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(** Fisher–Yates shuffle (fresh list). *)
let shuffle (t : t) (xs : 'a list) : 'a list =
  let a = Array.of_list xs in
  shuffle_in_place t a;
  Array.to_list a

(** [sample t k xs] draws [k] elements without replacement. *)
let sample (t : t) (k : int) (xs : 'a list) : 'a list =
  let shuffled = shuffle t xs in
  List.filteri (fun i _ -> i < k) shuffled

(** Weighted choice: weights need not be normalised. *)
let weighted_choice (t : t) (pairs : ('a * float) list) : 'a =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 pairs in
  if total <= 0.0 then invalid_arg "Rng.weighted_choice: non-positive weights";
  let r = float t *. total in
  let rec go acc = function
    | [] -> fst (List.hd (List.rev pairs))
    | (x, w) :: rest -> if acc +. w >= r then x else go (acc +. w) rest
  in
  go 0.0 pairs
