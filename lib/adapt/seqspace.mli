(** The adaptive evader's gene space: sequences of parameterised IR-level
    obfuscation steps — the O-LLVM passes and their knobs, drawn from small
    discrete grids (DESIGN.md §14). *)

type step =
  | Sub of { probability : float; rounds : int }
  | Fla
  | Bcf of { probability : float }
  | Ollvm of {
      sub_probability : float;
      sub_rounds : int;
      bcf_probability : float;
    }

(** A candidate evader: the steps applied left to right.  [[]] is the
    identity (the passive evader). *)
type seq = step list

(** One step with knobs drawn uniformly from the grids. *)
val random_step : Yali_util.Rng.t -> step

(** A sequence of random length in [1, max_len]. *)
val random_seq : Yali_util.Rng.t -> max_len:int -> seq

(** One neighbourhood move: insert, drop, replace, or retune a knob of one
    step; never grows past [max_len]. *)
val mutate : Yali_util.Rng.t -> max_len:int -> seq -> seq

(** Apply the steps left to right, step [i] under [split_ix rng i] — a pure
    function of (rng state, seq, module), independent of evaluation order.
    A step that raises or whose output fails {!Yali_ir.Verify} is skipped
    (the search stays robust, and the result always verifies); the passes
    themselves are semantics-preserving. *)
val apply : Yali_util.Rng.t -> seq -> Yali_ir.Irmod.t -> Yali_ir.Irmod.t

val step_to_string : step -> string

(** ["sub(p=0.50,r=1);fla;bcf(p=0.25)"]; [ "id" ] for the empty sequence. *)
val to_string : seq -> string

(** The inverse of {!to_string}: [of_string (to_string s) = s] for every
    sequence whose knobs are on the grids (all that {!random_seq} and
    {!mutate} produce), so a front point replays from its printed
    sequence.
    @raise Invalid_argument on any text {!to_string} does not print *)
val of_string : string -> seq
