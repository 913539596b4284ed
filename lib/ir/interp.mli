(** Reference interpreter for the miniature IR.

    Programs interact with the world through integer/float I/O intrinsics;
    a run maps an input stream to outputs plus an exit value.  This gives
    transformations an executable specification — [T] preserves semantics
    iff [run p i] and [run (T p) i] observe the same — and, through the
    per-opcode cost model, stands in for wall-clock time in the paper's
    Figure 13. *)

type rvalue = RInt of int64 | RFloat of float | RPtr of int | RUnit

(** Runtime fault: division by zero, out-of-bounds access, unknown callee,
    executed [unreachable]... *)
exception Trap of string

(** The step budget was exhausted (non-terminating program). *)
exception Out_of_fuel

type outcome = {
  output : int64 list;  (** values passed to [print_int], in order *)
  foutput : float list;  (** values passed to [print_float] *)
  exit_value : rvalue;  (** [main]'s return value *)
  steps : int;  (** dynamic instruction count *)
  cost : int;  (** abstract cycles per {!Opcode.cost} *)
}

(** Cells in the linear memory image (shared by both engines). *)
val mem_size : int

(** The interpreter's pooled memory image; see {!Arena}.  One array per
    domain at steady state instead of a fresh 1 MiB allocation per run.
    (The VM pools its own unboxed tag/bits banks of the same extent.) *)
val arena : rvalue array Arena.t

(** Dynamic conversions.  These define the IR's runtime typing discipline:
    integer contexts accept only [RInt] — in particular a pointer used in
    arithmetic without an explicit [ptrtoint] is a trap, not a silent
    coercion — while pointer contexts accept [RInt] (addresses round-trip
    through [ptrtoint]/arithmetic as plain integers) and float contexts
    accept [RInt] (C-like implicit widening).
    @raise Trap on any other mismatch *)
val as_int : rvalue -> int64

val as_float : rvalue -> float
val as_ptr : rvalue -> int

(** Normalise an integer to the range of a type (sign-extending wrap). *)
val normalize : Types.t -> int64 -> int64

(** Evaluate a binary integer operation with C-like semantics.
    @raise Trap on division by zero *)
val eval_ibin : Types.t -> Instr.ibin -> int64 -> int64 -> int64

val eval_fbin : Instr.fbin -> float -> float -> float
val eval_icmp : Instr.icmp -> int64 -> int64 -> bool
val eval_fcmp : Instr.fcmp -> float -> float -> bool
val eval_cast : Instr.cast -> Types.t -> rvalue -> rvalue

(** Run a module's [main] on an input stream.
    @param fuel maximum dynamic instructions (default 10M)
    @raise Trap on runtime faults
    @raise Out_of_fuel when the budget runs out *)
val run : ?fuel:int -> Irmod.t -> int64 list -> outcome

(** Observable behaviour: printed outputs plus a rendering of the exit
    value. *)
val observe : outcome -> int64 list * float list * string

(** Observations agree when [Stdlib.compare] finds them equal, so a
    printed NaN equals itself (under polymorphic [=] a run that prints NaN
    would differ from itself). *)
val equal_observation :
  int64 list * float list * string -> int64 list * float list * string -> bool

(** Two runs are behaviourally equal when their observations agree. *)
val equal_behaviour : outcome -> outcome -> bool
