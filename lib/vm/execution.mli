(** The engine switchboard: one place that decides how IR gets executed.

    Two engines produce bit-identical {!Yali_ir.Interp.outcome}s:
    - [Vm] (the default) — pre-compiling direct-threaded {!Vm};
    - [Ref] — the frozen tree-walking oracle {!Yali_ir.Interp}.

    The translation-validation tiers of [yali check], the adaptive
    evaders, the benchmark harness and the CLI all route through here, so
    [--engine=ref] can re-run any campaign under the oracle, and a
    divergence report can name the engine that observed it. *)

type engine = Vm | Ref

(** The process-wide engine ([Vm] unless {!set_engine}d). *)
val get_engine : unit -> engine

(** Set the process-wide engine. *)
val set_engine : engine -> unit

val engine_of_string : string -> engine option
val engine_to_string : engine -> string

(** Same contract as {!Yali_ir.Interp.run}, dispatched to [engine]
    (default: {!get_engine}). *)
val run :
  ?engine:engine -> ?fuel:int -> Yali_ir.Irmod.t -> int64 list ->
  Yali_ir.Interp.outcome

(** [prepare m] resolves the engine once and compiles [m] once (VM
    bytecode); the returned closure then runs cheaply per input.  This is
    the shape the check loops want: one module, many seeded inputs. *)
val prepare :
  ?engine:engine -> Yali_ir.Irmod.t ->
  fuel:int -> int64 list -> Yali_ir.Interp.outcome

(** One run's full observable result: its outcome, or the exception it
    raised as text ("trap: MSG", "out of fuel", or "exn: ..." for any
    other). *)
val classify :
  (unit -> Yali_ir.Interp.outcome) -> (Yali_ir.Interp.outcome, string) result

(** Whether two classified runs agree: the same full outcome (output,
    float output, exit value, steps and cost, under [Stdlib.compare], so a
    NaN equals itself), or the same error text.  The engines' contract is
    that they agree on every verified module. *)
val agree :
  (Yali_ir.Interp.outcome, string) result ->
  (Yali_ir.Interp.outcome, string) result ->
  bool
