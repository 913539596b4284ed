(** Running IR many times, and comparing runs.

    Every program executes on the pre-compiling {!Vm}; the frozen
    tree-walking {!Yali_ir.Interp} is its independent oracle, which the
    differential property [engines/vm-vs-interp-differential] and the
    [interp] benchmark gate compare it against through {!classify} and
    {!agree}.  The translation-validation tiers of [yali check], the
    adaptive evaders and the benchmark harness run programs through
    {!prepare}. *)

(** [prepare m] compiles [m] once (VM bytecode) when partially applied;
    the returned closure then runs cheaply per input, with the contract of
    {!Yali_ir.Interp.run}.  This is the shape the check loops want: one
    module, many seeded inputs. *)
val prepare : Yali_ir.Irmod.t -> fuel:int -> int64 list -> Yali_ir.Interp.outcome

(** One run's full observable result: its outcome, or the exception it
    raised as text ("trap: MSG", "out of fuel", or "exn: ..." for any
    other). *)
val classify :
  (unit -> Yali_ir.Interp.outcome) -> (Yali_ir.Interp.outcome, string) result

(** Whether two classified runs agree: the same full outcome (output,
    float output, exit value, steps and cost, under [Stdlib.compare], so a
    NaN equals itself), or the same error text.  The VM's contract is that
    it agrees with the interpreter on every verified module. *)
val agree :
  (Yali_ir.Interp.outcome, string) result ->
  (Yali_ir.Interp.outcome, string) result ->
  bool
