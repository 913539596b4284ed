(** A pre-compiling virtual machine for the miniature IR.

    {!Interp} is the executable specification: a tree-walking interpreter
    that re-resolves SSA names, block labels, callees and types through
    hashtables on every function entry.  That is ideal for an oracle —
    simple, obviously faithful to the semantics — and too slow for the
    loops that execute many programs: the translation-validation tiers of
    [yali check], the adaptive evaders' behaviour witness and the Figure 13
    cost model.

    The VM does the name resolution {e once}, in {!compile}:
    - SSA values become dense frame-slot indices; a call takes a frame
      from a per-function free list (recycled within a run) instead of
      building a hashtable;
    - block labels become instruction offsets in one contiguous code array
      per function, and every non-phi instruction and terminator becomes
      exactly one compiled instruction with its own dispatch arm;
    - phi nodes are lowered out of the instruction stream into per-edge
      parallel copies, pre-resolved against each predecessor;
    - callees are pre-bound to function indices (or intrinsic tags), with
      arity mismatches and unknown callees compiled to the exact trap the
      interpreter would raise;
    - [gep] strides, global addresses and the per-instruction
      {!Opcode.cost} are all precomputed;
    - the memory image comes from a pooled {!Yali_ir.Arena}.

    {b Unboxed representation.}  Frame slots and memory cells are not
    {!Yali_ir.Interp.rvalue}s but (tag, payload) pairs in two parallel
    banks: a [Bytes.t] with one tag byte per cell (int, float, pointer or
    unit) and an [int64] [Bigarray] holding the payload, which is the
    value itself for integers and pointers and its [Int64.bits_of_float]
    image for floats.  Arithmetic, compares, branches, loads/stores, phi
    copies and calls all execute without allocating; the dynamic-typing
    discipline survives as tag checks raising the interpreter's exact trap
    messages.

    A compiled program is immutable and safe to run from any number of
    domains concurrently.

    The contract is {b bit-identical outcomes}: for every module and input,
    [run m i] and [Interp.run m i] return equal {!Interp.outcome}s (output,
    foutput, exit value, steps, {e and} abstract cost) or raise the same
    exception, including the [Trap] message and [Trap]-vs-[Out_of_fuel]
    classification.  The hot evaluators ([normalize], [eval_ibin] at every
    width, compares, casts) are mirrored inline for unboxed execution — a
    cross-module call would re-box every operand — and the [Check.Oracles]
    differential property is the standing proof that the mirror has not
    drifted from the oracle.

    Caveat: programs that fail SSA verification ({!Verify}) are outside the
    contract — e.g. the interpreter traps on a read of an unset name at
    {e use} time, while the VM's slot assignment cannot reproduce the exact
    trap ordering.  Every call site in this repo verifies before
    executing. *)

type program

(** Flatten a module into executable form.  Pure; never raises on
    ill-formed input — compile-time-detectable faults (unknown callee,
    arity mismatch, unknown global or block, missing [main]) are compiled
    to code that raises the interpreter's exact exception when (and only
    when) execution reaches them. *)
val compile : Yali_ir.Irmod.t -> program

(** Run a compiled program; same contract and defaults as
    {!Yali_ir.Interp.run}. *)
val run_compiled :
  ?fuel:int -> program -> int64 list -> Yali_ir.Interp.outcome

(** [compile] + [run_compiled]. *)
val run : ?fuel:int -> Yali_ir.Irmod.t -> int64 list -> Yali_ir.Interp.outcome

(** Memory-image banks ever materialised by the VM's arena, across all
    domains (GC-pressure accounting in the bench notes; cf.
    [Arena.created Interp.arena] for the interpreter). *)
val arenas_created : unit -> int
