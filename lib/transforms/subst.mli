(** SSA value replacement, the one rule constfold, instcombine, gvn and
    mem2reg share: a pass records that the uses of a definition take
    another value, then {!apply} drops the definition and rewrites every
    use.  The table never holds a cycle, so {!resolve} always ends at a
    value that is not replaced. *)

type t

val create : unit -> t

(** [add s id v] records that the uses of [%id] take [v].  It refuses,
    returning [false], when [%id] is already replaced or when the chain
    from [v] ends at [%id] itself (a self-map included): either would let
    a chain close on itself.  In reachable code a replacement is always a
    value that strictly dominates the definition it replaces, so only
    unreachable code is ever refused. *)
val add : t -> int -> Yali_ir.Value.t -> bool

(** Follow a chain of replacements to its end. *)
val resolve : t -> Yali_ir.Value.t -> Yali_ir.Value.t

(** Drop every replaced definition and resolve every operand, phi incoming
    and terminator operand. *)
val apply : t -> Yali_ir.Func.t -> Yali_ir.Func.t

(** The dead-block rule: drop the blocks that [live] rejects, given by
    their number in the CFG, and the phi incomings from them (a label the
    CFG does not know is dead); a phi left with no incoming goes too. *)
val drop_dead :
  Yali_ir.Cfg.t -> live:(int -> bool) -> Yali_ir.Func.t -> Yali_ir.Func.t
