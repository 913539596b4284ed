(** Promotion of alloca slots to SSA registers ("mem2reg"): the classic
    phi-placement-on-iterated-dominance-frontiers algorithm, plus dead-block
    removal.  This is the pass the paper singles out: SSA conversion alone
    reverts the effect of most source-level obfuscations (§4.3). *)

(** Scalar allocas whose every use is a direct load or store. *)
val promotable_allocas : Yali_ir.Func.t -> (int * Yali_ir.Types.t) list

val run_func : Yali_ir.Func.t -> Yali_ir.Func.t
val run : Yali_ir.Irmod.t -> Yali_ir.Irmod.t
