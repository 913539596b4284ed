(** Basic blocks: a label, a straight-line list of instructions, and a
    single terminator. *)

type t = { label : string; instrs : Instr.t list; term : Instr.terminator }

val make : label:string -> instrs:Instr.t list -> term:Instr.terminator -> t

(** Phi instructions (a prefix of the instruction list when well formed). *)
val phis : t -> Instr.t list

val non_phis : t -> Instr.t list
val successors : t -> string list

(** All opcodes executed by the block, terminator included. *)
val opcodes : t -> Opcode.t list

(** Relabel phi entries from [old_pred] to [new_pred] (CFG surgery). *)
val retarget_phis : old_pred:string -> new_pred:string -> t -> t
