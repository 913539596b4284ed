(** Basic blocks: a label, a straight-line list of instructions, and a
    single terminator. *)

type t = { label : string; instrs : Instr.t list; term : Instr.terminator }

val make : label:string -> instrs:Instr.t list -> term:Instr.terminator -> t

(** Phi instructions (a prefix of the instruction list when well formed). *)
val phis : t -> Instr.t list

val non_phis : t -> Instr.t list

(** [true] when any instruction is a phi, wherever it stands. *)
val has_phi : t -> bool

val successors : t -> string list

(** All opcodes executed by the block, terminator included. *)
val opcodes : t -> Opcode.t list

(** Relabel every phi entry from [l] to [f l] (CFG surgery); a block with
    no phi is returned as it is. *)
val retarget_phis : f:(string -> string) -> t -> t
