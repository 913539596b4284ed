(** Textual rendering of the IR in an LLVM-flavoured concrete syntax;
    {!Parser} reads it back. *)

val pp_operand : Format.formatter -> Value.t -> unit
val pp_instr : Format.formatter -> Instr.t -> unit
val pp_terminator : Format.formatter -> Instr.terminator -> unit
val pp_block : Format.formatter -> Block.t -> unit
val pp_func : Format.formatter -> Func.t -> unit
val pp_global : Format.formatter -> Irmod.global -> unit
val pp_module : Format.formatter -> Irmod.t -> unit

val func_to_string : Func.t -> string
val module_to_string : Irmod.t -> string
