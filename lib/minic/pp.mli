(** Pretty-printer for mini-C.  Output is valid mini-C (round-trips through
    {!Parser}) and close enough to C to be read as such. *)

val ty_to_string : Ast.ty -> string
val binop_to_string : Ast.binop -> string
val unop_to_string : Ast.unop -> string

(** Binding strength of a binary operator (used by the parser too). *)
val prec_of : Ast.binop -> int

val pp_expr : ?prec:int -> Format.formatter -> Ast.expr -> unit
val pp_stmt : indent:int -> Format.formatter -> Ast.stmt -> unit
val pp_func : Format.formatter -> Ast.func -> unit
val pp_program : Format.formatter -> Ast.program -> unit

val func_to_string : Ast.func -> string
val program_to_string : Ast.program -> string
