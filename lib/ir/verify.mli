(** Structural well-formedness checks: block structure, unique SSA
    definitions, no uses of undefined values, definitions dominating their
    uses, phi/predecessor agreement, known callees.  The adaptive search
    runs it after every pass it applies, translation validation after every
    stage, and [yali opt] on its input. *)

type error = { where : string; what : string }

val pp_error : Format.formatter -> error -> unit

(** Check one function.  [known_funcs], when non-empty, also validates
    call targets.  A function with no blocks gets that one error. *)
val check_func :
  ?known_funcs:Set.Make(String).t -> Func.t -> error list

(** Function names the interpreter treats as runtime intrinsics
    ([read_int], [print_int], ...). *)
val intrinsics : string list

val check_module : Irmod.t -> error list

(** @raise Invalid_argument with a report when the module is ill-formed. *)
val assert_ok : Irmod.t -> unit
