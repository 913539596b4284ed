(** Values (operands) of the miniature IR. *)

type t =
  | Var of int  (** SSA name / virtual register, function-local *)
  | IConst of Types.t * int64  (** typed integer constant *)
  | FConst of float
  | Global of string  (** address of a global variable *)
  | Undef of Types.t

(** Constructors for common constants. *)

val i1 : bool -> t
val i8 : int -> t
val i32 : int -> t
val i64 : int -> t
val f64 : float -> t
val var : int -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
