(** Values (operands) of the miniature IR. *)

type t =
  | Var of int  (** SSA name / virtual register, function local *)
  | IConst of Types.t * int64  (** typed integer constant *)
  | FConst of float
  | Global of string  (** address of a global variable *)
  | Undef of Types.t

let i1 b = IConst (Types.I1, if b then 1L else 0L)
let i8 n = IConst (Types.I8, Int64.of_int n)
let i32 n = IConst (Types.I32, Int64.of_int n)
let i64 n = IConst (Types.I64, Int64.of_int n)
let f64 x = FConst x
let var i = Var i

let equal (a : t) (b : t) = a = b

let pp fmt = function
  | Var i -> Fmt.pf fmt "%%%d" i
  | IConst (t, n) -> Fmt.pf fmt "%s %Ld" (Types.to_string t) n
  | FConst x -> Fmt.pf fmt "double %h" x
  | Global g -> Fmt.pf fmt "@%s" g
  | Undef t -> Fmt.pf fmt "%s undef" (Types.to_string t)

let to_string v = Fmt.str "%a" pp v
