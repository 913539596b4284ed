(** Abstract syntax of mini-C: the subset of C the synthetic corpus and the
    Zhang-style source transformations need — scalar ints and doubles,
    one-dimensional arrays, the full statement zoo, and calls. *)

type ty = TInt | TFloat | TVoid

type binop =
  | Add | Sub | Mul | Div | Mod
  | Lt | Le | Gt | Ge | Eq | Ne
  | LAnd | LOr
  | BAnd | BOr | BXor | Shl | Shr

type unop = Neg | LNot | BNot

type expr =
  | IntLit of int
  | FloatLit of float
  | Var of string
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Call of string * expr list
  | Index of string * expr  (** a[e] *)
  | Ternary of expr * expr * expr

type stmt =
  | Decl of ty * string * expr option
  | DeclArr of string * int  (** [int name\[n\]] *)
  | Assign of string * expr
  | AssignIdx of string * expr * expr  (** a[e1] = e2 *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | DoWhile of stmt list * expr
  | For of stmt option * expr option * stmt option * stmt list
  | Switch of expr * (int * stmt list) list * stmt list
      (** scrutinee, cases (implicitly breaking), default *)
  | Break
  | Continue
  | Return of expr option
  | Expr of expr
  | Block of stmt list

type func = {
  fname : string;
  fparams : (ty * string) list;
  fret : ty;
  fbody : stmt list;
}

type program = { pfuncs : func list }

val find_func : program -> string -> func option

(** Bottom-up rewriting of every sub-expression. *)
val map_expr_in_expr : (expr -> expr) -> expr -> expr

(** Bottom-up rewriting of every statement (recursing into bodies). *)
val map_stmts : (stmt -> stmt) -> stmt list -> stmt list

val map_stmt : (stmt -> stmt) -> stmt -> stmt

(** Rewrite every expression in a statement list (conditions, initialisers,
    indices included). *)
val map_exprs : (expr -> expr) -> stmt list -> stmt list

val map_exprs_stmt : (expr -> expr) -> stmt -> stmt

(** Recursive statement count. *)
val stmt_count : stmt list -> int

(** Names declared anywhere in a function, parameters first. *)
val declared_vars : func -> string list
