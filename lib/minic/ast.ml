(** Abstract syntax of mini-C, the source language of the framework.

    Mini-C covers the subset of C that the synthetic POJ-style dataset and
    Zhang et al.'s source-level transformations need: scalar ints and floats,
    one-dimensional arrays, the full statement zoo (if / while / do-while /
    for / switch / break / continue), and calls. *)

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
      (** scrutinee, cases (each implicitly breaking), default *)
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

let find_func (p : program) name =
  List.find_opt (fun f -> f.fname = name) p.pfuncs

(* -- traversals ---------------------------------------------------------- *)

let rec map_expr_in_expr (f : expr -> expr) (e : expr) : expr =
  let r = map_expr_in_expr f in
  let e' =
    match e with
    | IntLit _ | FloatLit _ | Var _ -> e
    | Bin (op, a, b) -> Bin (op, r a, r b)
    | Un (op, a) -> Un (op, r a)
    | Call (n, args) -> Call (n, List.map r args)
    | Index (a, i) -> Index (a, r i)
    | Ternary (c, a, b) -> Ternary (r c, r a, r b)
  in
  f e'

let rec map_stmts (f : stmt -> stmt) (ss : stmt list) : stmt list =
  List.map (map_stmt f) ss

and map_stmt (f : stmt -> stmt) (s : stmt) : stmt =
  let s' =
    match s with
    | Decl _ | DeclArr _ | Assign _ | AssignIdx _ | Break | Continue
    | Return _ | Expr _ ->
        s
    | If (c, t, e) -> If (c, map_stmts f t, map_stmts f e)
    | While (c, b) -> While (c, map_stmts f b)
    | DoWhile (b, c) -> DoWhile (map_stmts f b, c)
    | For (i, c, st, b) ->
        For
          ( Option.map (map_stmt f) i,
            c,
            Option.map (map_stmt f) st,
            map_stmts f b )
    | Switch (e, cases, d) ->
        Switch
          ( e,
            List.map (fun (k, b) -> (k, map_stmts f b)) cases,
            map_stmts f d )
    | Block b -> Block (map_stmts f b)
  in
  f s'

(** Map every expression in a statement list (including conditions,
    initialisers, indices). *)
let rec map_exprs (f : expr -> expr) (ss : stmt list) : stmt list =
  List.map (map_exprs_stmt f) ss

and map_exprs_stmt (f : expr -> expr) (s : stmt) : stmt =
  let fe = map_expr_in_expr f in
  match s with
  | Decl (t, n, e) -> Decl (t, n, Option.map fe e)
  | DeclArr _ -> s
  | Assign (n, e) -> Assign (n, fe e)
  | AssignIdx (a, i, e) -> AssignIdx (a, fe i, fe e)
  | If (c, t, e) -> If (fe c, map_exprs f t, map_exprs f e)
  | While (c, b) -> While (fe c, map_exprs f b)
  | DoWhile (b, c) -> DoWhile (map_exprs f b, fe c)
  | For (i, c, st, b) ->
      For
        ( Option.map (map_exprs_stmt f) i,
          Option.map fe c,
          Option.map (map_exprs_stmt f) st,
          map_exprs f b )
  | Switch (e, cases, d) ->
      Switch (fe e, List.map (fun (k, b) -> (k, map_exprs f b)) cases, map_exprs f d)
  | Break | Continue -> s
  | Return e -> Return (Option.map fe e)
  | Expr e -> Expr (fe e)
  | Block b -> Block (map_exprs f b)

(** Count statements, recursively. *)
let rec stmt_count (ss : stmt list) : int =
  List.fold_left
    (fun acc s ->
      acc + 1
      +
      match s with
      | If (_, t, e) -> stmt_count t + stmt_count e
      | While (_, b) | DoWhile (b, _) -> stmt_count b
      | For (i, _, st, b) ->
          stmt_count (Option.to_list i) + stmt_count (Option.to_list st)
          + stmt_count b
      | Switch (_, cases, d) ->
          List.fold_left (fun a (_, b) -> a + stmt_count b) (stmt_count d) cases
      | Block b -> stmt_count b
      | _ -> 0)
    0 ss

(** Variable names declared anywhere in the function, parameters included. *)
let declared_vars (fn : func) : string list =
  let acc = ref (List.map snd fn.fparams) in
  let rec go ss =
    List.iter
      (fun s ->
        match s with
        | Decl (_, n, _) | DeclArr (n, _) -> acc := n :: !acc
        | If (_, t, e) -> go t; go e
        | While (_, b) | DoWhile (b, _) -> go b
        | For (i, _, st, b) ->
            go (Option.to_list i); go (Option.to_list st); go b
        | Switch (_, cases, d) ->
            List.iter (fun (_, b) -> go b) cases;
            go d
        | Block b -> go b
        | _ -> ())
      ss
  in
  go fn.fbody;
  List.rev !acc
