(** Pretty-printer for mini-C.  Output is valid mini-C (round-trips through
    {!Parser}) and close enough to C to be read as such. *)

open Ast

let ty_to_string = function TInt -> "int" | TFloat -> "double" | TVoid -> "void"

let binop_to_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | LAnd -> "&&" | LOr -> "||"
  | BAnd -> "&" | BOr -> "|" | BXor -> "^" | Shl -> "<<" | Shr -> ">>"

let unop_to_string = function Neg -> "-" | LNot -> "!" | BNot -> "~"

(* Precedence levels, higher binds tighter. *)
let prec_of = function
  | LOr -> 1
  | LAnd -> 2
  | BOr -> 3
  | BXor -> 4
  | BAnd -> 5
  | Eq | Ne -> 6
  | Lt | Le | Gt | Ge -> 7
  | Shl | Shr -> 8
  | Add | Sub -> 9
  | Mul | Div | Mod -> 10

let rec pp_expr ?(prec = 0) fmt (e : expr) =
  match e with
  | IntLit n ->
      (* negative literals print as the unary-negation form the parser
         produces, so that pp/parse round-trips are stable *)
      if n < 0 then Fmt.pf fmt "-(%d)" (-n) else Fmt.int fmt n
  | FloatLit x ->
      if Float.is_integer x && Float.abs x < 1e15 then Fmt.pf fmt "%.1f" x
      else Fmt.pf fmt "%.17g" x
  | Var v -> Fmt.string fmt v
  | Bin (op, a, b) ->
      let p = prec_of op in
      let body fmt () =
        Fmt.pf fmt "%a %s %a"
          (fun fmt -> pp_expr ~prec:p fmt)
          a (binop_to_string op)
          (fun fmt -> pp_expr ~prec:(p + 1) fmt)
          b
      in
      if p < prec then Fmt.pf fmt "(%a)" body () else body fmt ()
  | Un (op, a) -> Fmt.pf fmt "%s(%a)" (unop_to_string op) (pp_expr ~prec:0) a
  | Call (n, args) ->
      Fmt.pf fmt "%s(%a)" n Fmt.(list ~sep:(any ", ") (pp_expr ~prec:0)) args
  | Index (a, i) -> Fmt.pf fmt "%s[%a]" a (pp_expr ~prec:0) i
  | Ternary (c, a, b) ->
      Fmt.pf fmt "(%a ? %a : %a)" (pp_expr ~prec:0) c (pp_expr ~prec:0) a
        (pp_expr ~prec:0) b

let rec pp_stmt ~indent fmt (s : stmt) =
  let pad = String.make indent ' ' in
  let pp_body fmt body =
    List.iter (fun s -> Fmt.pf fmt "%a" (pp_stmt ~indent:(indent + 2)) s) body
  in
  match s with
  | Decl (t, n, None) -> Fmt.pf fmt "%s%s %s;@." pad (ty_to_string t) n
  | Decl (t, n, Some e) ->
      Fmt.pf fmt "%s%s %s = %a;@." pad (ty_to_string t) n (pp_expr ~prec:0) e
  | DeclArr (n, sz) -> Fmt.pf fmt "%sint %s[%d];@." pad n sz
  | Assign (n, e) -> Fmt.pf fmt "%s%s = %a;@." pad n (pp_expr ~prec:0) e
  | AssignIdx (a, i, e) ->
      Fmt.pf fmt "%s%s[%a] = %a;@." pad a (pp_expr ~prec:0) i (pp_expr ~prec:0) e
  | If (c, t, []) ->
      Fmt.pf fmt "%sif (%a) {@.%a%s}@." pad (pp_expr ~prec:0) c pp_body t pad
  | If (c, t, e) ->
      Fmt.pf fmt "%sif (%a) {@.%a%s} else {@.%a%s}@." pad (pp_expr ~prec:0) c
        pp_body t pad pp_body e pad
  | While (c, b) ->
      Fmt.pf fmt "%swhile (%a) {@.%a%s}@." pad (pp_expr ~prec:0) c pp_body b pad
  | DoWhile (b, c) ->
      Fmt.pf fmt "%sdo {@.%a%s} while (%a);@." pad pp_body b pad
        (pp_expr ~prec:0) c
  | For (i, c, st, b) ->
      let pp_opt_stmt fmt = function
        | None -> ()
        | Some (Assign (n, e)) -> Fmt.pf fmt "%s = %a" n (pp_expr ~prec:0) e
        | Some (Decl (t, n, Some e)) ->
            Fmt.pf fmt "%s %s = %a" (ty_to_string t) n (pp_expr ~prec:0) e
        | Some (Expr e) -> pp_expr ~prec:0 fmt e
        | Some _ -> Fmt.string fmt "/* ? */"
      in
      Fmt.pf fmt "%sfor (%a; %a; %a) {@.%a%s}@." pad pp_opt_stmt i
        (Fmt.option (pp_expr ~prec:0))
        c pp_opt_stmt st pp_body b pad
  | Switch (e, cases, d) ->
      Fmt.pf fmt "%sswitch (%a) {@." pad (pp_expr ~prec:0) e;
      List.iter
        (fun (k, b) ->
          Fmt.pf fmt "%scase %d: {@.%a%s  break; }@." pad k pp_body b pad)
        cases;
      Fmt.pf fmt "%sdefault: {@.%a%s}@." pad pp_body d pad;
      Fmt.pf fmt "%s}@." pad
  | Break -> Fmt.pf fmt "%sbreak;@." pad
  | Continue -> Fmt.pf fmt "%scontinue;@." pad
  | Return None -> Fmt.pf fmt "%sreturn;@." pad
  | Return (Some e) -> Fmt.pf fmt "%sreturn %a;@." pad (pp_expr ~prec:0) e
  | Expr e -> Fmt.pf fmt "%s%a;@." pad (pp_expr ~prec:0) e
  | Block b ->
      Fmt.pf fmt "%s{@.%a%s}@." pad
        (fun fmt -> List.iter (fun s -> pp_stmt ~indent:(indent + 2) fmt s))
        b pad

let pp_func fmt (f : func) =
  Fmt.pf fmt "%s %s(%a) {@.%a}@." (ty_to_string f.fret) f.fname
    Fmt.(
      list ~sep:(any ", ") (fun fmt (t, n) ->
          Fmt.pf fmt "%s %s" (ty_to_string t) n))
    f.fparams
    (fun fmt body -> List.iter (pp_stmt ~indent:2 fmt) body)
    f.fbody

let pp_program fmt (p : program) =
  List.iter (fun f -> Fmt.pf fmt "%a@." pp_func f) p.pfuncs

let func_to_string f = Fmt.str "%a" pp_func f
let program_to_string p = Fmt.str "%a" pp_program p
