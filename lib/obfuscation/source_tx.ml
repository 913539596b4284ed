(** The fifteen source-to-source transformations behind Zhang et al.'s
    clone-detector evaders (used by the [rs], [mcmc], [drlsg] and [ga]
    strategies of the paper).  Each transformation is semantics-preserving on
    mini-C functions; strategies in {!Strategies} combine them.

    Faithful to the paper's observation (§4.3), most of these rewrites are
    *syntactic*: lowering to IR (let alone SSA conversion) already normalises
    many of them away. *)

open Yali_minic.Ast
module Rng = Yali_util.Rng

type t = { txname : string; apply : Rng.t -> func -> func }

(* -- helpers ------------------------------------------------------------- *)

let rec expr_has_call (e : expr) : bool =
  match e with
  | Call _ -> true
  | IntLit _ | FloatLit _ | Var _ -> false
  | Bin (_, a, b) -> expr_has_call a || expr_has_call b
  | Un (_, a) -> expr_has_call a
  | Index (_, i) -> expr_has_call i
  | Ternary (c, a, b) -> expr_has_call c || expr_has_call a || expr_has_call b

let rec stmts_have_jump (ss : stmt list) : bool =
  List.exists
    (fun s ->
      match s with
      | Break | Continue -> true
      | If (_, t, e) -> stmts_have_jump t || stmts_have_jump e
      | Block b -> stmts_have_jump b
      (* a break in a switch binds to it, a continue to the loop around *)
      | Switch (_, cases, d) ->
          List.exists (fun (_, b) -> stmts_have_continue b) cases
          || stmts_have_continue d
      (* jumps inside nested loops bind to those, not to us *)
      | While _ | DoWhile _ | For _ -> false
      | _ -> false)
    ss

and stmts_have_continue (ss : stmt list) : bool =
  List.exists
    (fun s ->
      match s with
      | Continue -> true
      | If (_, t, e) -> stmts_have_continue t || stmts_have_continue e
      | Block b -> stmts_have_continue b
      | Switch (_, cases, d) ->
          List.exists (fun (_, b) -> stmts_have_continue b) cases
          || stmts_have_continue d
      | _ -> false)
    ss

let on_body (f : stmt list -> stmt list) (fn : func) : func =
  { fn with fbody = f fn.fbody }

(* -- 1: for → while ------------------------------------------------------ *)

let for_to_while =
  let apply _rng fn =
    on_body
      (map_stmts (function
        | For (init, cond, step, body) when not (stmts_have_jump body) ->
            (* [continue] in a for-loop jumps to the step; in the converted
               while it would skip it — hence the jump-free guard *)
            let cond = Option.value cond ~default:(IntLit 1) in
            let body' = body @ Option.to_list step in
            let loop = While (cond, body') in
            Block (Option.to_list init @ [ loop ])
        | s -> s))
      fn
  in
  { txname = "for_to_while"; apply }

(* -- 2: while → for ------------------------------------------------------ *)

let while_to_for =
  let apply _rng fn =
    on_body
      (map_stmts (function
        | While (c, body) -> For (None, Some c, None, body)
        | s -> s))
      fn
  in
  { txname = "while_to_for"; apply }

(* -- 3: while → do-while under an if ------------------------------------ *)

let while_to_dowhile =
  let apply _rng fn =
    on_body
      (map_stmts (function
        | While (c, body) when not (stmts_have_jump body) ->
            If (c, [ DoWhile (body, c) ], [])
        | s -> s))
      fn
  in
  { txname = "while_to_dowhile"; apply }

(* -- 4: switch → if-chain ------------------------------------------------ *)

let switch_to_ifchain =
  let apply _rng fn =
    on_body
      (map_stmts (function
        | Switch (e, cases, default)
          when (not (expr_has_call e))
               && (not (stmts_have_jump default))
               && not (List.exists (fun (_, b) -> stmts_have_jump b) cases) ->
            (* a [break] in a case leaves the switch, but in the if-chain it
               would leave the enclosing loop: skip switches with jumps *)
            let rec chain = function
              | [] -> default
              | (k, body) :: rest ->
                  [ If (Bin (Eq, e, IntLit k), body, chain rest) ]
            in
            Block (chain cases)
        | s -> s))
      fn
  in
  { txname = "switch_to_ifchain"; apply }

(* -- 5: negate-and-swap if ----------------------------------------------- *)

let if_negate_swap =
  let apply _rng fn =
    on_body
      (map_stmts (function
        | If (c, t, e) when e <> [] -> If (Un (LNot, c), e, t)
        | s -> s))
      fn
  in
  { txname = "if_negate_swap"; apply }

(* -- 6: constant unfolding (n = (n-k) + k) ------------------------------- *)

let const_unfold =
  let apply rng fn =
    let body =
      map_exprs
        (function
          | IntLit n when n > 1 && n < 1000000 ->
              let k = Rng.int_range rng 1 16 in
              Bin (Add, IntLit (n - k), IntLit k)
          | e -> e)
        fn.fbody
    in
    { fn with fbody = body }
  in
  { txname = "const_unfold"; apply }

(* -- 7: constant xor masking --------------------------------------------- *)

let const_xor =
  let apply rng fn =
    let body =
      map_exprs
        (function
          | IntLit n when n >= 0 && n < 1000000 ->
              let k = Rng.int_range rng 1 255 in
              Bin (BXor, IntLit (n lxor k), IntLit k)
          | e -> e)
        fn.fbody
    in
    { fn with fbody = body }
  in
  { txname = "const_xor"; apply }

(* -- 8: variable renaming ------------------------------------------------ *)

let var_rename =
  let apply rng fn =
    let salt = Rng.int rng 10000 in
    let names = declared_vars fn in
    let mapping = Hashtbl.create 16 in
    List.iteri
      (fun i n ->
        if not (Hashtbl.mem mapping n) then
          Hashtbl.replace mapping n (Printf.sprintf "v%d_%d" salt i))
      names;
    let rn n = Option.value (Hashtbl.find_opt mapping n) ~default:n in
    let rec rn_expr e =
      match e with
      | Var v -> Var (rn v)
      | Index (a, i) -> Index (rn a, rn_expr i)
      | IntLit _ | FloatLit _ -> e
      | Bin (op, a, b) -> Bin (op, rn_expr a, rn_expr b)
      | Un (op, a) -> Un (op, rn_expr a)
      | Call (f, args) -> Call (f, List.map rn_expr args)
      | Ternary (c, a, b) -> Ternary (rn_expr c, rn_expr a, rn_expr b)
    in
    let rn_stmt s =
      match s with
      | Decl (t, n, e) -> Decl (t, rn n, e)
      | DeclArr (n, sz) -> DeclArr (rn n, sz)
      | Assign (n, e) -> Assign (rn n, e)
      | AssignIdx (a, i, e) -> AssignIdx (rn a, i, e)
      | s -> s
    in
    let body = map_stmts rn_stmt fn.fbody in
    let body = map_exprs rn_expr body in
    {
      fn with
      fparams = List.map (fun (t, n) -> (t, rn n)) fn.fparams;
      fbody = body;
    }
  in
  { txname = "var_rename"; apply }

(* -- 9: dead declarations ------------------------------------------------ *)

let dead_decl =
  let apply rng fn =
    let salt = Rng.int rng 100000 in
    let n_junk = Rng.int_range rng 1 3 in
    let param_reads =
      List.filter_map
        (fun (t, n) -> if t = TInt then Some (Var n) else None)
        fn.fparams
    in
    let junk_expr i =
      match param_reads with
      | [] -> Bin (Mul, Var (Printf.sprintf "__j%d_%d" salt i), IntLit 3)
      | vs -> Bin (Add, Rng.choice rng vs, IntLit (Rng.int rng 100))
    in
    let decls =
      List.init n_junk (fun i ->
          if param_reads = [] then
            (* self-referencing junk is invalid; use a constant chain *)
            Decl
              ( TInt,
                Printf.sprintf "__j%d_%d" salt i,
                Some (IntLit (Rng.int rng 1000)) )
          else Decl (TInt, Printf.sprintf "__j%d_%d" salt i, Some (junk_expr i)))
    in
    (* also consume the junk so that -O0 keeps it but semantics stay put:
       an if over a junk var with an empty body *)
    let uses =
      List.init n_junk (fun i ->
          If
            ( Bin (Lt, Var (Printf.sprintf "__j%d_%d" salt i), IntLit (-1000000)),
              [ Expr (IntLit 0) ],
              [] ))
    in
    { fn with fbody = decls @ uses @ fn.fbody }
  in
  { txname = "dead_decl"; apply }

(* -- 10: commute pure operands ------------------------------------------- *)

let commute =
  let apply _rng fn =
    let body =
      map_exprs
        (function
          | Bin ((Add | Mul | BAnd | BOr | BXor) as op, a, b)
            when (not (expr_has_call a)) && not (expr_has_call b) ->
              Bin (op, b, a)
          | e -> e)
        fn.fbody
    in
    { fn with fbody = body }
  in
  { txname = "commute"; apply }

(* -- 11: x*2 → x+x -------------------------------------------------------- *)

let mul2_to_add =
  let apply _rng fn =
    let body =
      map_exprs
        (function
          | Bin (Mul, a, IntLit 2) when not (expr_has_call a) -> Bin (Add, a, a)
          | Bin (Mul, IntLit 2, a) when not (expr_has_call a) -> Bin (Add, a, a)
          | e -> e)
        fn.fbody
    in
    { fn with fbody = body }
  in
  { txname = "mul2_to_add"; apply }

(* -- 12: peel one loop iteration ----------------------------------------- *)

let loop_peel =
  let apply _rng fn =
    on_body
      (map_stmts (function
        | While (c, body)
          when (not (stmts_have_jump body))
               && (not (expr_has_call c))
               && stmt_count body <= 10 ->
            If (c, body @ [ While (c, body) ], [])
        | s -> s))
      fn
  in
  { txname = "loop_peel"; apply }

(* -- 13: wrap in do { … } while (0) -------------------------------------- *)

let wrap_dowhile0 =
  let apply rng fn =
    on_body
      (map_stmts (function
        | (If _ | Block _) as s
          when (not (stmts_have_jump [ s ])) && Rng.bool rng ->
            DoWhile ([ s ], IntLit 0)
        | s -> s))
      fn
  in
  { txname = "wrap_dowhile0"; apply }

(* -- 14: arithmetic identities ------------------------------------------- *)

let add_identity =
  let apply rng fn =
    let rec add_id (s : stmt) =
      match s with
      | Assign (n, e) when not (expr_has_call e) ->
          if Rng.bool rng then Assign (n, Bin (Add, e, IntLit 0))
          else Assign (n, Bin (Mul, e, IntLit 1))
      | If (c, t, e) -> If (c, List.map add_id t, List.map add_id e)
      | While (c, b) -> While (c, List.map add_id b)
      | DoWhile (b, c) -> DoWhile (List.map add_id b, c)
      | For (i, c, st, b) -> For (i, c, st, List.map add_id b)
      | Switch (e, cases, d) ->
          Switch
            ( e,
              List.map (fun (k, b) -> (k, List.map add_id b)) cases,
              List.map add_id d )
      | Block b -> Block (List.map add_id b)
      | s -> s
    in
    { fn with fbody = List.map add_id fn.fbody }
  in
  { txname = "add_identity"; apply }

(* -- 15: comparison swapping --------------------------------------------- *)

let cmp_swap =
  let apply _rng fn =
    let body =
      map_exprs
        (function
          | Bin (Lt, a, b) when (not (expr_has_call a)) && not (expr_has_call b)
            ->
              Bin (Gt, b, a)
          | Bin (Le, a, b) when (not (expr_has_call a)) && not (expr_has_call b)
            ->
              Bin (Ge, b, a)
          | Bin (Gt, a, b) when (not (expr_has_call a)) && not (expr_has_call b)
            ->
              Bin (Lt, b, a)
          | Bin (Ge, a, b) when (not (expr_has_call a)) && not (expr_has_call b)
            ->
              Bin (Le, b, a)
          | e -> e)
        fn.fbody
    in
    { fn with fbody = body }
  in
  { txname = "cmp_swap"; apply }

(** The fifteen base transformations, in a stable order. *)
let all : t list =
  [
    for_to_while; while_to_for; while_to_dowhile; switch_to_ifchain;
    if_negate_swap; const_unfold; const_xor; var_rename; dead_decl; commute;
    mul2_to_add; loop_peel; wrap_dowhile0; add_identity; cmp_swap;
  ]

let find name = List.find_opt (fun t -> t.txname = name) all

(** Apply a transformation to every function of a program. *)
let apply_program (tx : t) (rng : Rng.t) (p : program) : program =
  { pfuncs = List.map (tx.apply rng) p.pfuncs }

(** Apply a sequence of transformations left to right. *)
let apply_sequence (txs : t list) (rng : Rng.t) (p : program) : program =
  List.fold_left (fun p tx -> apply_program tx rng p) p txs
