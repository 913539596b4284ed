(** Lowering from mini-C to the miniature IR.

    The translation is deliberately in the style of clang at [-O0]: every
    local variable lives in an [alloca] slot, every read is a [load], every
    write a [store].  Short-circuit operators and ternaries lower to control
    flow through a result slot.  Like clang's frontend, literal constant
    expressions are folded during lowering — this is what makes naive
    source-level "constant unfolding" obfuscations dissolve before they ever
    reach the IR. *)

open Ast
module I = Yali_ir.Instr
module T = Yali_ir.Types
module V = Yali_ir.Value
module B = Yali_ir.Builder

exception Lower_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Lower_error s)) fmt

let lower_ty = function TInt -> T.I32 | TFloat -> T.F64 | TVoid -> T.Void

(* Intrinsic signatures known to the interpreter. *)
let intrinsic_sig = function
  | "read_int" -> Some ([], T.I32)
  | "read_float" -> Some ([], T.F64)
  | "print_int" -> Some ([ T.I32 ], T.Void)
  | "print_float" -> Some ([ T.F64 ], T.Void)
  | "abs" -> Some ([ T.I32 ], T.I32)
  | "min" | "max" -> Some ([ T.I32; T.I32 ], T.I32)
  | _ -> None

type env = {
  prog : program;
  b : B.t;
  (* variable name -> (slot pointer value, scalar type) *)
  slots : (string, V.t * T.t) Hashtbl.t;
  (* array name -> (base pointer value, length) *)
  arrays : (string, V.t * int) Hashtbl.t;
  (* (continue target, break target) stack *)
  mutable loop_stack : (string * string) list;
  fret : T.t;
}

(* ---- frontend constant folding ---------------------------------------- *)

let rec fold_expr (e : expr) : expr =
  match e with
  | IntLit _ | FloatLit _ | Var _ | Index _ -> (
      match e with
      | Index (a, i) -> Index (a, fold_expr i)
      | _ -> e)
  | Call (n, args) -> Call (n, List.map fold_expr args)
  | Un (op, a) -> (
      match (op, fold_expr a) with
      | Neg, IntLit n -> IntLit (-n)
      | Neg, FloatLit f -> FloatLit (-.f)
      | LNot, IntLit n -> IntLit (if n = 0 then 1 else 0)
      | BNot, IntLit n -> IntLit (lnot n)
      | op, a' -> Un (op, a'))
  | Ternary (c, x, y) -> (
      match fold_expr c with
      | IntLit n -> if n <> 0 then fold_expr x else fold_expr y
      | c' -> Ternary (c', fold_expr x, fold_expr y))
  | Bin (op, x, y) -> (
      let x = fold_expr x and y = fold_expr y in
      match (op, x, y) with
      | Add, IntLit a, IntLit b -> IntLit (a + b)
      | Sub, IntLit a, IntLit b -> IntLit (a - b)
      | Mul, IntLit a, IntLit b -> IntLit (a * b)
      | Div, IntLit a, IntLit b when b <> 0 -> IntLit (a / b)
      | Mod, IntLit a, IntLit b when b <> 0 -> IntLit (a mod b)
      | BAnd, IntLit a, IntLit b -> IntLit (a land b)
      | BOr, IntLit a, IntLit b -> IntLit (a lor b)
      | BXor, IntLit a, IntLit b -> IntLit (a lxor b)
      | Shl, IntLit a, IntLit b when b >= 0 && b < 32 -> IntLit (a lsl b)
      | Shr, IntLit a, IntLit b when b >= 0 && b < 32 -> IntLit (a asr b)
      | Lt, IntLit a, IntLit b -> IntLit (if a < b then 1 else 0)
      | Le, IntLit a, IntLit b -> IntLit (if a <= b then 1 else 0)
      | Gt, IntLit a, IntLit b -> IntLit (if a > b then 1 else 0)
      | Ge, IntLit a, IntLit b -> IntLit (if a >= b then 1 else 0)
      | Eq, IntLit a, IntLit b -> IntLit (if a = b then 1 else 0)
      | Ne, IntLit a, IntLit b -> IntLit (if a <> b then 1 else 0)
      | LAnd, IntLit a, IntLit b -> IntLit (if a <> 0 && b <> 0 then 1 else 0)
      | LOr, IntLit a, IntLit b -> IntLit (if a <> 0 || b <> 0 then 1 else 0)
      | Add, FloatLit a, FloatLit b -> FloatLit (a +. b)
      | Sub, FloatLit a, FloatLit b -> FloatLit (a -. b)
      | Mul, FloatLit a, FloatLit b -> FloatLit (a *. b)
      | Div, FloatLit a, FloatLit b when b <> 0. -> FloatLit (a /. b)
      | op, x, y -> Bin (op, x, y))

(* ---- typing ------------------------------------------------------------ *)

let rec expr_ty (env : env) (e : expr) : T.t =
  match e with
  | IntLit _ -> T.I32
  | FloatLit _ -> T.F64
  | Var v -> (
      match Hashtbl.find_opt env.slots v with
      | Some (_, t) -> t
      | None ->
          if Hashtbl.mem env.arrays v then T.Ptr T.I32
          else err "unbound variable %s" v)
  | Index _ -> T.I32
  | Un (Neg, a) -> expr_ty env a
  | Un (_, _) -> T.I32
  | Bin ((Lt | Le | Gt | Ge | Eq | Ne | LAnd | LOr), _, _) -> T.I32
  | Bin ((Mod | BAnd | BOr | BXor | Shl | Shr), _, _) -> T.I32
  | Bin (_, a, b) ->
      if expr_ty env a = T.F64 || expr_ty env b = T.F64 then T.F64 else T.I32
  | Ternary (_, a, _) -> expr_ty env a
  | Call (n, _) -> (
      match intrinsic_sig n with
      | Some (_, ret) -> ret
      | None -> (
          match find_func env.prog n with
          | Some f -> lower_ty f.fret
          | None -> err "call to undeclared function %s" n))

(* ---- expression lowering ----------------------------------------------- *)

let rec lower_expr (env : env) (e : expr) : V.t * T.t =
  let b = env.b in
  match e with
  | IntLit n -> (V.i32 n, T.I32)
  | FloatLit f -> (V.f64 f, T.F64)
  | Var v -> (
      match Hashtbl.find_opt env.slots v with
      | Some (slot, t) -> (B.load b ~ty:t slot, t)
      | None -> (
          match Hashtbl.find_opt env.arrays v with
          | Some (base, _) -> (base, T.Ptr T.I32)
          | None -> err "unbound variable %s" v))
  | Index (a, i) ->
      let ptr = lower_index_addr env a i in
      (B.load b ~ty:T.I32 ptr, T.I32)
  | Un (Neg, a) -> (
      let v, t = lower_expr env a in
      match t with
      | T.F64 -> (B.emit b ~ty:T.F64 (I.Fneg v), T.F64)
      | _ -> (B.ibin b I.Sub (V.i32 0) v ~ty:T.I32, T.I32))
  | Un (LNot, a) ->
      let v = lower_cond env a in
      let inv = B.icmp b I.Eq v (V.i1 false) in
      (B.cast b I.ZExt inv ~ty:T.I32, T.I32)
  | Un (BNot, a) ->
      let v, _ = lower_int env a in
      (B.ibin b I.Xor v (V.i32 (-1)) ~ty:T.I32, T.I32)
  | Bin ((LAnd | LOr) as op, x, y) -> lower_shortcircuit env op x y
  | Bin ((Lt | Le | Gt | Ge | Eq | Ne) as op, x, y) ->
      let vx, tx = lower_expr env x in
      let vy, ty = lower_expr env y in
      let c =
        if tx = T.F64 || ty = T.F64 then
          let fx = to_float env vx tx and fy = to_float env vy ty in
          let p =
            match op with
            | Lt -> I.Olt | Le -> I.Ole | Gt -> I.Ogt | Ge -> I.Oge
            | Eq -> I.Oeq | Ne -> I.One
            | _ -> assert false
          in
          B.fcmp b p fx fy
        else
          let p =
            match op with
            | Lt -> I.Slt | Le -> I.Sle | Gt -> I.Sgt | Ge -> I.Sge
            | Eq -> I.Eq | Ne -> I.Ne
            | _ -> assert false
          in
          B.icmp b p vx vy
      in
      (B.cast b I.ZExt c ~ty:T.I32, T.I32)
  | Bin ((Mod | BAnd | BOr | BXor | Shl | Shr) as op, x, y) ->
      let vx, _ = lower_int env x in
      let vy, _ = lower_int env y in
      let iop =
        match op with
        | Mod -> I.SRem | BAnd -> I.And | BOr -> I.Or | BXor -> I.Xor
        | Shl -> I.Shl | Shr -> I.AShr
        | _ -> assert false
      in
      (B.ibin b iop vx vy ~ty:T.I32, T.I32)
  | Bin ((Add | Sub | Mul | Div) as op, x, y) ->
      let vx, tx = lower_expr env x in
      let vy, ty = lower_expr env y in
      if tx = T.F64 || ty = T.F64 then
        let fx = to_float env vx tx and fy = to_float env vy ty in
        let fop =
          match op with
          | Add -> I.FAdd | Sub -> I.FSub | Mul -> I.FMul | Div -> I.FDiv
          | _ -> assert false
        in
        (B.fbin b fop fx fy, T.F64)
      else
        let iop =
          match op with
          | Add -> I.Add | Sub -> I.Sub | Mul -> I.Mul | Div -> I.SDiv
          | _ -> assert false
        in
        (B.ibin b iop vx vy ~ty:T.I32, T.I32)
  | Ternary (c, x, y) ->
      let tres = expr_ty env e in
      let slot = B.alloca b tres in
      let lt = B.new_block ~hint:"tern.t" b in
      let lf = B.new_block ~hint:"tern.f" b in
      let lj = B.new_block ~hint:"tern.end" b in
      let cv = lower_cond env c in
      B.condbr b cv lt lf;
      B.switch_to b lt;
      let vx, tx = lower_expr env x in
      let vx = coerce env vx tx tres in
      B.store b vx slot;
      B.br b lj;
      B.switch_to b lf;
      let vy, ty2 = lower_expr env y in
      let vy = coerce env vy ty2 tres in
      B.store b vy slot;
      B.br b lj;
      B.switch_to b lj;
      (B.load b ~ty:tres slot, tres)
  | Call (n, args) ->
      let psig, ret =
        match intrinsic_sig n with
        | Some (ps, r) -> (Some ps, r)
        | None -> (
            match find_func env.prog n with
            | Some f -> (Some (List.map (fun (t, _) -> lower_ty t) f.fparams), lower_ty f.fret)
            | None -> err "call to undeclared function %s" n)
      in
      let vals =
        match psig with
        | Some ps when List.length ps = List.length args ->
            List.map2
              (fun pt a ->
                let v, t = lower_expr env a in
                coerce env v t pt)
              ps args
        | _ -> err "arity mismatch calling %s" n
      in
      (B.call b ~ty:ret n vals, ret)

and lower_int (env : env) (e : expr) : V.t * T.t =
  let v, t = lower_expr env e in
  match t with
  | T.F64 -> (B.cast env.b I.FPToSI v ~ty:T.I32, T.I32)
  | _ -> (v, t)

and to_float (env : env) (v : V.t) (t : T.t) : V.t =
  if t = T.F64 then v else B.cast env.b I.SIToFP v ~ty:T.F64

and coerce (env : env) (v : V.t) (from_t : T.t) (to_t : T.t) : V.t =
  if from_t = to_t then v
  else
    match (from_t, to_t) with
    | T.I32, T.F64 -> B.cast env.b I.SIToFP v ~ty:T.F64
    | T.F64, T.I32 -> B.cast env.b I.FPToSI v ~ty:T.I32
    | _ -> v

(** Lower an expression as an [i1] branch condition. *)
and lower_cond (env : env) (e : expr) : V.t =
  match e with
  | Bin ((Lt | Le | Gt | Ge | Eq | Ne) as op, x, y) ->
      (* avoid the zext/icmp-ne round-trip for plain comparisons *)
      let vx, tx = lower_expr env x in
      let vy, ty = lower_expr env y in
      if tx = T.F64 || ty = T.F64 then
        let fx = to_float env vx tx and fy = to_float env vy ty in
        let p =
          match op with
          | Lt -> I.Olt | Le -> I.Ole | Gt -> I.Ogt | Ge -> I.Oge
          | Eq -> I.Oeq | Ne -> I.One
          | _ -> assert false
        in
        B.fcmp env.b p fx fy
      else
        let p =
          match op with
          | Lt -> I.Slt | Le -> I.Sle | Gt -> I.Sgt | Ge -> I.Sge
          | Eq -> I.Eq | Ne -> I.Ne
          | _ -> assert false
        in
        B.icmp env.b p vx vy
  | _ ->
      let v, t = lower_expr env e in
      if t = T.F64 then B.fcmp env.b I.One v (V.f64 0.)
      else B.icmp env.b I.Ne v (V.i32 0)

and lower_shortcircuit (env : env) (op : binop) (x : expr) (y : expr) :
    V.t * T.t =
  let b = env.b in
  let slot = B.alloca b T.I32 in
  let leval = B.new_block ~hint:"sc.rhs" b in
  let lshort = B.new_block ~hint:"sc.short" b in
  let lj = B.new_block ~hint:"sc.end" b in
  let cx = lower_cond env x in
  (match op with
  | LAnd -> B.condbr b cx leval lshort
  | LOr -> B.condbr b cx lshort leval
  | _ -> assert false);
  B.switch_to b lshort;
  B.store b (V.i32 (match op with LAnd -> 0 | _ -> 1)) slot;
  B.br b lj;
  B.switch_to b leval;
  let cy = lower_cond env y in
  let as_int = B.cast b I.ZExt cy ~ty:T.I32 in
  B.store b as_int slot;
  B.br b lj;
  B.switch_to b lj;
  (B.load b ~ty:T.I32 slot, T.I32)

and lower_index_addr (env : env) (a : string) (i : expr) : V.t =
  let base, len =
    match Hashtbl.find_opt env.arrays a with
    | Some (base, len) -> (base, len)
    | None -> (
        match Hashtbl.find_opt env.slots a with
        | Some _ -> err "%s is scalar, not an array" a
        | None -> err "unbound array %s" a)
  in
  ignore len;
  let vi, _ = lower_int env i in
  B.gep env.b ~ty:(T.Ptr T.I32) base [ vi ]

(* ---- statement lowering ------------------------------------------------ *)

let rec lower_stmts (env : env) (ss : stmt list) : unit =
  List.iter (lower_stmt env) ss

and lower_stmt (env : env) (s : stmt) : unit =
  let b = env.b in
  if B.is_terminated b then ()
  else
    match s with
    | Decl (t, n, init) ->
        let ty = lower_ty t in
        let slot = B.alloca b ty in
        Hashtbl.replace env.slots n (slot, ty);
        (match init with
        | Some e ->
            let v, et = lower_expr env (fold_expr e) in
            B.store b (coerce env v et ty) slot
        | None -> B.store b (match ty with T.F64 -> V.f64 0. | _ -> V.i32 0) slot)
    | DeclArr (n, sz) ->
        let raw = B.alloca b (T.Arr (T.I32, max 1 sz)) in
        (* decay to an element pointer so that geps step by element *)
        let base = B.cast b I.Bitcast raw ~ty:(T.Ptr T.I32) in
        Hashtbl.replace env.arrays n (base, sz)
    | Assign (n, e) -> (
        match Hashtbl.find_opt env.slots n with
        | Some (slot, ty) ->
            let v, et = lower_expr env (fold_expr e) in
            B.store b (coerce env v et ty) slot
        | None -> err "assignment to unbound variable %s" n)
    | AssignIdx (a, i, e) ->
        let ptr = lower_index_addr env a (fold_expr i) in
        let v, et = lower_expr env (fold_expr e) in
        B.store b (coerce env v et T.I32) ptr
    | If (c, t, e) ->
        let lt = B.new_block ~hint:"if.then" b in
        let le = B.new_block ~hint:"if.else" b in
        let lj = B.new_block ~hint:"if.end" b in
        let cv = lower_cond env (fold_expr c) in
        B.condbr b cv lt le;
        B.switch_to b lt;
        lower_stmts env t;
        if not (B.is_terminated b) then B.br b lj;
        B.switch_to b le;
        lower_stmts env e;
        if not (B.is_terminated b) then B.br b lj;
        B.switch_to b lj
    | While (c, body) ->
        let lc = B.new_block ~hint:"while.cond" b in
        let lb = B.new_block ~hint:"while.body" b in
        let lx = B.new_block ~hint:"while.end" b in
        B.br b lc;
        B.switch_to b lc;
        let cv = lower_cond env (fold_expr c) in
        B.condbr b cv lb lx;
        B.switch_to b lb;
        env.loop_stack <- (lc, lx) :: env.loop_stack;
        lower_stmts env body;
        env.loop_stack <- List.tl env.loop_stack;
        if not (B.is_terminated b) then B.br b lc;
        B.switch_to b lx
    | DoWhile (body, c) ->
        let lb = B.new_block ~hint:"do.body" b in
        let lc = B.new_block ~hint:"do.cond" b in
        let lx = B.new_block ~hint:"do.end" b in
        B.br b lb;
        B.switch_to b lb;
        env.loop_stack <- (lc, lx) :: env.loop_stack;
        lower_stmts env body;
        env.loop_stack <- List.tl env.loop_stack;
        if not (B.is_terminated b) then B.br b lc;
        B.switch_to b lc;
        let cv = lower_cond env (fold_expr c) in
        B.condbr b cv lb lx;
        B.switch_to b lx
    | For (init, cond, step, body) ->
        Option.iter (lower_stmt env) init;
        let lc = B.new_block ~hint:"for.cond" b in
        let lb = B.new_block ~hint:"for.body" b in
        let ls = B.new_block ~hint:"for.step" b in
        let lx = B.new_block ~hint:"for.end" b in
        B.br b lc;
        B.switch_to b lc;
        (match cond with
        | Some c ->
            let cv = lower_cond env (fold_expr c) in
            B.condbr b cv lb lx
        | None -> B.br b lb);
        B.switch_to b lb;
        env.loop_stack <- (ls, lx) :: env.loop_stack;
        lower_stmts env body;
        env.loop_stack <- List.tl env.loop_stack;
        if not (B.is_terminated b) then B.br b ls;
        B.switch_to b ls;
        Option.iter (lower_stmt env) step;
        if not (B.is_terminated b) then B.br b lc;
        B.switch_to b lx
    | Switch (e, cases, default) ->
        let v, _ = lower_int env (fold_expr e) in
        let lx = B.new_block ~hint:"sw.end" b in
        let ld = B.new_block ~hint:"sw.default" b in
        let case_labels =
          List.map (fun (k, _) -> (k, B.new_block ~hint:"sw.case" b)) cases
        in
        B.switch b v ~default:ld
          (List.map (fun (k, l) -> (Int64.of_int k, l)) case_labels);
        (* cases break implicitly in mini-C *)
        env.loop_stack <- env.loop_stack;
        List.iter2
          (fun (_, body) (_, l) ->
            B.switch_to b l;
            env.loop_stack <- ("<invalid-continue>", lx) :: env.loop_stack;
            lower_stmts env body;
            env.loop_stack <- List.tl env.loop_stack;
            if not (B.is_terminated b) then B.br b lx)
          cases case_labels;
        B.switch_to b ld;
        env.loop_stack <- ("<invalid-continue>", lx) :: env.loop_stack;
        lower_stmts env default;
        env.loop_stack <- List.tl env.loop_stack;
        if not (B.is_terminated b) then B.br b lx;
        B.switch_to b lx
    | Break -> (
        match env.loop_stack with
        | (_, lx) :: _ -> B.br b lx
        | [] -> err "break outside loop/switch")
    | Continue -> (
        (* a continue in a switch continues the innermost enclosing loop *)
        match
          List.find_opt
            (fun (lc, _) -> lc <> "<invalid-continue>")
            env.loop_stack
        with
        | Some (lc, _) -> B.br b lc
        | None -> err "continue outside loop")
    | Return None ->
        if env.fret = T.Void then B.ret b None
        else B.ret b (Some (V.i32 0))
    | Return (Some e) ->
        let v, t = lower_expr env (fold_expr e) in
        if env.fret = T.Void then B.ret b None
        else B.ret b (Some (coerce env v t env.fret))
    | Expr e -> ignore (lower_expr env (fold_expr e))
    | Block ss -> lower_stmts env ss

let lower_func (prog : program) (f : func) : Yali_ir.Func.t =
  let param_tys = List.map (fun (t, _) -> lower_ty t) f.fparams in
  let b = B.create ~name:f.fname ~param_tys ~ret:(lower_ty f.fret) in
  let entry = B.new_block ~hint:"entry" b in
  B.switch_to b entry;
  let env =
    {
      prog;
      b;
      slots = Hashtbl.create 16;
      arrays = Hashtbl.create 4;
      loop_stack = [];
      fret = lower_ty f.fret;
    }
  in
  (* spill parameters into slots, clang -O0 style *)
  List.iteri
    (fun i (t, n) ->
      let ty = lower_ty t in
      let slot = B.alloca b ty in
      B.store b (B.param b i) slot;
      Hashtbl.replace env.slots n (slot, ty))
    f.fparams;
  lower_stmts env f.fbody;
  (if not (B.is_terminated b) then
     match env.fret with
     | T.Void -> B.ret b None
     | T.F64 -> B.ret b (Some (V.f64 0.))
     | _ -> B.ret b (Some (V.i32 0)));
  (* seal any other unterminated blocks with a return, mirroring C's
     fall-off-the-end behaviour *)
  let fn = B.finish b in
  let fn =
    Yali_ir.Func.map_blocks
      (fun blk ->
        match blk.Yali_ir.Block.term with
        | Yali_ir.Instr.Unreachable when blk.Yali_ir.Block.label <> entry ->
            {
              blk with
              term =
                (match env.fret with
                | T.Void -> Yali_ir.Instr.Ret None
                | T.F64 -> Yali_ir.Instr.Ret (Some (V.f64 0.))
                | _ -> Yali_ir.Instr.Ret (Some (V.i32 0)));
            }
        | _ -> blk)
      fn
  in
  fn

(** Lower a full program to an IR module. *)
let lower_program ?(name = "m") (p : program) : Yali_ir.Irmod.t =
  let funcs = List.map (lower_func p) p.pfuncs in
  Yali_ir.Irmod.make ~name funcs
