(** Peephole algebraic simplification ("instcombine").

    This pass is the heart of the paper's normalization story: O-LLVM's
    instruction-substitution obfuscation rewrites e.g. [a + b] into
    [a - (0 - b)] or [(a ^ b) + 2*(a & b)]; the rules below recognise such
    shapes and rewrite them back, which is why a classifier armed with an
    optimizer can undo the [sub] evader (paper, Example 2.5 and §4.4). *)

open Yali_ir
open Instr

let is_zero = function Value.IConst (_, 0L) -> true | _ -> false
let is_one = function Value.IConst (_, 1L) -> true | _ -> false
let is_allones = function Value.IConst (_, -1L) -> true | _ -> false

(* A definition table is consulted to look through operands. *)
type ctx = { defs : (int, Instr.t) Hashtbl.t }

let def_of (ctx : ctx) (v : Value.t) : Instr.t option =
  match v with Value.Var id -> Hashtbl.find_opt ctx.defs id | _ -> None

(* [0 - x] as an operand *)
let as_neg (ctx : ctx) (v : Value.t) : Value.t option =
  match def_of ctx v with
  | Some { kind = Ibin (Sub, z, x); _ } when is_zero z -> Some x
  | _ -> None

(* [x ^ -1] (bitwise not) as an operand *)
let as_not (ctx : ctx) (v : Value.t) : Value.t option =
  match def_of ctx v with
  | Some { kind = Ibin (Xor, x, m); _ } when is_allones m -> Some x
  | Some { kind = Ibin (Xor, m, x); _ } when is_allones m -> Some x
  | _ -> None

(* a binop with the given operator, as an operand *)
let as_ibin (ctx : ctx) (op : ibin) (v : Value.t) : (Value.t * Value.t) option
    =
  match def_of ctx v with
  | Some { kind = Ibin (op', a, b); _ } when op' = op -> Some (a, b)
  | _ -> None

(* [x << 1] (i.e. 2*x), as an operand *)
let as_twice (ctx : ctx) (v : Value.t) : Value.t option =
  match def_of ctx v with
  | Some { kind = Ibin (Shl, x, Value.IConst (_, 1L)); _ } -> Some x
  | Some { kind = Ibin (Mul, x, Value.IConst (_, 2L)); _ } -> Some x
  | Some { kind = Ibin (Mul, Value.IConst (_, 2L), x); _ } -> Some x
  | Some { kind = Ibin (Add, x, y); _ } when Value.equal x y -> Some x
  | _ -> None

let same_pair (a1, b1) (a2, b2) =
  (Value.equal a1 a2 && Value.equal b1 b2)
  || (Value.equal a1 b2 && Value.equal b1 a2)

type rewrite =
  | Value of Value.t  (** replace the instruction by a value *)
  | Instr of Instr.kind  (** replace the instruction's kind *)
  | Keep

let simplify (ctx : ctx) (i : Instr.t) : rewrite =
  match i.kind with
  | Ibin (Add, a, b) -> (
      if is_zero b then Value a
      else if is_zero a then Value b
      else
        (* the inverse rules for O-LLVM's -sub rewrites of [x + y]: *)
        let undo_ollvm_add () =
          let pairs l r =
            match (l ctx a, r ctx b) with
            | Some p, Some q -> Some (p, q)
            | _ -> (
                match (l ctx b, r ctx a) with
                | Some p, Some q -> Some (p, q)
                | _ -> None)
          in
          (* (x | y) + (x & y)  ==>  x + y *)
          match pairs (fun c v -> as_ibin c Or v) (fun c v -> as_ibin c And v) with
          | Some ((x, y), p) when same_pair (x, y) p ->
              Some (Instr (Ibin (Add, x, y)))
          | _ -> (
              (* (x ^ y) + 2*(x & y)  ==>  x + y *)
              let as_twice_and c v =
                match as_twice c v with
                | Some inner -> as_ibin c And inner
                | None -> None
              in
              match pairs (fun c v -> as_ibin c Xor v) as_twice_and with
              | Some ((x, y), p) when same_pair (x, y) p ->
                  Some (Instr (Ibin (Add, x, y)))
              | _ -> (
                  (* (x & y) + (x ^ y)  ==>  x | y *)
                  match
                    pairs (fun c v -> as_ibin c And v) (fun c v -> as_ibin c Xor v)
                  with
                  | Some ((x, y), p) when same_pair (x, y) p ->
                      Some (Instr (Ibin (Or, x, y)))
                  | _ -> None))
        in
        (* a + (0 - b)  ==>  a - b ; (0 - a) + b ==> b - a *)
        match (as_neg ctx a, as_neg ctx b) with
        | _, Some nb -> Instr (Ibin (Sub, a, nb))
        | Some na, _ -> Instr (Ibin (Sub, b, na))
        | None, None -> (
            match undo_ollvm_add () with Some r -> r | None -> Keep))
  | Ibin (Sub, a, b) -> (
      if is_zero b then Value a
      else if Value.equal a b then Value (Value.IConst (i.ty, 0L))
      else
        match as_neg ctx b with
        (* a - (0 - b) ==> a + b *)
        | Some nb -> Instr (Ibin (Add, a, nb))
        | None -> (
            (* inverse rules for O-LLVM's xor/and substitutions:
               (x | y) - (x & y) ==> x ^ y ; (x | y) - (x ^ y) ==> x & y *)
            match (as_ibin ctx Or a, as_ibin ctx And b, as_ibin ctx Xor b) with
            | Some (x, y), Some p, _ when same_pair (x, y) p ->
                Instr (Ibin (Xor, x, y))
            | Some (x, y), _, Some p when same_pair (x, y) p ->
                Instr (Ibin (And, x, y))
            | _ -> Keep))
  | Ibin (Mul, a, b) ->
      if is_one b then Value a
      else if is_one a then Value b
      else if is_zero a || is_zero b then Value (Value.IConst (i.ty, 0L))
      else if (match b with Value.IConst (_, 2L) -> true | _ -> false) then
        Instr (Ibin (Shl, a, Value.IConst (i.ty, 1L)))
      else Keep
  | Ibin (SDiv, a, b) when is_one b -> Value a
  | Ibin ((And | Or), a, b) when Value.equal a b -> Value a
  | Ibin (And, a, b) ->
      if is_zero a || is_zero b then Value (Value.IConst (i.ty, 0L))
      else if is_allones b then Value a
      else if is_allones a then Value b
      else Keep
  | Ibin (Or, a, b) ->
      if is_zero b then Value a
      else if is_zero a then Value b
      else if is_allones a || is_allones b then Value (Value.IConst (i.ty, -1L))
      else Keep
  | Ibin (Xor, a, b) -> (
      if Value.equal a b then Value (Value.IConst (i.ty, 0L))
      else if is_zero b then Value a
      else if is_zero a then Value b
      else
        (* ~(~x) ==> x *)
        match (as_not ctx a, as_not ctx b) with
        | Some x, _ when is_allones b -> Value x
        | _, Some x when is_allones a -> Value x
        | _ -> Keep)
  | Ibin ((Shl | LShr | AShr), a, s) when is_zero s -> Value a
  | Ibin ((Shl | LShr), a, _) when is_zero a -> Value a
  | Icmp (p, a, b) when Value.equal a b -> (
      match p with
      | Eq | Sle | Sge | Ule | Uge -> Value (Value.i1 true)
      | Ne | Slt | Sgt | Ult | Ugt -> Value (Value.i1 false))
  | Select (c, a, b) -> (
      if Value.equal a b then Value a
      else
        match c with
        | Value.IConst (_, 0L) -> Value b
        | Value.IConst (_, _) -> Value a
        | _ -> (
            (* select (icmp eq x 0) 0 x  and friends could be simplified;
               keep the common not-pattern: select c false true = !c *)
            match def_of ctx c with
            | Some { kind = Icmp (p, x, y); _ }
              when is_one a && is_zero b && i.ty = Types.I1 ->
                Instr (Icmp (p, x, y))
            | _ -> Keep))
  | Cast (ZExt, v) when i.ty = Types.I1 -> Value v
  | Cast ((ZExt | SExt | Trunc), v) -> (
      (* collapse cast chains that return to the original width, and
         trunc-of-zext of an i1 comparison *)
      match def_of ctx v with
      | Some { kind = Cast ((ZExt | SExt), inner); ty = _; _ } -> (
          match (inner, i.ty) with
          | Value.Var id, t -> (
              match Hashtbl.find_opt ctx.defs id with
              | Some d when d.ty = t -> Value inner
              | _ -> Keep)
          | _ -> Keep)
      | _ -> Keep)
  | Freeze v -> Value v
  | Phi [ (v, _) ] -> Value v
  | _ -> Keep

let run_func (f : Func.t) : Func.t =
  let f = ref f in
  let progress = ref true in
  let rounds = ref 0 in
  while !progress && !rounds < 8 do
    incr rounds;
    progress := false;
    let ctx = { defs = Func.definitions !f } in
    let s = Subst.create () in
    let rewritten =
      Func.map_blocks
        (fun b ->
          {
            b with
            instrs =
              List.map
                (fun (i : Instr.t) ->
                  if not (Instr.defines i) then i
                  else
                    match simplify ctx i with
                    | Value v ->
                        if Subst.add s i.id v then progress := true;
                        i
                    | Instr k ->
                        progress := true;
                        { i with kind = k }
                    | Keep -> i)
                b.instrs;
          })
        !f
    in
    if !progress then f := Subst.apply s rewritten
  done;
  Constfold.run_func !f

let run : Irmod.t -> Irmod.t = Irmod.map_funcs run_func
