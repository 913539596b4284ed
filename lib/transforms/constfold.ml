(** Constant folding: evaluate instructions whose operands are literals and
    substitute the result into all uses. *)

open Yali_ir

let fold_instr (i : Instr.t) : Value.t option =
  match i.kind with
  | Instr.Ibin (op, Value.IConst (_, a), Value.IConst (_, b)) -> (
      try Some (Value.IConst (i.ty, Interp.eval_ibin i.ty op a b))
      with Interp.Trap _ -> None)
  | Instr.Fbin (op, Value.FConst a, Value.FConst b) ->
      Some (Value.FConst (Interp.eval_fbin op a b))
  | Instr.Fneg (Value.FConst a) -> Some (Value.FConst (-.a))
  | Instr.Icmp (p, Value.IConst (_, a), Value.IConst (_, b)) ->
      Some (Value.i1 (Interp.eval_icmp p a b))
  | Instr.Fcmp (p, Value.FConst a, Value.FConst b) ->
      Some (Value.i1 (Interp.eval_fcmp p a b))
  | Instr.Select (Value.IConst (_, c), a, b) ->
      Some (if not (Int64.equal c 0L) then a else b)
  | Instr.Cast (c, (Value.IConst _ | Value.FConst _)) -> (
      let v =
        match i.kind with
        | Instr.Cast (_, v) -> v
        | _ -> assert false
      in
      let rv =
        match v with
        | Value.IConst (t, n) -> Interp.RInt (Interp.normalize t n)
        | Value.FConst f -> Interp.RFloat f
        | _ -> assert false
      in
      match Interp.eval_cast c i.ty rv with
      | Interp.RInt n -> Some (Value.IConst (i.ty, n))
      | Interp.RFloat f -> Some (Value.FConst f)
      | _ -> None)
  | Instr.Freeze ((Value.IConst _ | Value.FConst _) as v) -> Some v
  | Instr.Phi ((v, _) :: rest)
    when List.for_all (fun (v', _) -> Value.equal v v') rest ->
      (* all-same phi ({!Subst.add} refuses the self-reference of a phi
         that only feeds itself) *)
      Some v
  | _ -> None

let rec run_func (f : Func.t) : Func.t =
  let s = Subst.create () in
  let changed = ref false in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          if Instr.defines i then
            match fold_instr i with
            | Some v -> if Subst.add s i.id v then changed := true
            | None -> ())
        b.instrs)
    f.blocks;
  if !changed then run_func (Subst.apply s f) else f

let run : Irmod.t -> Irmod.t = Irmod.map_funcs run_func
