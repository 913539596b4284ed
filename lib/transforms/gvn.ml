(** Dominator-scoped common-subexpression elimination (a light GVN).

    Pure instructions with syntactically equal keys are unified when an
    earlier occurrence dominates the later one.  Commutative operations are
    keyed on sorted operands. *)

open Yali_ir
module SMap = Map.Make (String)

let key_of (i : Instr.t) : string option =
  let v = Value.to_string in
  match i.kind with
  | Instr.Ibin (op, a, b) ->
      let a, b =
        if Instr.is_commutative_ibin op && compare b a < 0 then (b, a)
        else (a, b)
      in
      Some (Printf.sprintf "ib:%s:%s:%s:%s" (Instr.ibin_to_string op)
              (Types.to_string i.ty) (v a) (v b))
  | Instr.Fbin (op, a, b) ->
      Some (Printf.sprintf "fb:%s:%s:%s" (Instr.fbin_to_string op) (v a) (v b))
  | Instr.Fneg a -> Some (Printf.sprintf "fneg:%s" (v a))
  | Instr.Icmp (p, a, b) ->
      Some (Printf.sprintf "ic:%s:%s:%s" (Instr.icmp_to_string p) (v a) (v b))
  | Instr.Fcmp (p, a, b) ->
      Some (Printf.sprintf "fc:%s:%s:%s" (Instr.fcmp_to_string p) (v a) (v b))
  | Instr.Select (c, a, b) ->
      Some (Printf.sprintf "sel:%s:%s:%s" (v c) (v a) (v b))
  | Instr.Cast (c, a) ->
      Some
        (Printf.sprintf "cast:%s:%s:%s" (Instr.cast_to_string c)
           (Types.to_string i.ty) (v a))
  | Instr.Gep (base, idxs) ->
      Some
        (Printf.sprintf "gep:%s:%s" (v base)
           (String.concat "," (List.map v idxs)))
  (* loads, stores, calls, allocas, phis, freezes are not unified *)
  | _ -> None

let run_func (f : Func.t) : Func.t =
  let cfg = Cfg.of_func f in
  let dom = Dominance.compute cfg in
  let block_of = Array.make (Cfg.size cfg) None in
  List.iter (fun (b : Block.t) -> block_of.(Cfg.index cfg b.label) <- Some b) f.blocks;
  let s = Subst.create () in
  let rec walk bi (available : Value.t SMap.t) =
    let b = Option.get block_of.(bi) in
    let available =
      List.fold_left
        (fun available (i : Instr.t) ->
          if not (Instr.defines i && Instr.is_pure i) then available
          else
            match key_of (Instr.map_operands (Subst.resolve s) i) with
            | None -> available
            | Some k -> (
                match SMap.find_opt k available with
                | Some v ->
                    ignore (Subst.add s i.id v);
                    available
                | None -> SMap.add k (Value.Var i.id) available))
        available b.instrs
    in
    List.iter (fun c -> walk c available) dom.children.(bi)
  in
  walk cfg.entry SMap.empty;
  (* the walk never enters a block the entry does not reach: drop those,
     and the phi incomings they feed *)
  Subst.apply s (Subst.drop_dead cfg ~live:(Dominance.reachable dom) f)

let run : Irmod.t -> Irmod.t = Irmod.map_funcs run_func
