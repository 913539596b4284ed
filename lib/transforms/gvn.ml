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
  let repl : (int, Value.t) Hashtbl.t = Hashtbl.create 16 in
  let rec resolve v =
    match v with
    | Value.Var id -> (
        match Hashtbl.find_opt repl id with Some v' -> resolve v' | None -> v)
    | _ -> v
  in
  let new_blocks = Array.make (Cfg.size cfg) None in
  let rec walk bi (available : Value.t SMap.t) =
    let b = Option.get block_of.(bi) in
    let available = ref available in
    let instrs =
      List.filter_map
        (fun (i : Instr.t) ->
          let i = Instr.map_operands resolve i in
          if Instr.defines i && Instr.is_pure i then
            match key_of i with
            | Some k -> (
                match SMap.find_opt k !available with
                | Some v ->
                    Hashtbl.replace repl i.id v;
                    None
                | None ->
                    available := SMap.add k (Value.Var i.id) !available;
                    Some i)
            | None -> Some i
          else Some i)
        b.instrs
    in
    new_blocks.(bi) <-
      Some { b with instrs; term = Instr.map_terminator_operands resolve b.term };
    List.iter (fun c -> walk c !available) dom.children.(bi)
  in
  walk cfg.entry SMap.empty;
  let blocks =
    List.filter_map
      (fun (b : Block.t) -> new_blocks.(Cfg.index cfg b.label))
      f.blocks
  in
  (* a second resolve sweep: uses may appear in blocks processed before the
     def's replacement was recorded (not possible under dominance, but phi
     operands flow across edges) *)
  Func.map_values resolve { f with blocks }

let run : Irmod.t -> Irmod.t = Irmod.map_funcs run_func
