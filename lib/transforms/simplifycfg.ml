(** Control-flow-graph simplification:

    - fold conditional branches / switches on constants;
    - remove unreachable blocks;
    - merge a block into its unique predecessor when that predecessor has a
      single successor;
    - collapse single-incoming phis.

    It is this pass (together with constant folding) that dismantles the kind
    of trivially-dead control flow naive obfuscators insert — though, as the
    paper observes, bogus control flow built on *opaque* predicates survives,
    because the predicate does not fold. *)

open Yali_ir

let fold_terminators (f : Func.t) : Func.t =
  Func.map_blocks
    (fun b ->
      let term =
        match b.term with
        | Instr.CondBr (Value.IConst (_, c), t, e) ->
            Instr.Br (if not (Int64.equal c 0L) then t else e)
        | Instr.CondBr (_, t, e) when t = e -> Instr.Br t
        | Instr.Switch (Value.IConst (_, k), d, cases) ->
            let target =
              match List.find_opt (fun (k', _) -> Int64.equal k k') cases with
              | Some (_, l) -> l
              | None -> d
            in
            Instr.Br target
        | Instr.Switch (v, d, []) ->
            ignore v;
            Instr.Br d
        | t -> t
      in
      { b with term })
    f

(* After terminator folding some blocks lose predecessors; their phi entries
   must be pruned.  {!Subst.drop_dead} handles the fully dead ones; here we
   prune phi entries for edges that disappeared. *)
let prune_phis (f : Func.t) : Func.t =
  let cfg = Cfg.of_func f in
  Func.map_blocks
    (fun b ->
      let preds = cfg.pred.(Cfg.index cfg b.label) in
      let is_pred l =
        match Cfg.find cfg l with Some p -> List.mem p preds | None -> false
      in
      let instrs =
        List.filter_map
          (fun (i : Instr.t) ->
            match i.kind with
            | Instr.Phi incoming -> (
                match List.filter (fun (_, l) -> is_pred l) incoming with
                | [] -> None
                | [ (v, _) ] when Instr.defines i ->
                    (* single predecessor: phi is just a copy; keep it as a
                       freeze so uses stay valid, Instcombine removes it *)
                    Some { i with kind = Instr.Freeze v }
                | incoming -> Some { i with kind = Instr.Phi incoming })
            | _ -> Some i)
          b.instrs
      in
      { b with instrs })
    f

(** Merge blocks with a unique predecessor whose terminator is an
    unconditional branch to them. *)
let merge_blocks (f : Func.t) : Func.t =
  let cfg = Cfg.of_func f in
  let entry_label = (Func.entry f).label in
  (* candidate: label b s.t. pred(b) = [p], term(p) = Br b, b <> entry,
     and b has no phis *)
  let merged_into : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let rec root l =
    match Hashtbl.find_opt merged_into l with Some p -> root p | None -> l
  in
  let block_tbl = Hashtbl.create 16 in
  List.iter (fun (b : Block.t) -> Hashtbl.replace block_tbl b.label (ref b)) f.blocks;
  List.iter
    (fun (b : Block.t) ->
      if b.label <> entry_label then
        match cfg.pred.(Cfg.index cfg b.label) with
        | [ p ] -> (
            let p = root (Cfg.label cfg p) in
            let pb = !(Hashtbl.find block_tbl p) in
            (* b may itself have absorbed blocks already: use its current
               version, not the stale one from the iteration list *)
            let bcur = !(Hashtbl.find block_tbl b.label) in
            match pb.term with
            | Instr.Br l when l = b.label && Block.phis bcur = [] ->
                let nb =
                  {
                    pb with
                    instrs = pb.instrs @ bcur.instrs;
                    term = bcur.term;
                  }
                in
                Hashtbl.replace block_tbl p (ref nb);
                Hashtbl.replace merged_into b.label p
            | _ -> ())
        | _ -> ())
    f.blocks;
  if Hashtbl.length merged_into = 0 then f
  else
    let blocks =
      List.filter_map
        (fun (b : Block.t) ->
          if Hashtbl.mem merged_into b.label then None
          else Some !(Hashtbl.find block_tbl b.label))
        f.blocks
    in
    (* successors' phis must now name the merged predecessor *)
    let blocks =
      List.map
        (fun (b : Block.t) ->
          Hashtbl.fold
            (fun old_pred _ acc ->
              Block.retarget_phis ~old_pred ~new_pred:(root old_pred) acc)
            merged_into b)
        blocks
    in
    { f with blocks }

let run_func (f : Func.t) : Func.t =
  let f = ref f in
  let progress = ref true in
  let rounds = ref 0 in
  while !progress && !rounds < 10 do
    incr rounds;
    let before = List.length !f.blocks + Func.instr_count !f in
    f := fold_terminators !f;
    let cfg = Cfg.of_func !f in
    f := Subst.drop_dead cfg ~live:(Array.get (Cfg.reachable cfg)) !f;
    f := prune_phis !f;
    f := merge_blocks !f;
    let after = List.length !f.blocks + Func.instr_count !f in
    progress := after <> before
  done;
  !f

let run : Irmod.t -> Irmod.t = Irmod.map_funcs run_func
