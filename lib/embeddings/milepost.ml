(** A MILEPOST-GCC-style static feature vector (Namolaru et al.).  The
    original collects 56 hand-designed counters over the compiler's IR; this
    re-implementation computes the analogous counters over the miniature IR:
    CFG shape statistics, instruction class counts, and value statistics. *)

open Yali_ir

let dim = 56

let of_func (f : Func.t) : float array =
  let v = Array.make dim 0.0 in
  let add i x = v.(i) <- v.(i) +. x in
  let cfg = Cfg.of_func f in
  let blocks = f.blocks in
  let n_blocks = List.length blocks in
  add 0 (float_of_int n_blocks);
  List.iter
    (fun (b : Block.t) ->
      let n_succ = List.length (Block.successors b) in
      let n_pred = List.length cfg.pred.(Cfg.index cfg b.label) in
      (* 1-8: block shape counters, after MILEPOST ft2..ft9 *)
      if n_succ = 1 then add 1 1.0;
      if n_succ = 2 then add 2 1.0;
      if n_succ > 2 then add 3 1.0;
      if n_pred = 1 then add 4 1.0;
      if n_pred = 2 then add 5 1.0;
      if n_pred > 2 then add 6 1.0;
      if n_pred = 1 && n_succ = 1 then add 7 1.0;
      if n_pred = 2 && n_succ = 2 then add 8 1.0;
      let n_instrs = List.length b.instrs in
      (* 9-11: block size buckets *)
      if n_instrs < 15 then add 9 1.0
      else if n_instrs <= 500 then add 10 1.0
      else add 11 1.0;
      List.iter
        (fun (i : Instr.t) ->
          match i.kind with
          | Instr.Phi args ->
              add 12 1.0;
              add 13 (float_of_int (List.length args));
              if List.length args > 3 then add 14 1.0
          | Instr.Ibin (op, a, b') -> (
              add 15 1.0;
              (match op with
              | Instr.Add -> add 16 1.0
              | Instr.Sub -> add 17 1.0
              | Instr.Mul -> add 18 1.0
              | Instr.SDiv | Instr.UDiv -> add 19 1.0
              | Instr.SRem | Instr.URem -> add 20 1.0
              | Instr.Shl | Instr.LShr | Instr.AShr -> add 21 1.0
              | Instr.And | Instr.Or | Instr.Xor -> add 22 1.0);
              match (a, b') with
              | _, Value.IConst (_, k) | Value.IConst (_, k), _ ->
                  add 23 1.0;
                  if Int64.equal k 0L then add 24 1.0;
                  if Int64.equal k 1L then add 25 1.0
              | _ -> ())
          | Instr.Fbin _ | Instr.Fneg _ -> add 26 1.0
          | Instr.Icmp _ -> add 27 1.0
          | Instr.Fcmp _ -> add 28 1.0
          | Instr.Load _ -> add 29 1.0
          | Instr.Store _ -> add 30 1.0
          | Instr.Alloca _ -> add 31 1.0
          | Instr.Gep _ -> add 32 1.0
          | Instr.Call (callee, args) ->
              add 33 1.0;
              add 34 (float_of_int (List.length args));
              if Verify.(List.mem callee intrinsics) then add 35 1.0;
              if i.ty = Types.Void then add 36 1.0
          | Instr.Select _ -> add 37 1.0
          | Instr.Cast _ -> add 38 1.0
          | Instr.Freeze _ -> add 39 1.0)
        b.instrs;
      match b.term with
      | Instr.Ret _ -> add 40 1.0
      | Instr.Br _ -> add 41 1.0
      | Instr.CondBr _ -> add 42 1.0
      | Instr.Switch (_, _, cases) ->
          add 43 1.0;
          add 44 (float_of_int (List.length cases))
      | Instr.Unreachable -> add 45 1.0)
    blocks;
  (* 46-49: whole-function statistics *)
  add 46 (float_of_int (Func.instr_count f));
  add 47 (float_of_int (Cfg.edge_count cfg));
  add 48 (if Cfg.has_cycle cfg then 1.0 else 0.0);
  add 49 (float_of_int (List.length f.params));
  (* 50-55: dominance / structure statistics *)
  let dom = Dominance.compute cfg in
  let rec depth i =
    match Dominance.idom dom i with Some p -> 1 + depth p | None -> 0
  in
  let depths = List.map (fun (b : Block.t) -> depth (Cfg.index cfg b.label)) blocks in
  add 50 (float_of_int (List.fold_left max 0 depths));
  add 51
    (float_of_int (List.fold_left ( + ) 0 depths) /. float_of_int (max 1 n_blocks));
  add 52 (float_of_int n_blocks /. float_of_int (max 1 (Func.instr_count f)));
  add 53
    (float_of_int (Cfg.edge_count cfg) /. float_of_int (max 1 n_blocks));
  add 54 (float_of_int (Array.length dom.rpo));
  add 55 (if f.ret = Types.Void then 1.0 else 0.0);
  v

let of_module (m : Irmod.t) : float array =
  let v = Array.make dim 0.0 in
  List.iter
    (fun f ->
      let fv = of_func f in
      Array.iteri (fun i x -> v.(i) <- v.(i) +. x) fv)
    m.funcs;
  v
