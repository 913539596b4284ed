(** Function inlining.  Small, non-recursive callees are cloned into their
    callers; the callee's blocks are renamed, its parameters bound to the
    actual arguments, and its returns rewired to a continuation block with a
    phi collecting the return values. *)

open Yali_ir

let default_threshold = 40

let is_recursive (f : Func.t) : bool =
  List.exists
    (fun (i : Instr.t) ->
      match i.kind with Instr.Call (n, _) -> n = f.name | _ -> false)
    (Func.instrs f)

let inlinable ~threshold (f : Func.t) : bool =
  Func.instr_count f <= threshold && not (is_recursive f)

(* Clone [callee]'s body into [caller], returning the rewritten caller.
   [site_block] is split at the call site. *)
let inline_call (caller : Func.t) (callee : Func.t) ~(site_label : string)
    ~(call_instr : Instr.t) ~(args : Value.t list) : Func.t =
  let site = Func.find_block_exn caller site_label in
  (* fresh ids for every def of the callee *)
  let base_id, caller = Func.fresh_ids caller (callee.next_id + 1) in
  let rename_id id = base_id + id in
  let label_map = Hashtbl.create 16 in
  let caller = ref caller in
  List.iter
    (fun (b : Block.t) ->
      let l, c = Func.fresh_label !caller ("inl." ^ b.label) in
      caller := c;
      Hashtbl.replace label_map b.label l)
    callee.blocks;
  let cont_label, c = Func.fresh_label !caller "inl.cont" in
  caller := c;
  let caller = !caller in
  let rename_label l = Hashtbl.find label_map l in
  (* bind parameters: a simple substitution of params by argument values *)
  let param_sub = Hashtbl.create 8 in
  List.iter2
    (fun (pid, _) arg -> Hashtbl.replace param_sub pid arg)
    callee.params args;
  let rename_value (v : Value.t) : Value.t =
    match v with
    | Value.Var id -> (
        match Hashtbl.find_opt param_sub id with
        | Some arg -> arg
        | None -> Value.Var (rename_id id))
    | _ -> v
  in
  (* split the call site *)
  let before, after =
    let rec go acc = function
      | [] -> invalid_arg "inline_call: call instruction not found"
      | (i : Instr.t) :: rest ->
          if i == call_instr then (List.rev acc, rest)
          else go (i :: acc) rest
    in
    go [] site.instrs
  in
  let entry_clone = rename_label (Func.entry callee).label in
  let site' = { site with instrs = before; term = Instr.Br entry_clone } in
  (* clone callee blocks; collect return values *)
  let returns = ref [] in
  let clones =
    List.map
      (fun (b : Block.t) ->
        let label = rename_label b.label in
        let instrs =
          List.map
            (fun (i : Instr.t) ->
              let i = Instr.map_operands rename_value i in
              let i =
                match i.kind with
                | Instr.Phi incoming ->
                    {
                      i with
                      kind =
                        Instr.Phi
                          (List.map (fun (v, l) -> (v, rename_label l)) incoming);
                    }
                | _ -> i
              in
              { i with id = (if Instr.defines i then rename_id i.id else i.id) })
            b.instrs
        in
        let term =
          match b.term with
          | Instr.Ret v ->
              let v = Option.map rename_value v in
              returns := (label, v) :: !returns;
              Instr.Br cont_label
          | t ->
              Instr.map_successors rename_label
                (Instr.map_terminator_operands rename_value t)
        in
        Block.make ~label ~instrs ~term)
      callee.blocks
  in
  (* continuation block: phi over returned values feeding the old call id *)
  let cont_instrs =
    if Instr.defines call_instr then
      match !returns with
      | [] ->
          (* callee never returns: the continuation is unreachable, but uses
             of the call's id must stay defined for the verifier *)
          [
            Instr.mk ~id:call_instr.id ~ty:call_instr.ty
              (Instr.Freeze (Value.Undef call_instr.ty));
          ]
      | rets ->
          let incoming =
            List.map
              (fun (l, v) ->
                (Option.value v ~default:(Value.Undef call_instr.ty), l))
              rets
          in
          [ Instr.mk ~id:call_instr.id ~ty:call_instr.ty (Instr.Phi incoming) ]
    else []
  in
  let cont =
    Block.make ~label:cont_label ~instrs:(cont_instrs @ after) ~term:site.term
  in
  (* successors of the original site must retarget their phis to [cont] *)
  let blocks =
    List.concat_map
      (fun (b : Block.t) ->
        if b.label = site_label then [ site' ] else [ b ])
      caller.blocks
    @ clones @ [ cont ]
  in
  let old_succs = Instr.successors site.term in
  let blocks =
    List.map
      (fun (b : Block.t) ->
        if List.mem b.label old_succs then
          Block.retarget_phis
            ~f:(fun l -> if l = site_label then cont_label else l)
            b
        else b)
      blocks
  in
  { caller with blocks }

(** Inline every eligible call site in the module, bottom-up. *)
let run ?(threshold = default_threshold) (m : Irmod.t) : Irmod.t =
  let m = ref m in
  let progress = ref true in
  let rounds = ref 0 in
  while !progress && !rounds < 4 do
    incr rounds;
    progress := false;
    List.iter
      (fun (f : Func.t) ->
        let f = Irmod.find_func_exn !m f.name in
        (* find one call site at a time; the function is rebuilt after each *)
        let rec step f =
          let site =
            List.find_map
              (fun (b : Block.t) ->
                List.find_map
                  (fun (i : Instr.t) ->
                    match i.kind with
                    | Instr.Call (callee_name, args)
                      when callee_name <> f.Func.name -> (
                        match Irmod.find_func !m callee_name with
                        | Some callee when inlinable ~threshold callee ->
                            Some (b.label, i, args, callee)
                        | _ -> None)
                    | _ -> None)
                  b.instrs)
              f.Func.blocks
          in
          match site with
          | Some (site_label, call_instr, args, callee) ->
              progress := true;
              step (inline_call f callee ~site_label ~call_instr ~args)
          | None -> f
        in
        m := Irmod.update_func !m (step f))
      !m.funcs
  done;
  !m
