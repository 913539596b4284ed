(** Control-flow flattening, after O-LLVM's [-fla] pass.

    Every basic block becomes a case of a switch inside a dispatch loop; a
    "next block" variable, kept in memory, selects the successor at the end
    of each case.  The CFG of the flattened function is a star: all
    structure of the original control flow disappears — though, as the paper
    notes, the *histogram* of opcodes barely changes, which is why
    histogram-based classifiers see through flattening (§4.3).

    Precondition: phi-free functions (the pass runs on [-O0]-style code).
    Switch terminators are first lowered into compare-and-branch chains, so
    flattening flattened code lowers the old dispatcher and adds a new one
    under a fresh label. *)

open Yali_ir
module Rng = Yali_util.Rng

let has_phis (f : Func.t) =
  List.exists
    (fun (i : Instr.t) -> match i.kind with Instr.Phi _ -> true | _ -> false)
    (Func.instrs f)

(** Replace switch terminators with chains of [icmp eq]/[condbr] blocks. *)
let lower_switches (f : Func.t) : Func.t =
  let next = ref f.next_id in
  let fresh () =
    let id = !next in
    incr next;
    id
  in
  let next_label = ref f.next_label in
  let fresh_label hint =
    let l = Printf.sprintf "%s.%d" hint !next_label in
    incr next_label;
    l
  in
  let blocks =
    List.concat_map
      (fun (b : Block.t) ->
        match b.term with
        | Instr.Switch (v, default, cases) ->
            (* b ends with a test for the first case; continuation blocks
               test the remaining cases *)
            let rec chain cases =
              match cases with
              | [] -> (default, [])
              | (k, l) :: rest ->
                  let cont, blocks = chain rest in
                  let test_label = fresh_label (b.label ^ ".swtest") in
                  let c = fresh () in
                  let test_block =
                    Block.make ~label:test_label
                      ~instrs:
                        [
                          Instr.mk ~id:c ~ty:Types.I1
                            (Instr.Icmp (Instr.Eq, v, Value.IConst (Types.I64, k)));
                        ]
                      ~term:(Instr.CondBr (Value.Var c, l, cont))
                  in
                  (test_label, test_block :: blocks)
            in
            let first, chain_blocks = chain cases in
            [ { b with term = Instr.Br first } ] @ chain_blocks
        | _ -> [ b ])
      f.blocks
  in
  { f with blocks; next_id = !next; next_label = !next_label }

(** Move every alloca into the entry block so stack slots keep dominating
    their accesses once the CFG is a star.  Lowered code initializes each
    slot before any load on every path, so widening a slot's lifetime to
    the whole function is unobservable. *)
let hoist_allocas (f : Func.t) : Func.t =
  let entry_label = (Func.entry f).label in
  let hoisted = ref [] in
  let stripped =
    List.map
      (fun (b : Block.t) ->
        if b.label = entry_label then b
        else
          let allocas, others =
            List.partition
              (fun (i : Instr.t) ->
                match i.kind with Instr.Alloca _ -> true | _ -> false)
              b.instrs
          in
          hoisted := !hoisted @ allocas;
          { b with instrs = others })
      f.blocks
  in
  {
    f with
    blocks =
      List.map
        (fun (b : Block.t) ->
          if b.label = entry_label then
            { b with instrs = b.instrs @ !hoisted }
          else b)
        stripped;
  }

(** O-LLVM's reg2mem prerequisite: an SSA value defined in a non-entry
    block and used in another block would no longer dominate its uses
    after flattening (all inter-block edges get rerouted through the
    dispatcher).  Demote each such value to a fresh entry-block stack
    slot: store once after the definition, reload in front of every
    out-of-block use. *)
let demote_cross_block (f : Func.t) : Func.t =
  let next = ref f.next_id in
  let fresh () =
    let id = !next in
    incr next;
    id
  in
  let entry_label = (Func.entry f).label in
  let def_block : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let def_ty : (int, Types.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          if Instr.defines i then begin
            Hashtbl.replace def_block i.id b.label;
            Hashtbl.replace def_ty i.id i.ty
          end)
        b.instrs)
    f.blocks;
  (* slot table: demoted id -> (slot id, value type) *)
  let slot : (int, int * Types.t) Hashtbl.t = Hashtbl.create 16 in
  let note_use here v =
    match v with
    | Value.Var id -> (
        match Hashtbl.find_opt def_block id with
        | Some dl when dl <> here && dl <> entry_label ->
            if not (Hashtbl.mem slot id) then
              Hashtbl.replace slot id (fresh (), Hashtbl.find def_ty id)
        | _ -> ())
    | _ -> ()
  in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) -> List.iter (note_use b.label) (Instr.operands i))
        b.instrs;
      List.iter (note_use b.label) (Instr.terminator_operands b.term))
    f.blocks;
  if Hashtbl.length slot = 0 then f
  else
    let reload (b : Block.t) acc v =
      match v with
      | Value.Var id
        when Hashtbl.mem slot id
             && Hashtbl.find_opt def_block id <> Some b.label ->
          let s, ty = Hashtbl.find slot id in
          let l = fresh () in
          acc := Instr.mk ~id:l ~ty (Instr.Load (Value.Var s)) :: !acc;
          Value.Var l
      | _ -> v
    in
    let blocks =
      List.map
        (fun (b : Block.t) ->
          let instrs =
            List.concat_map
              (fun (i : Instr.t) ->
                let loads = ref [] in
                let i' = Instr.map_operands (reload b loads) i in
                let spill =
                  if Instr.defines i && Hashtbl.mem slot i.id then
                    let s, _ = Hashtbl.find slot i.id in
                    [
                      Instr.mk_void
                        (Instr.Store (Value.Var i.id, Value.Var s));
                    ]
                  else []
                in
                List.rev !loads @ (i' :: spill))
              b.instrs
          in
          let tloads = ref [] in
          let term =
            Instr.map_terminator_operands (reload b tloads) b.term
          in
          { b with instrs = instrs @ List.rev !tloads; term })
        f.blocks
    in
    let allocas =
      Hashtbl.fold
        (fun _id (s, ty) acc ->
          Instr.mk ~id:s ~ty:(Types.Ptr ty) (Instr.Alloca ty) :: acc)
        slot []
      |> List.sort (fun (a : Instr.t) (b : Instr.t) -> compare a.id b.id)
    in
    let blocks =
      List.map
        (fun (b : Block.t) ->
          if b.label = entry_label then
            { b with instrs = b.instrs @ allocas }
          else b)
        blocks
    in
    { f with blocks; next_id = !next }

let run_func (rng : Rng.t) (f : Func.t) : Func.t =
  if has_phis f || List.length f.blocks < 2 then f
  else
    let f = lower_switches f in
    let f = hoist_allocas f in
    let f = demote_cross_block f in
    let entry = Func.entry f in
    let rest = List.tl f.blocks in
    (* entry must not be a branch target *)
    let entry_is_target =
      List.exists
        (fun (b : Block.t) -> List.mem entry.label (Block.successors b))
        f.blocks
    in
    if entry_is_target then f
    else
      let next = ref f.next_id in
      let fresh () =
        let id = !next in
        incr next;
        id
      in
      (* randomized case numbers *)
      let labels = List.map (fun (b : Block.t) -> b.label) rest in
      let shuffled = Rng.shuffle rng labels in
      let case_of : (string, int) Hashtbl.t = Hashtbl.create 16 in
      List.iteri (fun i l -> Hashtbl.replace case_of l i) shuffled;
      let sw_slot = fresh () in
      (* a first flattening names its dispatcher [fla.dispatch]; flattening
         flattened code takes a fresh label *)
      let dispatch_label, f =
        if Option.is_none (Func.find_block f "fla.dispatch") then
          ("fla.dispatch", f)
        else Func.fresh_label f "fla.dispatch"
      in
      let case_const l = Value.i32 (Hashtbl.find case_of l) in
      (* rewrite a terminator into "store next-case; br dispatcher" *)
      let reroute (instrs : Instr.t list) (term : Instr.terminator) :
          Instr.t list * Instr.terminator =
        match term with
        | Instr.Br l ->
            ( instrs
              @ [ Instr.mk_void (Instr.Store (case_const l, Value.Var sw_slot)) ],
              Instr.Br dispatch_label )
        | Instr.CondBr (c, t, e) ->
            let sel = fresh () in
            ( instrs
              @ [
                  Instr.mk ~id:sel ~ty:Types.I32
                    (Instr.Select (c, case_const t, case_const e));
                  Instr.mk_void (Instr.Store (Value.Var sel, Value.Var sw_slot));
                ],
              Instr.Br dispatch_label )
        | (Instr.Ret _ | Instr.Unreachable) as t -> (instrs, t)
        | Instr.Switch _ -> (instrs, term) (* lowered away above *)
      in
      let entry_instrs, entry_term =
        let alloca =
          Instr.mk ~id:sw_slot ~ty:(Types.Ptr Types.I32) (Instr.Alloca Types.I32)
        in
        reroute (entry.instrs @ [ alloca ]) entry.term
      in
      let entry' = { entry with instrs = entry_instrs; term = entry_term } in
      let flattened =
        List.map
          (fun (b : Block.t) ->
            let instrs, term = reroute b.instrs b.term in
            { b with instrs; term })
          rest
      in
      (* the dispatcher *)
      let loaded = fresh () in
      let cases =
        List.map (fun l -> (Int64.of_int (Hashtbl.find case_of l), l)) labels
      in
      let default = match labels with l :: _ -> l | [] -> entry.label in
      let dispatcher =
        Block.make ~label:dispatch_label
          ~instrs:[ Instr.mk ~id:loaded ~ty:Types.I32 (Instr.Load (Value.Var sw_slot)) ]
          ~term:(Instr.Switch (Value.Var loaded, default, cases))
      in
      { f with blocks = entry' :: dispatcher :: flattened; next_id = !next }

let run (rng : Rng.t) (m : Irmod.t) : Irmod.t =
  Irmod.map_funcs (run_func rng) m
