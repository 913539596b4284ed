(** Loop-invariant code motion.

    Pure instructions inside a loop whose operands are all defined outside
    the loop (or are themselves hoisted invariants) move to a preheader
    block inserted on the unique non-latch entry edge.  Loads and stores are
    left alone (no alias analysis); calls are never hoisted.

    LICM strengthens the O3 normalizer against evaders that bury arithmetic
    inside loops. *)

open Yali_ir
module ISet = Set.Make (Int)

(* insert a preheader for loop [l] of [loops] (computed on [f]) whose
   header has exactly the predecessors latches + outside preds; returns the
   new function, the preheader label, or None if the shape is unsuitable *)
let make_preheader (f : Func.t) (loops : Loops.t) (l : Loops.loop) :
    (Func.t * string) option =
  let cfg = loops.cfg in
  let outside =
    List.map (Cfg.label cfg)
      (List.filter (fun p -> not (List.mem p l.latches)) cfg.pred.(l.header))
  in
  let header_label = Cfg.label cfg l.header in
  match outside with
  | [] -> None
  | _ ->
      if l.header = cfg.entry then None
      else
        let ph_label, f = Func.fresh_label f (header_label ^ ".preheader") in
        (* outside preds retarget to the preheader; phi entries in the
           header from outside preds move into the preheader's phis *)
        let header = Func.find_block_exn f header_label in
        (* split header phis: outside-incoming part becomes a phi in the
           preheader, the header phi keeps latch entries + the preheader *)
        let next = ref f.next_id in
        let fresh () =
          let id = !next in
          incr next;
          id
        in
        let ph_phis = ref [] in
        let new_header_instrs =
          List.map
            (fun (i : Instr.t) ->
              match i.kind with
              | Instr.Phi incoming ->
                  let out_in, latch_in =
                    List.partition (fun (_, l') -> List.mem l' outside) incoming
                  in
                  (match out_in with
                  | [] -> i
                  | [ (v, _) ] when List.length outside = 1 ->
                      (* single outside pred: route the value through *)
                      { i with kind = Instr.Phi ((v, ph_label) :: latch_in) }
                  | _ ->
                      let ph_id = fresh () in
                      ph_phis :=
                        Instr.mk ~id:ph_id ~ty:i.ty (Instr.Phi out_in)
                        :: !ph_phis;
                      {
                        i with
                        kind =
                          Instr.Phi ((Value.Var ph_id, ph_label) :: latch_in);
                      })
              | _ -> i)
            header.instrs
        in
        let header' = { header with instrs = new_header_instrs } in
        let preheader =
          Block.make ~label:ph_label ~instrs:(List.rev !ph_phis)
            ~term:(Instr.Br header_label)
        in
        (* retarget outside preds' terminators *)
        let blocks =
          List.concat_map
            (fun (b : Block.t) ->
              if b.label = header_label then [ header'; preheader ]
              else if List.mem b.label outside then
                [
                  {
                    b with
                    term =
                      Instr.map_successors
                        (fun s -> if s = header_label then ph_label else s)
                        b.term;
                  };
                ]
              else [ b ])
            f.blocks
        in
        Some ({ f with blocks; next_id = !next }, ph_label)

let hoistable (i : Instr.t) =
  match i.kind with
  | Instr.Ibin ((Instr.SDiv | Instr.UDiv | Instr.SRem | Instr.URem), _, _) ->
      (* division can trap; hoisting may introduce a trap on a path that
         never executed it *)
      false
  | Instr.Ibin _ | Instr.Fbin _ | Instr.Fneg _ | Instr.Icmp _ | Instr.Fcmp _
  | Instr.Select _ | Instr.Cast _ | Instr.Gep _ ->
      true
  | _ -> false

let run_func (f : Func.t) : Func.t =
  let loops = Loops.of_func f in
  List.fold_left
    (fun f (l : Loops.loop) ->
      (* recompute against the current function: earlier hoists may have
         changed labels *)
      let loops_now = Loops.of_func f in
      let header = Cfg.label loops.cfg l.header in
      match
        List.find_opt
          (fun (l' : Loops.loop) -> Cfg.label loops_now.cfg l'.header = header)
          loops_now.loops
      with
      | None -> f
      | Some l -> (
          let in_body = Loops.mem loops_now l in
          match make_preheader f loops_now l with
          | None -> f
          | Some (f, ph_label) ->
              (* defs inside the loop *)
              let loop_defs = ref ISet.empty in
              List.iter
                (fun (b : Block.t) ->
                  if in_body b.label then
                    List.iter
                      (fun (i : Instr.t) ->
                        if Instr.defines i then
                          loop_defs := ISet.add i.id !loop_defs)
                      b.instrs)
                f.blocks;
              (* iterate: hoist instructions whose operands are all
                 loop-external *)
              let hoisted = ref [] in
              let changed = ref true in
              let f = ref f in
              while !changed do
                changed := false;
                let blocks =
                  List.map
                    (fun (b : Block.t) ->
                      if not (in_body b.label) then b
                      else
                        let keep =
                          List.filter
                            (fun (i : Instr.t) ->
                              let invariant =
                                Instr.defines i && hoistable i
                                && List.for_all
                                     (fun (v : Value.t) ->
                                       match v with
                                       | Value.Var id ->
                                           not (ISet.mem id !loop_defs)
                                       | _ -> true)
                                     (Instr.operands i)
                              in
                              if invariant then begin
                                hoisted := i :: !hoisted;
                                loop_defs := ISet.remove i.id !loop_defs;
                                changed := true;
                                false
                              end
                              else true)
                            b.instrs
                        in
                        { b with instrs = keep })
                    !f.blocks
                in
                f := { !f with blocks }
              done;
              if !hoisted = [] then !f
              else
                let ph = Func.find_block_exn !f ph_label in
                let ph' =
                  { ph with instrs = ph.instrs @ List.rev !hoisted }
                in
                Func.update_block !f ph'))
    f
    (Loops.innermost_first loops)

let run : Irmod.t -> Irmod.t = Irmod.map_funcs run_func
